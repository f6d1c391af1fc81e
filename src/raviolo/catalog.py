"""Builtin presentations, Fock and lattice modules, characters.

The presets are the standard strongly-generated examples: the
field-antifield pair FC^(s)_r, the weight-one pair H, current algebras
at a chosen invariant form, and the stress-tensor algebra.  Characters
are computed two ways: signed counts over the PBW basis, and symbolic
q-Pochhammer products that serve as the independent oracle.
"""

from fractions import Fraction

from .scalars import (Scalar, Grading, K_PARAM, KAPPA_PARAM, XI_PARAM,
                      as_vector, sum_str, twist, vadd, vscale, vsub)
from .modes import GeneratorInfo, FieldExpr, OpeTable
from .engine import (Presentation, PBWModule, default_samples,
                     identity_check)
from .linalg import kernel_basis, rational_coords

K = Scalar.param(K_PARAM)
KAP = Scalar.param(KAPPA_PARAM)
XI = Scalar.param(XI_PARAM)


# ------------------------------------------------------------- presets

def fc(s=0, r=0):
    """The field-antifield pair: X (cohdeg r, spin s), psi (cohdeg 1-r,
    spin 1-s), intrinsic parity r so X is always totalized even, with
    the single contraction X psi ~ K at index 0."""
    s = Fraction(s)
    X = GeneratorInfo("X", Grading(r, s, r % 2, (1,)))
    psi = GeneratorInfo("psi", Grading(1 - r, 1 - s, r % 2, (-1,)))
    table = OpeTable({
        ("psi", "X", 0): FieldExpr.const(K),
        ("X", "psi", 0): FieldExpr.const(K),
    })
    return Presentation("fc(%s,%s)" % (s, r), [X, psi], table)


def heisenberg():
    """The weight-one pair: b even spin 1, nu odd spin 1, with
    b nu ~ K at index 1."""
    b = GeneratorInfo("b", Grading(0, 1, 0, (1,)))
    nu = GeneratorInfo("nu", Grading(1, 1, 0, (-1,)))
    table = OpeTable({
        ("b", "nu", 1): FieldExpr.const(K),
        ("nu", "b", 1): FieldExpr.const(-K),
    })
    return Presentation("h", [b, nu], table)


def virasoro():
    """One odd spin-2 generator with the stress-tensor self-products
    and central term xi/2 at index 3."""
    G = GeneratorInfo("Gamma", Grading(1, 2, 0))
    table = OpeTable({
        ("Gamma", "Gamma", 3): FieldExpr.const(XI * Fraction(1, 2)),
        ("Gamma", "Gamma", 1): FieldExpr.gen("Gamma").scale(2),
        ("Gamma", "Gamma", 0): FieldExpr.gen("Gamma", 1),
    })
    return Presentation("vir", [G], table)


def current(names, f, form, weights=None, name=None):
    """Current algebra: one odd spin-1 generator mu_a per basis element,
    index-0 products from the structure constants f[(a,b)] = {c: coeff}
    and index-1 products kappa * form[(a,b)].

    The form must be symmetric and invariant; violations are rejected
    with a witness triple."""
    f = {k: dict(v) for k, v in f.items()}
    form = dict(form or {})
    for (a, b), v in list(form.items()):
        if form.get((b, a), 0) != v:
            raise ValueError("form not symmetric at (%s, %s)" % (a, b))
    for a in names:
        for b in names:
            for c in names:
                lhs = sum(Fraction(x) * Fraction(form.get((d, c), 0))
                          for d, x in f.get((a, b), {}).items())
                rhs = sum(Fraction(x) * Fraction(form.get((a, d), 0))
                          for d, x in f.get((b, c), {}).items())
                if lhs != rhs:
                    raise ValueError(
                        "form not invariant at (%s, %s, %s)" % (a, b, c))
    gens = []
    for a in names:
        fl = (weights[a],) if weights else ()
        gens.append(GeneratorInfo("mu_" + a, Grading(1, 1, 0, fl)))
    entries = {}
    for a in names:
        for b in names:
            fab = f.get((a, b), {})
            if fab:
                entries[("mu_" + a, "mu_" + b, 0)] = FieldExpr(
                    {(("mu_" + c, 0),): v for c, v in fab.items()})
            hab = form.get((a, b), 0)
            if hab:
                entries[("mu_" + a, "mu_" + b, 1)] = \
                    FieldExpr.const(KAP * hab)
    return Presentation(name or "current", gens, OpeTable(entries))


SL2_NAMES = ["e", "h", "f"]
SL2_F = {
    ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1},
    ("h", "e"): {"e": 2}, ("e", "h"): {"e": -2},
    ("h", "f"): {"f": -2}, ("f", "h"): {"f": 2},
}
SL2_KILLING = {("e", "f"): 4, ("f", "e"): 4, ("h", "h"): 8}
SL2_WEIGHTS = {"e": 2, "h": 0, "f": -2}


def sl2():
    return current(SL2_NAMES, SL2_F, SL2_KILLING, weights=SL2_WEIGHTS,
                   name="sl2")


def fc_multi(n, s=0, r=0):
    """n independent field-antifield pairs X1..Xn, psi1..psin, one
    flavor axis per pair."""
    s = Fraction(s)
    gens, entries = [], {}
    for i in range(1, n + 1):
        fl = [0] * n
        fl[i - 1] = 1
        gens.append(GeneratorInfo("X%d" % i,
                                  Grading(r, s, r % 2, tuple(fl))))
        fl = [0] * n
        fl[i - 1] = -1
        gens.append(GeneratorInfo("psi%d" % i,
                                  Grading(1 - r, 1 - s, r % 2, tuple(fl))))
        entries[("psi%d" % i, "X%d" % i, 0)] = FieldExpr.const(K)
        entries[("X%d" % i, "psi%d" % i, 0)] = FieldExpr.const(K)
    return Presentation("fc^%d" % n, gens, OpeTable(entries))


# ------------------------------------------------------ stress tensors

def stress_tensor(mod, which, s=None):
    """The distinguished odd spin-2 state of a preset module:
    - "heisenberg": -:b nu:
    - "fc": (1-s):psi dX: - s:X dpsi:
    (the stress-tensor algebra's is its generator Gamma itself)."""
    if which == "heisenberg":
        return vscale(mod.nop(mod.gen_state("b"), mod.gen_state("nu")), -1)
    if which == "fc":
        s = Fraction(s)
        X, psi = mod.gen_state("X"), mod.gen_state("psi")
        out = vscale(mod.nop(psi, mod.translate(X)), 1 - s)
        vadd(out, mod.nop(X, mod.translate(psi)), -s)
        return out
    raise ValueError("no stress tensor for %r" % (which,))


# ------------------------------------------------------ Fock modules

def _fock_rule(lam):
    eigen = as_vector({(): Fraction(lam)})

    def rule(mod, gi, n):
        if mod.gens[gi].name == "nu" and n == 0:
            return dict(eigen)
        return {}
    return rule


def fock(lam, spin_cap, word_cap=6):
    """The induced weight-one-pair module with nu_(0) eigenvalue lam on
    the cyclic vector and K specialized to 1."""
    return PBWModule(heisenberg(), spin_cap=spin_cap, word_cap=word_cap,
                     cyclic_rule=_fock_rule(lam), specialize={"K": 1})


def highest_weight_kernel(mod, spin_cap):
    """Basis-span states killed by every annihilation mode: nu_(n) for
    n >= 1 and b_(n) for n >= 0.  Returns the list of kernel states."""
    keys = [k for k, g in mod.basis() if g.spin <= spin_cap]
    nmax = int(spin_cap) + 1
    annihilators = [("nu", n) for n in range(1, nmax + 1)] + \
        [("b", n) for n in range(0, nmax + 1)]
    rows = [[mod.act(x, n, {k: 1}) for x, n in annihilators] for k in keys]
    # one linear condition per (image slot, target key): each slot's
    # coordinates sit at an offset in every key's column
    columns = [{} for _ in keys]
    offset = 0
    for s in range(len(annihilators)):
        targets = sorted({t for r in rows for t in r[s]})
        tindex = {t: offset + i for i, t in enumerate(targets)}
        for col, r in zip(columns, rows):
            col.update(rational_coords(r[s], tindex))
        offset += len(targets)
    return [as_vector({keys[j]: q for j, q in vec.items()})
            for vec in kernel_basis(columns)]


# ------------------------------------------------------ lattice module

class LatticeModule:
    """The lattice module of the weight-one pair: the direct sum of the
    Fock sectors F_m, m in a window, with the sector-shift vertex
    operators (all cocycle values 1).  States are (sector, state-dict)
    pairs.

    Every sector is the same Fock space; only its cyclic vector's nu_(0)
    eigenvalue, m, differs (_fock_rule answers every other annihilation
    mode with zero).  The Heisenberg table has b-nu products only at
    index 1 and no nu-nu product, so nu_(0) commutes with every mode.
    So the module holds one Fock module, fock = fock(0), which gives
    every sector's basis, labels and spins; every mode acts through it,
    and act adds m times the state to nu_(0) on sector m.

    The vertex operators are linear, so vertex_mode sums per-key values
    read from two index-keyed tables, each entry computed once:
    - _exp[(strength, key)] lists E_p|key>, p = 0, 1, ..., grown p by p
      (E_p is the z^p coefficient of the creation-half exponential);
    - _vertex[(m1, t, key)] is V^{m1}_t|key>.
    Both are built from b modes alone, so the tables hold no sector.
    They, and the Fock module's action memo, grow with the keys, modes
    and weights asked for and are never trimmed (ROADMAP item 9)."""

    def __init__(self, window, spin_cap, word_cap):
        self.window = window
        self.fock = fock(0, spin_cap, word_cap)
        self._exp = {}
        self._vertex = {}

    def act(self, name, n, mst):
        m, st = mst
        out = self.fock.act(name, n, st)
        if m and n == 0 and name == "nu":
            # nu_(0) is even: the sector's eigenvalue passes every mode
            vadd(out, st, m)
        return (m, out)

    def _exp_part(self, strength, key, p):
        """E_p|key>, with E_p the z^p coefficient of the creation-half
        exponential exp(-strength sum_j z^j b_(-j)/j)."""
        parts = self._exp.get((strength, key))
        if parts is None:
            parts = self._exp[(strength, key)] = [{key: 1}]
        while len(parts) <= p:
            n = len(parts)
            acc = {}
            for j in range(1, n + 1):
                vadd(acc, self.fock.act("b", -j, parts[n - j]), -strength)
            parts.append(vscale(acc, Fraction(1, n)))
        return parts[p]

    def _vertex_key(self, m1, t, key):
        """V^{m1}_t|key>: the creation exponential for t < 0; for
        t >= 0 the sum over p of -m1/q E_p b_(q)|key>, q = t + p + 1,
        where b_(q) kills |key> once q exceeds its spin (both generators
        have spin one, so mode n adds -n)."""
        out = self._vertex.get((m1, t, key))
        if out is None:
            if t < 0:
                out = self._exp_part(m1, key, -t - 1)
            else:
                out = {}
                if m1:
                    for p in range(sum(-n for _, n in key) - t):
                        q = t + p + 1
                        for k2, c in self.fock.act("b", q, {key: 1}).items():
                            vadd(out, self._exp_part(m1, k2, p),
                                 Fraction(-m1, q) * c)
            self._vertex[(m1, t, key)] = out
        return out

    def vertex_mode(self, m1, t, mst):
        """Mode t of the sector-shift vertex operator of weight m1.

        Modes t < 0 are the z^(-t-1) coefficients of the creation-half
        exponential; modes t >= 0 combine it with one annihilation-half
        term (the singular-tower square is zero, so the annihilation
        exponential has only two terms), and like the annihilation b
        modes they are odd."""
        m2, st = mst
        if not st:
            return (m1 + m2, {})
        tgt = m1 + m2
        if not -self.window <= tgt <= self.window:
            raise ValueError("sector %d outside the window" % tgt)
        out = {}
        for key, c in st.items():
            vadd(out, self._vertex_key(m1, t, key), twist(c, t >= 0))
        return (tgt, out)

    def vertex_deriv_mode(self, m1, t, mst):
        """Mode t of the derivative of the weight-m1 vertex field:
        (dA)_(t) = -t A_(t-1)."""
        if t == 0:
            return (m1 + mst[0], {})
        s, out = self.vertex_mode(m1, t - 1, mst)
        return (s, vscale(out, -t))


# the Taylor depth of the lattice relations: modes from -(LATTICE_TAY + 1)
LATTICE_TAY = 3


def _nu_expect(vert, m, l, t):
    """The right side of the nu-delta row (l, t): the weight times the
    delta kernel.  In mode components, with the canonical-ordering signs
    (creation nu modes are odd and anticommute with the tower symbols,
    flipping both the bracket and the right-hand side),
      l <  0, t >= 0:  {nu_l, V_t} = -m V_(l+t)
      l >= 0:          [nu_l, V_t] = +m V_(l+t)
    and zero whenever the z/tower index combination l + t + 1 dies (both
    creation, or mixed with l + t + 1 > 0)."""
    if l < 0 and t < 0:
        return {}
    if l + t + 1 <= 0 or (l >= 0 and t >= 0):
        return vscale(vert[l + t], -m if (l < 0 and t >= 0) else m)
    return {}


def _commutator(lat, name, l, m, t, base, gen_on):
    """g_l V^m_t - (+-) V^m_t g_l on a sample state, given V^m_t of it
    (base) and g_l of it (gen_on); the sign is the Koszul sign of the
    two modes: b_l is odd for l >= 0, nu_l for l < 0, V_t for t >= 0."""
    odd = l >= 0 if name == "b" else l < 0
    ks = -1 if (odd and t >= 0) else 1
    return vsub(lat.act(name, l, base)[1],
                vscale(lat.vertex_mode(m, t, gen_on)[1], ks))


def _sector_free_rows(lat, m, mst, ts, ls):
    """The rows of one sample state that read no sector: the vertex
    images V^m_s of the state by s, from the lowest t to the highest
    l + t (the nu-delta right sides read l + t, and none reads one below
    the lowest t); the b-commute rows by (t, l); and the nu-delta rows
    with l != 0, as (lhs, rhs) by (t, l)."""
    b_on = {l: lat.act("b", l, mst) for l in ls}
    nu_on = {l: lat.act("nu", l, mst) for l in ls if l}
    vert = {s: lat.vertex_mode(m, s, mst)[1]
            for s in range(ts[0], ts[-1] + ls[-1] + 1)}
    commute, nu_rows = {}, {}
    for t in ts:
        base = (m + mst[0], vert[t])
        for l in ls:
            commute[t, l] = _commutator(lat, "b", l, m, t, base, b_on[l])
            if l:
                nu_rows[t, l] = (
                    _commutator(lat, "nu", l, m, t, base, nu_on[l]),
                    _nu_expect(vert, m, l, t))
    return vert, commute, nu_rows


def _nop_b_rows(lat, mst, spin):
    """(t, b_t|sample>, the two-block mode sum of :V_1 dV_(-1): on it)
    for every t of relation 3; the vertex modes read no sector."""
    rows = []
    for t in range(-(LATTICE_TAY + 1), spin + 1):
        rhs = {}
        if t < 0:
            for n in range(t, 0):
                inner = lat.vertex_deriv_mode(-1, t - n - 1, mst)
                vadd(rhs, lat.vertex_mode(1, n, inner)[1])
        else:
            # bounds from the factor spins (0 and 1) as in the
            # normal-ordered mode recursion
            for n in range(t - spin - 1, 0):
                inner = lat.vertex_deriv_mode(-1, t - n - 1, mst)
                vadd(rhs, lat.vertex_mode(1, n, inner)[1], -1)
            for n in range(t - spin, 0):
                inner = lat.vertex_mode(1, t - n - 1, mst)
                vadd(rhs, lat.vertex_deriv_mode(-1, n, inner)[1], -1)
        rows.append((t, lat.act("b", t, mst)[1], rhs))
    return rows


@identity_check
def check_lattice_relations(lat, mrange, spin_cap):
    """The defining relations of the sector-shift fields, verified
    mode-wise on all basis states within the spin cap, from mode
    -(LATTICE_TAY + 1) up:
      1) generator-b modes commute with every vertex mode;
      2) nu modes pair with vertex modes through the weight times the
         index-combination rule;
      3) the normal-ordered product of the weight-1 field with the
         derivative of the weight-(-1) field has the modes of b.
    A witness ends with the sample state's sector and label.

    Every sector holds the same sample keys, so their spins and labels
    are read once, from the lattice's one Fock module.  Only nu_(0)
    reads the sector (LatticeModule), so the rows that do not read it
    are computed in the first sector that holds the key and read again
    in the others: for each weight m, the vertex images, the b-commute
    rows and the nu-delta rows with l != 0 (_sector_free_rows, a table
    reset at each m); and the nop-b rows once per key (_nop_b_rows).
    Only the l = 0 nu-delta row is evaluated, through lat.act, in each
    sector.  Instances and their order are those of the per-sector
    loop."""
    win = lat.window
    samples = [(key, int(g.spin), lat.fock.state_str({key: 1}))
               for key, g in lat.fock.basis() if g.spin <= spin_cap]
    for m in range(-mrange, mrange + 1):
        shared = {}  # sample key -> _sector_free_rows at this m
        for m2 in range(-win + abs(m), win - abs(m) + 1):
            for key, spin, label in samples:
                mst = (m2, {key: 1})
                ls = range(-(LATTICE_TAY + 1), spin + 2)
                ts = range(-(LATTICE_TAY + 1), spin + 1)
                if key not in shared:
                    shared[key] = _sector_free_rows(lat, m, mst, ts, ls)
                vert, commute, nu_rows = shared[key]
                nu_zero = lat.act("nu", 0, mst)
                for t in ts:
                    for l in ls:
                        # 1) graded [b_l, V_t] = 0
                        yield (("b-commute", m, l, t, m2, label),
                               commute[t, l], {})
                        # 2) the nu bracket: the weight times the delta
                        # kernel, nu_(0) read in this sector
                        if l:
                            lhs, expect = nu_rows[t, l]
                        else:
                            lhs = _commutator(lat, "nu", 0, m, t,
                                              (m + m2, vert[t]), nu_zero)
                            expect = _nu_expect(vert, m, 0, t)
                        yield (("nu-delta", m, l, t, m2, label), lhs,
                               expect)
    # 3) :V_1 dV_(-1): reproduces b, via the two-block mode sums.  For
    # t >= 0 the inner factor sits in an annihilation mode (odd), and
    # putting it right of the outer tower symbol costs one Koszul sign,
    # so both annihilation-range blocks carry -1.
    nop = {}  # sample key -> _nop_b_rows
    for m2 in range(-win + 1, win):
        for key, spin, label in samples:
            if key not in nop:
                nop[key] = _nop_b_rows(lat, (m2, {key: 1}), spin)
            for t, lhs, rhs in nop[key]:
                yield ("nop-b", t, m2, label), lhs, rhs


# ------------------------------------------------------------ characters

def _merge_fugs(f1, f2):
    # a fugacity monomial is a sorted vector {name: power}
    return tuple(sorted(vadd(dict(f1), dict(f2)).items()))


class QSeries:
    """Truncated series in q^spin with integer-power fugacity monomials;
    terms below the truncation order only.  `terms` is a vector keyed by
    (spin, fugacity monomial), so it sums through vadd."""

    def __init__(self, terms, order, fug_window=None):
        self.order = Fraction(order)
        self.fug_window = fug_window
        self.terms = {}
        for (s, f), c in terms.items():
            self._put(Fraction(s), tuple(f), c)

    def _put(self, s, f, c):
        if s >= self.order:
            return
        if self.fug_window is not None and \
                any(abs(p) > self.fug_window for _, p in f):
            return
        vadd(self.terms, {(s, f): c})

    @staticmethod
    def one(order, fug_window):
        return QSeries({(0, ()): 1}, order, fug_window)

    def add_term(self, s, f, c):
        self._put(Fraction(s), tuple(f), c)

    def __mul__(self, other):
        out = QSeries({}, self.order, self.fug_window)
        for (s1, f1), c1 in self.terms.items():
            for (s2, f2), c2 in other.terms.items():
                out._put(s1 + s2, _merge_fugs(f1, f2), c1 * c2)
        return out

    def __eq__(self, other):
        return self.terms == other.terms and self.order == other.order

    def coeff(self, s):
        """The coefficient of q^s with no fugacity."""
        return self.terms.get((Fraction(s), ()), 0)

    def __str__(self):
        def mono(s, f):
            bits = []
            for nm, p in f:
                bits.append(nm if p == 1 else "%s^%s" % (nm, p))
            if s:
                bits.append("q" if s == 1 else
                            ("q^%s" % s if s.denominator == 1
                             else "q^(%s)" % s))
            return "*".join(bits)

        keys = sorted(self.terms, key=lambda k: (k[0], k[1]))
        out = sum_str((self.terms[k], mono(*k)) for k in keys)
        tail = ("q^%s" % self.order if self.order.denominator == 1
                else "q^(%s)" % self.order)
        return out + " + O(%s)" % tail

    __repr__ = __str__


def character(mod, order, fug_names=(), fug_window=None):
    """Signed graded dimensions from the PBW basis: totalized-even
    states count +1, totalized-odd states -1; flavor axes map to the
    given fugacity names."""
    if mod.spin_cap < Fraction(order) - Fraction(1, mod._spin_den):
        raise ValueError("module window too small for the requested order")
    qs = QSeries({}, order, fug_window)
    for key, g in mod.basis():
        if g.spin >= Fraction(order):
            continue
        f = tuple(sorted((nm, w) for nm, w in
                         zip(fug_names, g.flavor) if w))
        qs.add_term(g.spin, f, -1 if g.tot else 1)
    return qs


# the fugacity that counts a lattice state's sector
LATTICE_FUG = "x"


def lattice_sectors(window, order):
    """The sector sum: LATTICE_FUG^m over the sectors |m| <= window."""
    return QSeries({(0, ((LATTICE_FUG, m),) if m else ()): 1
                    for m in range(-window, window + 1)}, order)


def lattice_character(lat, order):
    """Signed graded dimensions of the lattice module: every sector is
    the one Fock space, so this is its character times the sector
    sum."""
    return character(lat.fock, order) * lattice_sectors(lat.window, order)


def pochhammer_expand(factors, order, fug_window=None):
    """Exact truncated product of shifted q-Pochhammer symbols.

    Each factor is (fugacity monomial, exponent, shift) and contributes
    prod_{n>=0} (1 - mono * q^(shift+n)) to the stated exponent (+1 or
    -1).  A shift-0 inverse needs a fugacity window to stay finite.

    The product is expanded with an enlarged working window -- terms
    beyond the requested window can re-enter it through later factors
    -- and trimmed at the end."""
    work = fug_window
    if fug_window is not None:
        bump = max((max(abs(p) for _, p in mono) for mono, _, _ in factors
                    if mono), default=0)
        work = fug_window + int(Fraction(order)) * bump
    out = QSeries.one(order, work)
    for mono, expo, shift in factors:
        mono = tuple(sorted(mono))
        shift = Fraction(shift)
        n = 0
        while shift + n < Fraction(order):
            s = shift + n
            if expo == 1:
                fac = QSeries.one(order, work)
                fac.add_term(s, mono, -1)
            elif expo == -1:
                # geometric series for 1/(1 - mono q^s)
                fac = QSeries({}, order, work)
                k = 0
                while True:
                    if s == 0:
                        if work is None or not mono:
                            raise ValueError("unbounded inverse factor")
                        if k * min(abs(p) for _, p in mono) > work:
                            break
                    elif k * s >= Fraction(order):
                        break
                    f = ()
                    for _ in range(k):
                        f = _merge_fugs(f, mono)
                    fac.add_term(k * s, f, 1)
                    k += 1
            else:
                raise ValueError("exponent must be +1 or -1")
            out = out * fac
            n += 1
    return QSeries(out.terms, order, fug_window)


# ------------------------------------------------------------ morphisms

def morphism_image(dst, gen_map, state):
    """Extend a generator assignment (index -> dst state) to PBW states
    by acting with the image fields' modes."""
    out = {}
    for key, c in state.items():
        cur = dst.vacuum()
        for gi, n in reversed(key):
            cur = dst.field_mode(gen_map[gi], n, cur)
        vadd(out, cur, c)
    return out


@identity_check
def check_morphism(src, dst, gen_map):
    """The assignment intertwines every generator mode within the
    window: phi(g_(n) v) = phi(g)_(n) phi(v)."""
    for v in default_samples(src):
        pv = morphism_image(dst, gen_map, v)
        for gi in range(len(src.gens)):
            for n in range(-2, 4):
                lhs = morphism_image(dst, gen_map, src.act(gi, n, v))
                rhs = dst.field_mode(gen_map[gi], n, pv)
                yield (src.gens[gi].name, n, v), lhs, rhs
