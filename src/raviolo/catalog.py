"""Builtin presentations, Fock and lattice modules, characters.

The presets are the standard strongly-generated examples: the
field-antifield pair FC^(s)_r, the weight-one pair H, current algebras
at a chosen invariant form, and the stress-tensor algebra.  Characters
are computed two ways: signed counts over the PBW basis, and symbolic
q-Pochhammer products that serve as the independent oracle.
"""

from fractions import Fraction

from .scalars import (Scalar, Grading, K_PARAM, KAPPA_PARAM, XI_PARAM,
                      as_vector, vadd, vscale, vsub)
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
    - "virasoro": the generator itself."""
    if which == "heisenberg":
        return vscale(mod.nop(mod.gen_state("b"), mod.gen_state("nu")), -1)
    if which == "fc":
        s = Fraction(s)
        X, psi = mod.gen_state("X"), mod.gen_state("psi")
        out = vscale(mod.nop(psi, mod.translate(X)), 1 - s)
        vadd(out, mod.nop(X, mod.translate(psi)), -s)
        return out
    if which == "virasoro":
        return mod.gen_state("Gamma")
    raise ValueError("no stress tensor for %r" % (which,))


# ------------------------------------------------------ Fock modules

def _fock_rule(lam):
    eigen = as_vector({(): Fraction(lam)})

    def rule(mod, gi, n):
        if mod.gens[gi].name == "nu" and n == 0:
            return dict(eigen)
        return {}
    return rule


def fock(lam, spin_cap=4, word_cap=6, sector_flavor=None):
    """The induced weight-one-pair module with nu_(0) eigenvalue lam on
    the cyclic vector and K specialized to 1."""
    fl = (sector_flavor,) if sector_flavor is not None else ()
    return PBWModule(heisenberg(), spin_cap=spin_cap, word_cap=word_cap,
                     cyclic_rule=_fock_rule(lam),
                     cyclic_grading=Grading(0, 0, 0, fl),
                     specialize={"K": 1})


def highest_weight_kernel(mod, spin_cap):
    """Basis-span states killed by every annihilation mode: nu_(n) for
    n >= 1 and b_(n) for n >= 0.  Returns the list of kernel states."""
    keys = [k for k, g in mod.basis() if g.spin <= spin_cap]
    rows = []
    nmax = int(spin_cap) + 1
    for k in keys:
        images = []
        for n in range(1, nmax + 1):
            images.append(mod.act("nu", n, {k: 1}))
        for n in range(0, nmax + 1):
            images.append(mod.act("b", n, {k: 1}))
        rows.append(images)
    # one linear condition per (image slot, target key)
    slots = len(rows[0]) if rows else 0
    mat = []
    for s in range(slots):
        targets = sorted({t for r in rows for t in r[s]})
        tindex = {t: i for i, t in enumerate(targets)}
        coords = [rational_coords(r[s], tindex) for r in rows]
        for i in range(len(targets)):
            mat.append([c.get(i, Fraction(0)) for c in coords])
    if not mat:
        mat = [[Fraction(0)] * len(keys)]
    out = []
    for vec in kernel_basis(mat):
        out.append(as_vector(dict(zip(keys, vec))))
    return out


# ------------------------------------------------------ lattice module

class LatticeModule:
    """Direct sum of weight-one-pair Fock sectors indexed by integers in
    a window, with the sector-shift vertex operators (all cocycle values
    1).  States are (sector, state-dict) pairs; the sector index is also
    the flavor weight of the cyclic vector."""

    def __init__(self, window=3, spin_cap=4, word_cap=6):
        self.window = window
        self.spin_cap = spin_cap
        self.sectors = {m: fock(m, spin_cap, word_cap, sector_flavor=m)
                        for m in range(-window, window + 1)}

    def vacuum(self, m=0):
        return (m, self.sectors[m].vacuum())

    def act(self, name, n, mst):
        m, st = mst
        return (m, self.sectors[m].act(name, n, st))

    def translate(self, mst):
        """Sector-wise translation plus the cyclic-vector contribution
        -m b_(-1)|m>."""
        m, st = mst
        mod = self.sectors[m]
        out = mod.translate(st)
        if m:
            vadd(out, mod.act("b", -1, st), -m)
        return (m, out)

    def _exp_parts(self, strength, st, mod, pmax):
        """E_p st for p <= pmax, with E_p the z^p coefficient of the
        creation-half exponential exp(-strength sum_j z^j b_(-j)/j)."""
        parts = [st]
        for p in range(1, pmax + 1):
            acc = {}
            for j in range(1, p + 1):
                vadd(acc, mod.act("b", -j, parts[p - j]), -strength)
            parts.append(vscale(acc, Fraction(1, p)))
        return parts

    def vertex_mode(self, m1, t, mst):
        """Mode t of the sector-shift vertex operator of weight m1.

        Modes t < 0 are the z^(-t-1) coefficients of the creation-half
        exponential; modes t >= 0 combine it with one annihilation-half
        term (the singular-tower square is zero, so the annihilation
        exponential has only two terms)."""
        m2, st = mst
        if not st:
            return (m1 + m2, {})
        tgt = m1 + m2
        if not -self.window <= tgt <= self.window:
            raise ValueError("sector %d outside the window" % tgt)
        mod = self.sectors[m2]
        # spin directly from the keys (both generators have spin one, so
        # mode n adds -n); intermediate states can mix flavor weights,
        # which the graded-state accessor would reject
        spin = max(sum(-n for _, n in key) for key in st)
        if t < 0:
            out = self._exp_parts(m1, st, mod, -t - 1)[-t - 1]
        else:
            out = {}
            if m1:
                pmax = max(spin - t - 1, -1)
                for p in range(0, pmax + 1):
                    q = t + p + 1
                    hit = mod.act("b", q, st)
                    if hit:
                        part = self._exp_parts(m1, hit, mod, p)[p]
                        vadd(out, part, Fraction(-m1, q))
        return (tgt, out)

    def vertex_deriv_mode(self, m1, t, mst):
        """Mode t of the derivative of the weight-m1 vertex field:
        (dA)_(t) = -t A_(t-1)."""
        if t == 0:
            return (m1 + mst[0], {})
        s, out = self.vertex_mode(m1, t - 1, mst)
        return (s, vscale(out, -t))

    def state_spin(self, mst):
        m, st = mst
        return self.sectors[m].state_spin(st)

    def samples(self, m, max_spin=3):
        mod = self.sectors[m]
        return [(m, {k: 1}) for k, g in mod.basis()
                if g.spin <= max_spin]


@identity_check
def check_lattice_relations(lat, mrange=3, spin_cap=3, tay=3):
    """The defining relations of the sector-shift fields, verified
    mode-wise on all basis states within the spin cap:
      1) generator-b modes commute with every vertex mode;
      2) nu modes pair with vertex modes through the weight times the
         index-combination rule;
      3) the normal-ordered product of the weight-1 field with the
         derivative of the weight-(-1) field has the modes of b."""
    win = lat.window
    for m in range(-mrange, mrange + 1):
        for m2 in range(-win + abs(m), win - abs(m) + 1):
            for mst in lat.samples(m2, spin_cap):
                spin = int(lat.state_spin(mst))
                for t in range(-(tay + 1), spin + 1):
                    pv = 1 if t >= 0 else 0  # tower-mode parity of V_t
                    base = lat.vertex_mode(m, t, mst)
                    for l in range(-(tay + 1), spin + 2):
                        # 1) graded [b_l, V_t] = 0
                        ks = -1 if (l >= 0 and pv) else 1
                        lhs = vsub(lat.act("b", l, base)[1],
                                   vscale(lat.vertex_mode(
                                       m, t, lat.act("b", l, mst))[1], ks))
                        yield ("b-commute", m, l, t, mst[0]), lhs, {}
                        # 2) the nu bracket gives the weight times the
                        # delta kernel: in mode components, with the
                        # canonical-ordering signs (creation nu modes
                        # are odd and anticommute with the tower
                        # symbols, flipping both the bracket and the
                        # right-hand side),
                        #   l <  0, t >= 0:  {nu_l, V_t} = -m V_(l+t)
                        #   l >= 0:          [nu_l, V_t] = +m V_(l+t)
                        # and zero whenever the z/tower index
                        # combination l + t + 1 dies (both creation, or
                        # mixed with l + t + 1 > 0)
                        ks = -1 if (l < 0 and pv) else 1
                        lhs = vsub(lat.act("nu", l, base)[1],
                                   vscale(lat.vertex_mode(
                                       m, t, lat.act("nu", l, mst))[1], ks))
                        comb = l + t + 1
                        if l < 0 and t < 0:
                            expect = {}
                        elif comb <= 0 or (l >= 0 and t >= 0):
                            sgn = -m if (l < 0 and t >= 0) else m
                            expect = vscale(
                                lat.vertex_mode(m, l + t, mst)[1], sgn)
                        else:
                            expect = {}
                        yield ("nu-delta", m, l, t, mst[0]), lhs, expect
    # 3) :V_1 dV_(-1): reproduces b, via the two-block mode sums.  For
    # t >= 0 the inner factor sits in an annihilation mode (odd), and
    # putting it right of the outer tower symbol costs one Koszul sign,
    # so both annihilation-range blocks carry -1.
    for m2 in range(-win + 1, win):
        for mst in lat.samples(m2, spin_cap):
            spin = int(lat.state_spin(mst))
            for t in range(-(tay + 1), spin + 1):
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
                        vadd(rhs, lat.vertex_deriv_mode(-1, n, inner)[1],
                             -1)
                yield ("nop-b", t, m2), lat.act("b", t, mst)[1], rhs


# ------------------------------------------------------------ characters

def _merge_fugs(f1, f2):
    d = dict(f1)
    for nm, p in f2:
        d[nm] = d.get(nm, 0) + p
        if not d[nm]:
            del d[nm]
    return tuple(sorted(d.items()))


class QSeries:
    """Truncated series in q^spin with integer-power fugacity monomials;
    terms below the truncation order only."""

    def __init__(self, terms=None, order=6, fug_window=None):
        self.order = Fraction(order)
        self.fug_window = fug_window
        self.terms = {}
        if terms:
            for (s, f), c in terms.items():
                self._put(Fraction(s), tuple(f), c)

    def _put(self, s, f, c):
        if s >= self.order or not c:
            return
        if self.fug_window is not None and \
                any(abs(p) > self.fug_window for _, p in f):
            return
        k = (s, f)
        v = self.terms.get(k, 0) + c
        if v:
            self.terms[k] = v
        elif k in self.terms:
            del self.terms[k]

    @staticmethod
    def one(order=6, fug_window=None):
        return QSeries({(0, ()): 1}, order, fug_window)

    def add_term(self, s, f, c):
        self._put(Fraction(s), tuple(f), c)

    def __add__(self, other):
        out = QSeries({}, self.order, self.fug_window)
        for (s, f), c in self.terms.items():
            out._put(s, f, c)
        for (s, f), c in other.terms.items():
            out._put(s, f, c)
        return out

    def __mul__(self, other):
        out = QSeries({}, self.order, self.fug_window)
        for (s1, f1), c1 in self.terms.items():
            for (s2, f2), c2 in other.terms.items():
                out._put(s1 + s2, _merge_fugs(f1, f2), c1 * c2)
        return out

    def __eq__(self, other):
        return self.terms == other.terms and self.order == other.order

    def coeff(self, s, f=()):
        return self.terms.get((Fraction(s), tuple(f)), 0)

    def __str__(self):
        def fmt(s, f, c):
            bits = []
            for nm, p in f:
                bits.append(nm if p == 1 else "%s^%s" % (nm, p))
            if s:
                bits.append("q" if s == 1 else
                            ("q^%s" % s if s.denominator == 1
                             else "q^(%s)" % s))
            body = "*".join(bits)
            if not body:
                return str(c)
            if c == 1:
                return body
            if c == -1:
                return "-" + body
            return "%s*%s" % (c, body)

        keys = sorted(self.terms, key=lambda k: (k[0], k[1]))
        if not keys:
            out = "0"
        else:
            bits = [fmt(s, f, self.terms[(s, f)]) for s, f in keys]
            out = bits[0]
            for b in bits[1:]:
                out += (" - " + b[1:]) if b.startswith("-") \
                    else (" + " + b)
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


def lattice_character(lat, order):
    qs = QSeries({}, order)
    for m, mod in lat.sectors.items():
        for key, g in mod.basis():
            if g.spin >= Fraction(order):
                continue
            f = ((LATTICE_FUG, m),) if m else ()
            qs.add_term(g.spin, f, -1 if g.tot else 1)
    return qs


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
    trimmed = QSeries({}, order, fug_window)
    for (s, f), c in out.terms.items():
        trimmed._put(s, f, c)
    return trimmed


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
def check_morphism(src, dst, gen_map, states=None, nrange=(-2, 3)):
    """The assignment intertwines every generator mode within the
    window: phi(g_(n) v) = phi(g)_(n) phi(v)."""
    states = states or default_samples(src)
    for v in states:
        pv = morphism_image(dst, gen_map, v)
        for gi in range(len(src.gens)):
            for n in range(nrange[0], nrange[1] + 1):
                lhs = morphism_image(dst, gen_map, src.act(gi, n, v))
                rhs = dst.field_mode(gen_map[gi], n, pv)
                yield (src.gens[gi].name, n, v), lhs, rhs
