"""Realization of generator/OPE presentations on PBW-type graded modules.

A state is a linear combination of ordered monomials in creation modes
applied to a cyclic vector (the vacuum by default), written as a vector
{pbwkey: coefficient} of the scalars layer (a plain int or Fraction, or
a Scalar while a parameter is left in) with pbwkey a sorted tuple of
(gen_index, n < 0).
Annihilation modes are commuted to the right with the four-case mode
bracket; modes of composite states are expanded with the recursive
normal-ordered-product mode formula.  Everything is exact: annihilation
sums terminate because the module has no states of negative spin, so no
truncation ever enters a computation -- the spin/word caps only bound
which states get enumerated or verified.

The second half of the file is the verification suite: vacuum and
translation axioms, skew-symmetry, mutual locality resolved into delta
kernels, the three-expansion form of associativity, properties of the
normal-ordered product, the descent-bracket identities, the splitting
into a commutative product plus a vertex-Lie tower, and the deformation
layer (odd square-zero differentials from a superpotential, ghost
systems, graded cohomology, the conformal check).  A check is a
generator of (witness, lhs, rhs) instances, judged by identity_check.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import product, zip_longest
from math import factorial, floor as _floor, lcm

from .scalars import (Scalar, Grading, binom, as_vector, canonical,
                      degrees_of, rational_of, sum_str, twist, vadd, vscale,
                      vsub, veq)
from .modes import (GeneratorInfo, FieldExpr, OpeTable, bracket_from_ope,
                    vac_induce)
from .series import (BiDist, combine_indices, delta_decompose, delta_expand,
                     mon_u_expand)
from .linalg import column_kernel, rank, rational_coords, solve


def _is_one(c):
    # a parameter-free coefficient is a plain rational
    return type(c) is int and c == 1


# ------------------------------------------------------------ presentation

class PresentationError(ValueError):
    """A presentation the module layer cannot realize: duplicate
    generator names, or a generator of negative spin."""


class Presentation:
    """Generators with gradings plus the table of singular products."""

    def __init__(self, name, gens, table):
        self.name = name
        self.gens = list(gens)
        self.table = table
        self.index = {g.name: i for i, g in enumerate(self.gens)}
        if len(self.index) != len(self.gens):
            names = [g.name for g in self.gens]
            dups = sorted({nm for nm in names if names.count(nm) > 1})
            raise PresentationError(
                "duplicate generator names: %s" % ", ".join(dups))

    def grading(self, name):
        return self.gens[self.index[name]].grading

    def tensor(self, other):
        """Juxtaposition with zero cross products; flavor axes of the two
        factors are kept separate."""
        pad = max([len(g.grading.flavor) for g in self.gens] + [0])
        gens = list(self.gens)
        for g in other.gens:
            gr = g.grading
            gens.append(GeneratorInfo(
                g.name, Grading(gr.cohdeg, gr.spin, gr.parity,
                                (0,) * pad + gr.flavor)))
        entries = dict(self.table.entries)
        entries.update(other.table.entries)
        return Presentation("%s(x)%s" % (self.name, other.name),
                            gens, OpeTable(entries))

    def extend(self, extra_gens, extra_entries, name=None):
        gens = list(self.gens) + list(extra_gens)
        entries = dict(self.table.entries)
        entries.update(extra_entries)
        return Presentation(name or self.name, gens, OpeTable(entries))


# ------------------------------------------------------------ the module

class PBWModule:
    """Vacuum-type module over a presentation.

    cyclic_rule(module, gi, n) -> state gives the action of annihilation
    modes on the cyclic vector (default: zero, i.e. the vacuum module).
    specialize substitutes central parameters (e.g. {"K": 1}) in every
    structure coefficient.
    """

    def __init__(self, pres, spin_cap=4, word_cap=4, flavor_window=None,
                 cyclic_rule=None, cyclic_grading=None, specialize=None):
        self.pres = pres
        self.gens = pres.gens
        self.index = pres.index
        self.spin_cap = spin_cap
        self.word_cap = word_cap
        self.flavor_window = flavor_window
        self.cyclic_rule = cyclic_rule
        self.cyclic_grading = cyclic_grading or Grading(0, 0, 0)
        self.specialize = specialize
        for g in self.gens:
            if g.grading.spin < 0:
                raise PresentationError(
                    "generator %s of negative spin %s"
                    % (g.name, g.grading.spin))
        self._basis = None
        self._cells = None     # grading -> basis keys of that cell
        self._images = {}      # grading -> (source keys, index, echelon)
        self._act_memo = {}
        self._mono_memo = {}
        self._kg_memo = {}
        self._key_memo = {}    # key -> _key_info(key)
        # spins scaled by their common denominator are ints: the mode
        # windows below take integer floors, not Fraction arithmetic
        self._spin_den = lcm(*(g.grading.spin.denominator
                               for g in self.gens))
        self._gen_spin = [int(g.grading.spin * self._spin_den)
                          for g in self.gens]

    def _spec(self, c):
        if self.specialize and type(c) is Scalar:
            return c.subs(self.specialize)
        return c

    # -- states ------------------------------------------------------

    def vacuum(self):
        return {(): 1}

    def gen_state(self, name):
        return {((self.index[name], -1),): 1}

    def key_grading(self, key):
        """Grading of a PBW key: the cyclic vector's plus, for each
        creation mode (gi, n < 0), its generator's cohdeg, parity and
        flavor and the spin s - n - 1.  The parts sum as ints (the spin
        scaled by _spin_den, from _key_info) into one Grading."""
        g = self._kg_memo.get(key)
        if g is None:
            cyc = self.cyclic_grading
            gs = [self.gens[gi].grading for gi, _ in key]
            g = self._kg_memo[key] = Grading(
                cyc.cohdeg + sum(x.cohdeg for x in gs),
                cyc.spin + Fraction(self._key_info(key)[1], self._spin_den),
                cyc.parity + sum(x.parity for x in gs),
                map(sum, zip_longest(cyc.flavor, *(x.flavor for x in gs),
                                     fillvalue=0)))
        return g

    def _key_info(self, key):
        """(parity, spin times _spin_den, 1/den or None) of a PBW key:
        the parity and the (int) scaled spin that its creation modes add
        to the cyclic vector's, and den = Π k! of the key read as a field
        monomial, whose factor (gi, n) is d^k g / k!, k = -n - 1."""
        info = self._key_memo.get(key)
        if info is None:
            p, s, den, D = 0, 0, 1, self._spin_den
            for gi, n in key:
                p += self.gens[gi].grading.tot
                s += self._gen_spin[gi] - (n + 1) * D
                den *= factorial(-n - 1)
            info = self._key_memo[key] = (
                p % 2, s, Fraction(1, den) if den > 1 else None)
        return info

    def state_grading(self, state):
        """Grading of a homogeneous state, scalar coefficients included
        (odd central parameters carry cohomological degree and parity);
        None for zero."""
        g = None
        for k, c in state.items():
            kg = self.key_grading(k)
            cd, cp = degrees_of(c)
            if cd or cp:
                kg = Grading(kg.cohdeg + cd, kg.spin, kg.parity + cp,
                             kg.flavor)
            if g is None:
                g = kg
            elif kg != g:
                raise ValueError("state not homogeneous: %s" % {g, kg})
        return g

    def state_spin(self, state):
        g = self.state_grading(state)
        return g.spin if g is not None else Fraction(0)

    def state_parity(self, state):
        g = self.state_grading(state)
        return g.tot if g is not None else 0

    def basis(self):
        if self._basis is None:
            self._basis = vac_induce(self.gens, self.spin_cap,
                                     self.word_cap, self.flavor_window)
        return self._basis

    # -- elementary mode action --------------------------------------

    def insert_mode(self, gi, n, key):
        """Left-apply the creation mode (gi, n<0) to a monomial; returns
        (sign, newkey) or None when an odd mode repeats."""
        p = self.gens[gi].grading.tot
        sign = 1
        pos = len(key)
        for i, (gj, nj) in enumerate(key):
            if (gj, nj) < (gi, n):
                if p and self.gens[gj].grading.tot:
                    sign = -sign
                continue
            pos = i
            break
        if pos < len(key) and key[pos] == (gi, n) and p:
            return None
        return sign, key[:pos] + ((gi, n),) + key[pos:]

    def act(self, name_or_gi, n, state):
        """Apply the mode g_(n) of a generator to a state."""
        gi = self.index[name_or_gi] if isinstance(name_or_gi, str) \
            else name_or_gi
        p = self.gens[gi].mode_parity(n)
        out = {}
        for key, c in state.items():
            vadd(out, self._act_key(gi, n, key), twist(c, p))
        return out

    def _act_key(self, gi, n, key):
        memo = self._act_memo
        mk = (gi, n, key)
        if mk in memo:
            return memo[mk]
        out = {}
        if n < 0:
            ins = self.insert_mode(gi, n, key)
            if ins is not None:
                sign, nk = ins
                out[nk] = sign
        else:
            # no states below the cyclic spin
            if self._key_info(key)[1] + self._gen_spin[gi] < \
                    (n + 1) * self._spin_den:
                memo[mk] = {}
                return {}
            if not key:
                if self.cyclic_rule is not None:
                    out = self.cyclic_rule(self, gi, n)
            else:
                hgi, hn = key[0]
                rest = key[1:]
                rest_state = {rest: 1}
                # commutator against the head mode
                for coeff, expr, t in bracket_from_ope(
                        self.gens[gi], n, self.gens[hgi], hn,
                        self.pres.table):
                    vadd(out, self.expr_mode(expr, t, rest_state),
                         self._spec(coeff))
                # then pass the annihilation mode through the head
                ks = -1 if (self.gens[gi].mode_parity(n)
                            and self.gens[hgi].mode_parity(hn)) else 1
                ph = self.gens[hgi].mode_parity(hn)
                passed = self._act_key(gi, n, rest)
                for k2, c2 in passed.items():
                    ins = self.insert_mode(hgi, hn, k2)
                    if ins is not None:
                        sign, nk = ins
                        vadd(out, {nk: twist(c2, ph)}, ks * sign)
        memo[mk] = out
        return out

    # -- composite fields --------------------------------------------

    def expr_mode(self, expr, t, state):
        """Mode t of a FieldExpr (normal-ordered monomials in derivatives
        of generators) applied to a state.  Scalar coefficients pass the
        odd singular-tower symbols with a Koszul sign, so odd parameters
        flip on the annihilation modes.  Each factor (name, k) becomes
        the creation mode (gi, -k - 1), in the monomial's order."""
        tw = 1 if t >= 0 else 0
        index = self.index
        out = {}
        for mono, c in expr.terms.items():
            key = tuple((index[nm], -k - 1) for nm, k in mono)
            vadd(out, self.mono_mode(key, t, state),
                 twist(self._spec(c), tw))
        return out

    def mono_mode(self, mono, t, state):
        """Mode t of the normal-ordered monomial mono, applied to a state:
        a factor (gi, n < 0) of mono is the derivative d^k g, k = -n - 1
        (as a field, not over k!)."""
        p = self._key_info(mono)[0] ^ (t >= 0)
        out = {}
        for key, c in state.items():
            vadd(out, self._mono_key(mono, t, key), twist(c, p))
        return out

    def _deriv_mode(self, fac, n, state):
        """(d^k g)_(n) = (-1)^k k! C(n, k) g_(n-k) applied to a state, for
        the factor fac = (gi, -k - 1)."""
        gi, m = fac
        k = -m - 1
        coeff = (-1) ** k * factorial(k) * binom(n, k)
        if coeff == 0:
            return {}
        return vscale(self.act(gi, n - k, state), coeff)

    def _mono_key(self, mono, t, vkey):
        memo = self._mono_memo
        mk = (mono, t, vkey)
        if mk in memo:
            return memo[mk]
        out = {}
        if not mono:
            if t == -1:
                out = {vkey: 1}
            memo[mk] = out
            return out
        fac, rest = mono[0], mono[1:]
        vstate = {vkey: 1}
        if not rest:
            out = self._deriv_mode(fac, t, vstate)
            memo[mk] = out
            return out
        pa, sa, _ = self._key_info(mono[:1])
        pb, sb, _ = self._key_info(rest)
        # with spins scaled by D to ints, ceil(t - vspin - s) is
        # -((D vspin - D t + D s) // D)
        D = self._spin_den
        vs = self._key_info(vkey)[1] - D * t
        if t < 0:
            # both factors in creation modes; finitely many terms
            for n in range(t, 0):
                inner = self._mono_key(rest, t - n - 1, vkey)
                if inner:
                    vadd(out, self._deriv_mode(fac, n, inner))
        else:
            # sum_{n<0} A_n B_{t-n-1}: B annihilates deep enough
            s1 = (-1) ** pa
            for n in range(-((vs + sb) // D), 0):
                inner = self._mono_key(rest, t - n - 1, vkey)
                if inner:
                    vadd(out, self._deriv_mode(fac, n, inner), s1)
            # sum_{n<0} B_n A_{t-n-1}: A annihilates deep enough
            s2 = (-1) ** ((pa + 1) * pb)
            for n in range(-((vs + sa) // D), 0):
                av = self._deriv_mode(fac, t - n - 1, vstate)
                if av:
                    vadd(out, self.mono_mode(rest, n, av), s2)
        memo[mk] = out
        return out

    def field_mode(self, astate, t, vstate):
        """Mode t of the field of an arbitrary state, applied to vstate.
        As in expr_mode, the state's scalar coefficients pass the odd
        singular-tower symbols with a Koszul sign, so their odd-parameter
        part flips on the annihilation modes.  One pass over (akey, vkey)
        pairs: each term is (ca * cv) * _mono_key of the akey, with ca the
        twisted akey coefficient over Π k! and cv the twisted vstate one."""
        tw = 1 if t >= 0 else 0
        out = {}
        if not vstate:
            return out
        for akey, ca in astate.items():
            p, _, inv_den = self._key_info(akey)
            ca = twist(ca, tw)
            if inv_den is not None:
                ca = canonical(ca * inv_den)
            p ^= tw
            a_one = _is_one(ca)
            for vkey, cv in vstate.items():
                if p:
                    cv = twist(cv, 1)
                # ca stays on the left: odd parameters anticommute
                c = cv if a_one else ca if _is_one(cv) else ca * cv
                vadd(out, self._mono_key(akey, t, vkey), c)
        return out

    # -- derived operations ------------------------------------------

    def translate(self, state):
        """The translation operator: the derivation (g, n) -> -n (g, n-1)
        on creation monomials, zero on the cyclic vector."""
        out = {}
        for key, c in state.items():
            for i, (gi, n) in enumerate(key):
                p = self.gens[gi].grading.tot
                s = 1
                if p:
                    for gj, _ in key[:i]:
                        if self.gens[gj].grading.tot:
                            s = -s
                ins = self.insert_mode(gi, n - 1, key[:i] + key[i + 1:])
                if ins is None:
                    continue
                s2, nk = ins
                vadd(out, {nk: c}, -n * s * s2)
        return out

    def nop(self, a, b):
        """Normal-ordered product of states: a_(-1) b."""
        return self.field_mode(a, -1, b)

    def ope_singular(self, a, b):
        """{n >= 0: a_(n) b} (nonzero entries only)."""
        return dict(_modes(self, a, b, 0))

    def expr_to_state(self, expr):
        """The state expr|0> of a FieldExpr: its mode -1 on the vacuum."""
        return self.expr_mode(expr, -1, self.vacuum())

    def state_str(self, state):
        keys = sorted(state, key=lambda k: (len(k), k))
        return sum_str(
            (state[key], "".join("%s_(%d)" % (self.gens[gi].name, n)
                                 for gi, n in key) + "|0>")
            for key in keys)


# ================================================================ checks
#
# A check is a generator of (witness, lhs, rhs) instances; identity_check
# turns it into a function returning (ok, witness).  Every check reads the
# products of its states from one index-keyed table (_Products), which
# verify_axioms builds once per run and passes to each check: no check
# recomputes a product, the descent-jacobi row, an operator order or a
# triple's derivation record (grown lazily in n, no instance kept) that
# an earlier check of the run computed.


def identity_check(instances):
    """Decorator: the check over the instances a generator function
    yields.  It returns (True, None) when every lhs equals its rhs, else
    (False, witness) for the first instance that differs, each state (a
    dict) in the witness tuple printed by the first argument's state_str."""
    @wraps(instances)
    def check(mod, *args, **kwargs):
        for wit, lhs, rhs in instances(mod, *args, **kwargs):
            if not veq(lhs, rhs):
                return False, tuple(mod.state_str(x) if isinstance(x, dict)
                                    else x for x in wit)
        return True, None
    return check


class _Products:
    """The products of a suite run's states, keyed by state index and
    computed on first use: the states xs (the samples first, then the
    vacuum and pair states that index() adds), their parities, spins
    times mod._spin_den and translates d^k x, the products
    (d^k x_i)_(n) x_j, a record [next n, first failing n or None] per
    derivation triple (ia, ib, ic) but no instance, the descent-jacobi
    row (ok, witness) once check_descent_jacobi has computed it, and the
    raw operator-order products y_(j) x_(i) v of the pair checks.
    Callers must not mutate what it returns.

    Lifetime and plumbing:
    - A table lives for one verify_axioms call (or one check called
      alone) and is freed when it returns.  It is never a module-level
      cache, which a process running many suites would keep filled
      across runs, nor an attribute of mod, which would keep it alive
      through a reference cycle.
    - Keys hold indices, not states: hashing whole states costs more
      than the products it saves.
    - Entries are only added, never deleted (no del or pop on vectors).
    - Every product goes through mod.field_mode, so a wrapped or
      overridden field_mode sees each call; an instance skips the
      products of a zero state, which are zero.
    - It adds nothing to set: no option, environment variable or
      parameter.  A check reads it in place of its states, a pair check
      in place of mod."""

    def __init__(self, mod, states):
        self.mod = mod
        self.n = len(states)
        self.xs, self.par, self.spin, self._ders = [], [], [], []
        self._mode = {}   # (i, k, n, j) -> (d^k x_i)_(n) x_j
        self._derivation = {}  # (ia, ib, ic) -> [next n, failing n]
        self.jacobi_row = None
        self._raw = {}    # (ix, iy, iv) -> (lo, {(i, j, key): c})
        for x in states:
            self._add(x)
        self.vac = self.index(mod.vacuum())

    def _add(self, x):
        g = self.mod.state_grading(x) or Grading()  # zero: even, spin 0
        self.xs.append(x)
        self.par.append(g.tot)
        self.spin.append(int(g.spin * self.mod._spin_den))
        self._ders.append([x])
        return len(self.xs) - 1

    def index(self, x):
        """The index of the first state equal to x, x added if none is."""
        for i, y in enumerate(self.xs):
            if y is x or y == x:
                return i
        return self._add(x)

    def der(self, i, k):
        """d^k x_i."""
        ders = self._ders[i]
        while len(ders) <= k:
            ders.append(self.mod.translate(ders[-1]))
        return ders[k]

    def mode(self, i, n, j, k=0):
        """(d^k x_i)_(n) x_j."""
        key = (i, k, n, j)
        out = self._mode.get(key)
        if out is None:
            out = self._mode[key] = self.mod.field_mode(self.der(i, k), n,
                                                        self.xs[j])
        return out

    def derivation(self, n, ia, ib, ic):
        """(lhs, rhs) of a_(n)(b_(-1)c) = (a_(n)b)_(-1)c
        + (-1)^((|a|+1)|b|) b_(-1)(a_(n)c), computed on each call."""
        mode, nop, xs, par = self.mode, self.mod.nop, self.xs, self.par
        bc, ab, ac = mode(ib, -1, ic), mode(ia, n, ib), mode(ia, n, ic)
        lhs = self.mod.field_mode(xs[ia], n, bc) if bc else {}
        rhs = nop(ab, xs[ic]) if ab else {}
        if ac:
            vadd(rhs, nop(xs[ib], ac), (-1) ** ((par[ia] + 1) * par[ib]))
        return lhs, rhs

    def derivation_failure(self, ia, ib, ic, hi):
        """The first n <= hi whose instance fails, or None; the record
        grows in increasing n and stops at the triple's first failure."""
        rec = self._derivation.setdefault((ia, ib, ic), [0, None])
        while rec[1] is None and rec[0] <= hi:
            if not veq(*self.derivation(rec[0], ia, ib, ic)):
                rec[1] = rec[0]
            rec[0] += 1
        return rec[1] if rec[1] is not None and rec[1] <= hi else None

    def raw(self, ix, iy, iv, lo):
        """{(i, j, key): c} of y_(j) x_(i) v for i, j from lo up, computed
        once per (x, y, v) at the deepest lo asked for, so it may start
        below lo: the pair checks compare only inside their window."""
        got = self._raw.get((ix, iy, iv))
        if got is None or got[0] > lo:
            mod, y, out = self.mod, self.xs[iy], {}
            for i, xv in _modes(mod, self.xs[ix], self.xs[iv], lo):
                for j, yxv in _modes(mod, y, xv, lo):
                    for k, c in yxv.items():
                        out[i, j, k] = c
            got = self._raw[ix, iy, iv] = (lo, out)
        return got[1]


def _products(mod, states):
    """The table a check reads: the run's, when verify_axioms passes it
    as the states, else a fresh one over states (default samples)."""
    if isinstance(states, _Products):
        return states
    return _Products(mod, states or default_samples(mod))


def default_samples(mod, max_word=2):
    """Generator states plus a few composites for spot checks."""
    out = [mod.vacuum()]
    gens = [mod.gen_state(g.name) for g in mod.gens]
    out.extend(gens)
    if max_word >= 2:
        for i, a in enumerate(gens):
            for b in gens[i:]:
                v = mod.nop(a, b)
                if v:
                    out.append(v)
        for a in gens:
            out.append(mod.translate(a))
    return [s for s in out if s]


@identity_check
def check_vacuum_axiom(mod, states):
    P = _products(mod, states)
    xs, vac = P.xs, P.vac
    yield ("translate-vacuum",), mod.translate(xs[vac]), {}
    for i in range(P.n):
        for t in range(0, 5):
            yield ("creation", t, xs[i]), P.mode(i, t, vac), {}
        yield ("state-field", xs[i]), P.mode(i, -1, vac), xs[i]
        yield (("first-derivative", xs[i]), P.mode(i, -2, vac),
               P.der(i, 1))
    for j, t in product(range(P.n), range(-3, 5)):
        yield (("identity-field", t), P.mode(vac, t, j),
               xs[j] if t == -1 else {})


@identity_check
def check_translation_axiom(mod, states):
    P = _products(mod, states)
    for i, j, t in product(range(P.n), range(P.n), range(-3, 4)):
        lhs = vsub(mod.translate(P.mode(i, t, j)),
                   mod.field_mode(P.xs[i], t, P.der(j, 1)))
        yield (t, P.xs[i], P.xs[j]), lhs, P.mode(i, t, j, 1)


@identity_check
def check_skew(mod, states):
    """a_(n) b = (-1)^(|a||b|) sum_l (s/l!) d^l (b_(n+l) a).  Plain powers
    and the singular tower never mix under translation, so for n < 0 only
    l < -n contributes with s = (-1)^(n+l+1) (power-flip sign), while for
    n >= 0 all l contribute with s = (-1)^(n+l) (tower-label sign)."""
    P = _products(mod, states)
    for ia, ib in product(range(P.n), repeat=2):
        kos = (-1) ** (P.par[ia] * P.par[ib])
        nmax = (P.spin[ia] + P.spin[ib]) // mod._spin_den
        for n in range(-2, nmax + 1):
            rhs = {}
            for l in range(0, -n) if n < 0 else range(0, nmax - n + 2):
                term = P.mode(ib, n + l, ia)
                for _ in range(l):
                    term = mod.translate(term)
                e = n + l + (1 if n < 0 else 0)
                vadd(rhs, term, Fraction(kos * (-1) ** (e % 2), factorial(l)))
            yield (n, P.xs[ia], P.xs[ib]), P.mode(ia, n, ib), rhs


@identity_check
def check_nop_commutative(mod, states):
    P = _products(mod, states)
    for ia, ib in product(range(P.n), repeat=2):
        yield ((P.xs[ia], P.xs[ib]), P.mode(ia, -1, ib),
               vscale(P.mode(ib, -1, ia), (-1) ** (P.par[ia] * P.par[ib])))


@identity_check
def check_nop_associative(mod, states):
    P = _products(mod, states)
    xs = P.xs
    for ia, ib, ic in product(range(P.n), repeat=3):
        yield ((xs[ia], xs[ib], xs[ic]), mod.nop(xs[ia], P.mode(ib, -1, ic)),
               mod.nop(P.mode(ia, -1, ib), xs[ic]))


def check_descent_derivation(mod, states, nmax=None):
    """a_(n), 0 <= n <= nmax (default the triple's spin sum), is a signed
    derivation of the normal-ordered product; the witness (n, a, b, c) is
    the first triple, in product order, failing within the bound."""
    P = _products(mod, states)
    for t in product(range(P.n), repeat=3):
        hi = nmax if nmax is not None else \
            sum(P.spin[i] for i in t) // mod._spin_den
        n = P.derivation_failure(*t, hi)
        if n is not None:
            return False, (n,) + tuple(mod.state_str(P.xs[i]) for i in t)
    return True, None


# the annihilation modes n, m <= JACOBI_NMAX that the Jacobi identity
# and the vertex-Lie half of the Poisson split compare
JACOBI_NMAX = 3


@identity_check
def _jacobi_walk(mod, states):
    """The descent-jacobi instances ((n, m, a, b, c), lhs, rhs) of
    [a_(n), b_(m)] c = (-1)^(|a|+1) sum_l C(n,l) (a_(l)b)_(m+n-l) c, the
    commutator's second term moved right, for n, m in 0..JACOBI_NMAX."""
    P = _products(mod, states)
    xs, mode, fm = P.xs, P.mode, mod.field_mode
    for ia, ib, ic in product(range(P.n), repeat=3):
        pa, pb = P.par[ia], P.par[ib]
        tower = {}  # (l, k) -> (a_(l)b)_(k) c, shared by m + n - l = k
        for n, m in product(range(JACOBI_NMAX + 1), repeat=2):
            bc, ac = mode(ib, m, ic), mode(ia, n, ic)
            lhs = fm(xs[ia], n, bc) if bc else {}
            rhs = vscale(fm(xs[ib], m, ac), (-1) ** ((pa + 1) * (pb + 1))) \
                if ac else {}
            for l in range(0, n + 1):
                k = m + n - l
                t = tower.get((l, k))
                if t is None:
                    ab = mode(ia, l, ib)
                    t = tower[l, k] = fm(ab, k, xs[ic]) if ab else {}
                if t:
                    vadd(rhs, t, (-1) ** (pa + 1) * binom(n, l))
            yield (n, m, xs[ia], xs[ib], xs[ic]), lhs, rhs


def check_descent_jacobi(mod, states):
    """{{a,{{b,c}}^(m)}}^(n) = (-1)^(|a|+1) sum_l C(n,l)
    {{{{a,b}}^(l),c}}^(m+n-l) + (-1)^((|a|+1)(|b|+1)) {{b,{{a,c}}^(n)}}^(m),
    all brackets being the annihilation-mode products, for n, m up to
    JACOBI_NMAX.  The row is computed once per table: a second call, as
    from the lie half of poisson-split, reads it."""
    P = _products(mod, states)
    if P.jacobi_row is None:
        P.jacobi_row = _jacobi_walk(mod, P)
    return P.jacobi_row


def check_zero_mode_derivation(mod, states):
    return check_descent_derivation(mod, states, nmax=0)


# ------------------------------------------------- bivariate machinery
#
# A state-valued bivariate distribution is one flat vector
# {(m, l, pbwkey): coefficient}: entry (m, l, key) is the coefficient of
# key in the operator coefficient of mon_z(m) mon_w(l), in the canonical
# z-then-w monomial order (indices as in series.py).  Sums, differences
# and scalings are vadd/vsub/vscale, and _put places a state at (m, l).
# The expansion rules the distributions meet are the Delta_+/- halves
# (series.delta_expand): re-expanded near w = 0 and near z = 0, the
# Omega_{z-w} tower is Delta_- and -Delta_+ (series.mon_u_expand).
# series is their one source; this file only applies them (_expansion).


def _put(F, m, l, state, coeff=None):
    """F += coeff * state at (m, l)."""
    vadd(F, {(m, l, k): c for k, c in state.items()}, coeff)


def _modes(mod, x, v, lo):
    """(l, x_(l) v) for l from lo up to the last mode that can act without
    killing v, zero states skipped; nothing for x = 0."""
    if not x:
        return
    for l in range(lo, _floor(mod.state_spin(x) + mod.state_spin(v))):
        st = mod.field_mode(x, l, v)
        if st:
            yield l, st


def _operator_orders(P, ia, ib, iv, lo):
    """(A(z)B(w)v, (-1)^(|a||b|) B(w)A(z)v) in the canonical order, for
    mode indices from lo up (or deeper, see _Products.raw), read from the
    raw products of the table P.
    With X_i acting first and Y_j second, entry (m, l) is Y_j X_i v times
    (-1)^([i>=0] p): p is the mode parity |Y| + [j>=0] for A(z)B(w), and
    |Y| for B(w)A(z), whose tower sign (-1)^([i>=0][j>=0]) cancels the
    mode's shift."""
    pa, pb = P.par[ia], P.par[ib]
    fab = {(j, i, k): -c if (i >= 0) * (pa + (j >= 0)) % 2 else c
           for (i, j, k), c in P.raw(ib, ia, iv, lo).items()}
    fba = {(i, j, k): -c if pb * (pa + (i >= 0)) % 2 else c
           for (i, j, k), c in P.raw(ia, ib, iv, lo).items()}
    return fab, fba


def _pair_products(mod, a, b, v):
    """(P, ia, ib, iv): the table a pair check reads, the run's when
    verify_axioms passes it as mod, else a fresh one, with the indices
    of a, b and v in it."""
    P = mod if isinstance(mod, _Products) else _Products(mod, [])
    return P, P.index(a), P.index(b), P.index(v)


class PairWindow(namedtuple("PairWindow", "lo pol N T dminus L amax tdepth")):
    """The truncations of a pair check; (m, l) in w tests the window."""
    def __contains__(self, ml):
        return self.lo <= min(ml) and max(ml) <= self.pol


def _pair_window(mod, a, b, v, tay):
    """Every truncation of a pair check of a and b on v.  Rows compare
    (m, l) in lo <= m, l <= pol; N is the top singular index.  Locality
    takes modes from -(T + 1), decomposes in the Taylor window T and
    expands Delta_+ to depth T, Delta_- to dminus (enough for any v).
    Associativity sums t >= -tdepth over modes from -(L + 1), re-expanded
    to depth amax: on the cyclic vector every mode is < 0, so an entry
    reaches the window only through Taylor powers <= tay, of mon_u(t),
    u = z-w (so -t - 1 <= 2 tay), of the re-expansion, and of mon_w(l)
    against Omega^(t+a)_w, a <= tay (so l >= -(N + tay + 1))."""
    sa, sb = mod.state_spin(a), mod.state_spin(b)
    N = max(_floor(sa + sb - 1), 0)
    pol = _floor(mod.state_spin(v) + sa + sb) + N + 2
    T = tay + N + 2
    return PairWindow(lo=-(tay + 1), pol=pol, N=N, T=T, dminus=T + pol + 1,
                      L=N + tay, amax=tay, tdepth=2 * tay + 1)


def _eq_within(F1, F2, w):
    """(True, None) when F1 and F2 agree at every (m, l) of the window w,
    else (False, (m, l)) for the least differing (m, l)."""
    bad = [(m, l) for m, l, _ in vsub(F1, F2) if (m, l) in w]
    return (False, min(bad)) if bad else (True, None)


@lru_cache(maxsize=None)
def _expansion(kind, t, trunc):
    """The index map series derives for one index t, as (m, j, c) with c
    rational: the Delta_-/Delta_+ half of order t ("minus"/"plus"), or
    mon_u(t), u = z-w, re-expanded near w = 0 or z = 0 ("w_near_0"/
    "z_near_0").  The maps are ring maps, so a w monomial mon_w(l)
    multiplies through (_apply_expansion) and one memo entry per index
    serves every l."""
    b = (delta_expand(kind, t, trunc) if kind in ("minus", "plus")
         else mon_u_expand(kind, t, trunc))
    return tuple((m, j, rational_of(c)) for (m, j), c in b.terms.items())


def _apply_expansion(F, expansion, l, st, w):
    """F += expansion * mon_w(l) * st at the entries inside the window w."""
    for m, j, c in expansion:
        lw = combine_indices(j, l)
        if lw is not None and (m, lw) in w:
            _put(F, m, lw, st, c)


def _delta_failure(comm, cmodes, w):
    """None when at each pbw key the commutator comm, {(m, l, key): c},
    decomposes as sum_n d_w^n Delta(z-w) g^(n)(w) with n! g^(n) the modes
    cmodes of the n-th singular product, else the failure at the least
    key of either vector: its decomposition failure, or else the least
    (n, l') where n! g^(n) and cmodes differ."""
    glist, failures = delta_decompose(BiDist(comm, w.T, w.T), w.N)
    got = {}
    for n, g in enumerate(glist):
        vadd(got, {(n,) + k: c for k, c in g.items()
                   if w.lo <= k[0] <= w.pol}, factorial(n))
    first = {kappa: ("decompose", kappa, fail)
             for (kappa,), fail in failures.items()}
    for n, lp, kappa in sorted(vsub(got, {k: c for k, c in cmodes.items()
                                          if w.lo <= k[1] <= w.pol})):
        first.setdefault(kappa, ("coefficient", kappa, n, lp))
    return first[min(first)] if first else None


def check_locality(mod, a, b, v, tay):
    """Mutual locality of the fields of a and b witnessed on v: the
    commutator is delta-supported with coefficients the singular
    products, and both operator orders differ from the normal-ordered
    bivariate product by the corresponding delta half.

    Returns a list of (condition_name, ok, witness).
    """
    P, ia, ib, iv = _pair_products(mod, a, b, v)
    mod = P.mod
    w = _pair_window(mod, a, b, v, tay)
    # cmodes holds the modes (a_(n)b)_(l') v of the singular products
    cmodes, dminus, dplus = {}, {}, {}
    for n in range(w.N + 1):
        for lp, st in _modes(mod, P.mode(ia, n, ib), v, -(w.T + 1)):
            _put(cmodes, n, lp, st)
            _apply_expansion(dminus, _expansion("minus", n, w.dminus), lp,
                             st, w)
            _apply_expansion(dplus, _expansion("plus", n, w.T), lp, st, w)

    fab, kfba = _operator_orders(P, ia, ib, iv, -(w.T + 1))
    # :A(z)B(w):v takes the creation part of A (m < 0) from A(z)B(w)v and
    # the annihilation part (m >= 0) from B(w)A(z)v, re-signed by
    # (-1)^(|a|+1) where l >= 0
    nop = {k: c for k, c in fab.items() if k[0] < 0}
    for wpos, sign in ((False, 1), (True, (-1) ** (mod.state_parity(a) + 1))):
        vadd(nop, {k: c for k, c in kfba.items()
                   if k[0] >= 0 and (k[1] >= 0) == wpos}, sign)

    wit = _delta_failure(vsub(fab, kfba), cmodes, w)
    return [
        ("order-ab",) + _eq_within(vsub(fab, nop), dminus, w),
        ("order-ba",) + _eq_within(vsub(kfba, nop), vscale(dplus, -1), w),
        ("commutator-delta", wit is None, wit)]


def check_associativity(mod, a, b, v, tay=2):
    """Three-expansion compatibility: the singular-plus-regular products
    of a and b, re-expanded near w = 0 and z = 0, reproduce the two
    operator orders on v.

    Only meaningful for v the cyclic vector: against a general state the
    region re-expansion is not termwise finite, and only matrix elements
    converge.  check_composite_fields covers general states instead."""
    P, ia, ib, iv = _pair_products(mod, a, b, v)
    mod = P.mod
    w = _pair_window(mod, a, b, v, tay)
    # sum_t mon_u(t) (a_(t)b)(w) v, u = z-w, re-expanded in each region
    H1, H2 = {}, {}
    for t in range(-w.tdepth, w.N + 1):
        for l, st in _modes(mod, P.mode(ia, t, ib), v, -(w.L + 1)):
            _apply_expansion(H1, _expansion("w_near_0", t, w.amax), l, st, w)
            _apply_expansion(H2, _expansion("z_near_0", t, w.amax), l, st, w)

    fab, fba = _operator_orders(P, ia, ib, iv, w.lo)
    return [("expand-w-near-0",) + _eq_within(H1, fab, w),
            ("expand-z-near-0",) + _eq_within(H2, fba, w)]


@identity_check
def check_composite_fields(mod, states=None):
    """Fields of product states agree with the two-block normal-ordered
    mode sums of the factor fields.

    k! a_(-k-1)b is the product of the k-th derivative field of a with
    the field of b, so its modes must match the explicit sums over modes
    of the two factors, for k = 0, 1, 2 and modes t = -3, ..., 2.  This
    carries the general-state content of associativity: the
    coefficientwise three-expansion comparison (see check_associativity)
    only converges against the cyclic vector."""
    P = _products(mod, states)
    xs, spin, D = P.xs, P.spin, mod._spin_den
    for ia, ib, k in product(range(P.n), range(P.n), range(3)):
        a, b, pa, pb = xs[ia], xs[ib], P.par[ia], P.par[ib]
        da = P.der(ia, k)
        sa = spin[ia] + k * D if da else 0
        comp = P.mode(ia, -k - 1, ib)
        for iv, t in product(range(P.n), range(-3, 3)):
            lhs = vscale(mod.field_mode(comp, t, xs[iv]), factorial(k))
            rhs = {}
            if t < 0:
                # both factors in creation modes
                for n in range(t, 0):
                    inner = P.mode(ib, t - n - 1, iv)
                    if inner:
                        vadd(rhs, mod.field_mode(da, n, inner))
            else:
                # ceil(t - vspin - s), spins scaled by D to ints
                vs = spin[iv] - D * t
                for n in range(-((vs + spin[ib]) // D), 0):
                    inner = P.mode(ib, t - n - 1, iv)
                    if inner:
                        vadd(rhs, mod.field_mode(da, n, inner), (-1) ** pa)
                for n in range(-((vs + sa) // D), 0):
                    av = P.mode(ia, t - n - 1, iv, k)
                    if av:
                        vadd(rhs, mod.field_mode(b, n, av),
                             (-1) ** ((pa + 1) * pb))
            yield (k, t, a, b, xs[iv]), lhs, rhs


@identity_check
def check_commutative_half(mod, states, tay=3):
    """The creation halves of all fields graded-commute."""
    P = _products(mod, states)
    xs, modes = P.xs, range(-(tay + 1), 0)
    for ia, ib, iv, m, l in product(*[range(P.n)] * 3, modes, modes):
        lhs = mod.field_mode(xs[ia], m, P.mode(ib, l, iv))
        rhs = mod.field_mode(xs[ib], l, P.mode(ia, m, iv))
        yield ((m, l, xs[ia], xs[ib]), lhs,
               vscale(rhs, (-1) ** (P.par[ia] * P.par[ib])))


@identity_check
def _lie_translation(mod, states):
    """(da)_(m) = -m a_(m-1) for 0 <= m <= JACOBI_NMAX."""
    P = _products(mod, states)
    for i, j, m in product(range(P.n), range(P.n),
                           range(JACOBI_NMAX + 1)):
        yield (("translation", m, P.xs[i]), P.mode(i, m, j, 1),
               vscale(P.mode(i, m - 1, j), -m))


def check_lie_half(mod, states):
    """The annihilation halves form a vertex-Lie tower: translation
    compatibility, then the commutation rule of annihilation modes up to
    JACOBI_NMAX, which is the descent-jacobi row, read from the table.
    Skew-symmetry of the tower is the skew-symmetry row's identity."""
    P = _products(mod, states)
    ok, wit = _lie_translation(mod, P)
    if ok:
        ok, wit = check_descent_jacobi(mod, P)
        if not ok:
            wit = ("commutator",) + wit[:4]
    return ok, wit


def check_poisson_split(mod, states=None, tay=3):
    """Commutative creation half + vertex-Lie annihilation half, with the
    annihilation modes acting as derivations of the product.  The halves
    read one table, so with modes up to JACOBI_NMAX the commutator rows
    are the descent-jacobi row and the derivation row reads the
    per-triple records descent-derivation extends."""
    P = _products(mod, states)
    for label, check, args in (
            ("commutative-half", check_commutative_half, (tay,)),
            ("lie-half", check_lie_half, ()),
            ("derivation", check_descent_derivation, (JACOBI_NMAX,))):
        ok, wit = check(mod, P, *args)
        if not ok:
            return False, (label,) + wit
    return True, None


# The suite in row order: identity, its check's name here (looked up at
# run time, so a wrapper put in this namespace sees every call), and
# whether the check takes the sample states, them and the Taylor order,
# or each pair of generator states against the vacuum.
_SUITE = (
    ("vacuum", "check_vacuum_axiom", "states"),
    ("translation", "check_translation_axiom", "states"),
    ("skew-symmetry", "check_skew", "states"),
    ("product-commutative", "check_nop_commutative", "states"),
    ("product-associative", "check_nop_associative", "states"),
    ("zero-mode-derivation", "check_zero_mode_derivation", "states"),
    ("descent-derivation", "check_descent_derivation", "states"),
    ("descent-jacobi", "check_descent_jacobi", "states"),
    ("composite-fields", "check_composite_fields", "states"),
    ("locality", "check_locality", "pairs"),
    ("associativity", "check_associativity", "pairs"),
    ("poisson-split", "check_poisson_split", "tay"),
)

IDENTITIES = tuple(name for name, _, _ in _SUITE)


def selected_identities(checks):
    """The identities a suite run computes; ValueError for a name outside
    IDENTITIES."""
    if checks is None:
        return IDENTITIES
    unknown = set(checks) - set(IDENTITIES)
    if unknown:
        raise ValueError("unknown checks: %s" % ", ".join(
            sorted(name or repr(name) for name in unknown)))
    return checks


def verify_axioms(mod, states=None, tay=2, deep_states=None, checks=None):
    """Run the suite, or only the IDENTITIES named in checks, in suite
    order; returns a list of (name, ok, witness).  A failed locality or
    associativity condition is reported as a "locality/<cond>" or
    "associativity/<cond>" row in place of the passing row.

    The checks share one product table (_Products) built here: a check
    that takes the states gets it in their place, a pair check in place
    of mod, and every row is the row the check gives alone."""
    checks = selected_identities(checks)
    states = states or default_samples(mod)
    pairs = deep_states or [s for s in states if len(s) == 1
                            and list(s)[0] and len(list(s)[0]) == 1]
    P = _Products(mod, states)
    out = []
    for name, fn_name, form in _SUITE:
        if name not in checks:
            continue
        fn = globals()[fn_name]
        if form != "pairs":
            ok, wit = fn(mod, P, tay=tay) if form == "tay" else fn(mod, P)
            out.append((name, ok, wit))
            continue
        failed = []
        for a in pairs:
            for b in pairs:
                for cond, ok, wit in fn(P, a, b, P.xs[P.vac], tay=tay):
                    if not ok:
                        failed.append(
                            (name + "/" + cond, False,
                             (mod.state_str(a), mod.state_str(b), wit)))
        out.extend(failed or [(name, True, None)])
    return out


# ------------------------------------------------------ linear algebra

def cell_basis(mod, grading):
    """Basis monomials of one (cohdeg, spin, parity, flavor) cell, in
    basis order, read from an index the module builds once."""
    if mod._cells is None:
        mod._cells = {}
        for k, g in mod.basis():
            mod._cells.setdefault(g, []).append(k)
    return list(mod._cells.get(grading, ()))


def state_coords(state, keys):
    """Dense rational coordinates of a state over the listed keys;
    CoordinateError if a coefficient is not rational or a key is not
    listed."""
    coords = rational_coords(state, {k: i for i, k in enumerate(keys)})
    return [coords.get(i, Fraction(0)) for i in range(len(keys))]


def in_translation_image(mod, state):
    """Is the state a total derivative?  Returns (ok, primitive_or_None).

    The first question about a cell eliminates T of every key of the
    cell one spin below it, and the module keeps (source keys, index of
    the cell, echelon) under the cell's grading; every later question
    about the cell is one reduction.  A question that raises
    CoordinateError stores nothing."""
    if not state:
        return True, {}
    g = mod.state_grading(state)
    cell = mod._images.get(g)
    if cell is None:
        skeys = cell_basis(mod, Grading(g.cohdeg, g.spin - 1, g.parity,
                                        g.flavor))
        if not skeys:
            return False, None
        index = {k: i for i, k in enumerate(cell_basis(mod, g))}
        cols = [rational_coords(mod.translate({k: 1}), index)
                for k in skeys]
        cell = skeys, index, column_kernel(cols)[0]
    skeys, index, ech = cell
    x = solve(ech, rational_coords(state, index))
    mod._images[g] = cell  # stored once the target has coordinates
    if x is None:
        return False, None
    return True, as_vector({skeys[j]: q for j, q in x.items()})


# ------------------------------------------------------ deformations

def superpotential_check(mod, w):
    """Conditions for a state to define an odd square-zero differential
    via its annihilation zero mode: gradings, and the self-bracket being
    a total derivative."""
    g = mod.state_grading(w)
    ww = mod.field_mode(w, 0, w)
    ok, prim = in_translation_image(mod, ww)
    return {"grading": (g is not None and g.cohdeg == 2 and g.spin == 1
                        and g.tot == 0),
            "self-bracket-exact": ok, "self-bracket": ww, "primitive": prim}


def differential_map(mod, w):
    """v -> w_(0) v for a homogeneous state w, by the derivation rule
    [w_(0), x_(n)] = (w_(0)x)_(n) (Borcherds' commutator formula at m = 0)
    on PBW keys:

        d|()>           = w_(0) on the cyclic vector
        d|x_(n) rest>   = (w_(0)x)_(n)|rest> + (-1)^(|w_(0)||x_(n)|)
                          x_(n) d|rest>

    The head x_(n) of a key is a creation mode, so the first term is a
    creation-only field_mode and the second one insertion.  The images
    w_(0)x of the generators are states of the vacuum algebra, so mod
    must be a vacuum module (ValueError for one with a cyclic rule).
    Each key's image is computed once and kept in a table keyed by the
    key, which lives as long as the returned map; d(v) sums table rows
    with the coefficients of v, passed by the odd operator."""
    if mod.cyclic_rule is not None:
        raise ValueError("differential_map takes a vacuum module")
    return _Differential(mod, w)


class _Differential:
    """The map differential_map returns.  It recurses on a key's tail
    through a method, not through a closure that names itself, so the
    map is no reference cycle: dropping it frees the module and the
    table at once, without waiting for the cyclic collector."""

    def __init__(self, mod, w):
        self.mod, self.w = mod, w
        self.pd = (mod.state_parity(w) + 1) % 2
        self.dgen = {}   # gi -> w_(0) x_gi in the vacuum module
        self.table = {}  # pbwkey -> d|pbwkey>

    def row(self, key):
        out = self.table.get(key)
        if out is not None:
            return out
        mod = self.mod
        if not key:
            out = mod.field_mode(self.w, 0, {(): 1})
        else:
            (gi, n), rest = key[0], key[1:]
            dx = self.dgen.get(gi)
            if dx is None:
                dx = self.dgen[gi] = mod.field_mode(self.w, 0,
                                                    {((gi, -1),): 1})
            out = mod.field_mode(dx, n, {rest: 1})
            vadd(out, mod.act(gi, n, self.row(rest)),
                 -1 if self.pd and mod.gens[gi].mode_parity(n) else 1)
        self.table[key] = out
        return out

    def __call__(self, v):
        out = {}
        for k, c in v.items():
            vadd(out, self.row(k), twist(c, self.pd))
        return out


@identity_check
def check_square_zero(mod, d):
    """d(d(k)) = 0 on every basis key; the witness is the failing state."""
    for k, _ in mod.basis():
        yield ({k: 1},), d(d({k: 1})), {}


def dg_cohomology(mod, d, spin_cap):
    """Cohomology of an odd, spin- and flavor-preserving differential on
    the enumerated window, cell by cell.

    Returns {(spin, cohdeg, flavor): (dimension, representatives)} for
    every cell; CoordinateError when the differential of a cell's state
    leaves the enumerated window.
    """
    # cells are keyed by D*spin, an int read off the basis grading (whose
    # spin denominator divides D), against an int cap
    D = mod._spin_den
    cap = _floor(spin_cap * D)
    cells = {}
    for k, g in mod.basis():
        if (s := g.spin.numerator * (D // g.spin.denominator)) <= cap:
            cells.setdefault((s, g.cohdeg, g.flavor), []).append(k)

    # dim H = |cell| - rank(d out) - rank(d in); only a cell with H != 0
    # builds tagged echelons.  The columns of d out of a cell and their
    # rank have one reader, the next cell, which takes them (images[cell])
    out, images = {}, {}
    for cell, keys in sorted(cells.items()):
        s, deg, fl = cell
        nxt = (s, deg + 1, fl)
        index = {k: i for i, k in enumerate(cells.get(nxt, []))}
        cols = [rational_coords(d({k: 1}), index) for k in keys]
        images[nxt] = cols, rank(cols)
        incoming, rank_in = images.pop(cell) if cell in images else ([], 0)
        dim = len(keys) - images[nxt][1] - rank_in
        reps = []
        if dim:
            # the image is tagged by positions in the previous cell, so
            # the kernel vectors take tags apart from those
            img, kern = column_kernel(incoming)[0], column_kernel(cols)[1]
            for j, vec in enumerate(kern):
                if img.add(vec, ("kernel", j)) is None and len(reps) < dim:
                    reps.append(as_vector({keys[i]: q
                                           for i, q in vec.items()}))
        out[Fraction(s, D), deg, fl] = (dim, reps)
    return out


def ghost_extension(pres, current_names):
    """Adjoin an odd degree-1 spin-0 ghost and an even degree-0 spin-1
    antighost for each listed generator, with the diagonal pairing.
    The ghost carries the opposite flavor of its current and the
    antighost the same one, so every charge term is flavor-neutral."""
    extra, entries = [], {}
    for nm in current_names:
        c, bg = "c_" + nm, "b_" + nm
        fl = pres.grading(nm).flavor
        extra.append(GeneratorInfo(
            c, Grading(1, 0, 0, tuple(-x for x in fl))))
        extra.append(GeneratorInfo(bg, Grading(0, 1, 0, fl)))
        entries[(bg, c, 0)] = FieldExpr.const(1)
        entries[(c, bg, 0)] = FieldExpr.const(1)
    return pres.extend(extra, entries, name=pres.name + "+ghosts")


def brst_charge(mod, current_names, structure, pairing):
    """The canonical odd charge state on a ghost-extended module:

        1/2 f^a_{bc} :b_a c^b c^c: + 1/2 K_{ab} :c^a d c^b:
        - :c^a mu_a:

    structure[(a,b)] = {c: coeff} gives [mu_a, mu_b] = f^c_{ab} mu_c and
    pairing[(a,b)] the invariant form; an empty one is zero (abelian)."""
    total = {}
    cs = {nm: mod.gen_state("c_" + nm) for nm in current_names}
    bs = {nm: mod.gen_state("b_" + nm) for nm in current_names}
    for nm in current_names:
        # the matter term enters with +1 in this ordering: both factors
        # are totalized odd, so nop(c, mu) already carries the Koszul
        # sign relative to the opposite ordering, and this is the
        # relative sign against the trilinear term that squares to zero
        vadd(total, mod.nop(cs[nm], mod.gen_state(nm)))
    for (a, b), c in pairing.items():
        vadd(total, mod.nop(cs[a], mod.translate(cs[b])), Fraction(1, 2) * c)
    for (a, b), val in structure.items():
        for cnm, f in val.items():
            term = mod.nop(bs[cnm], mod.nop(cs[a], cs[b]))
            vadd(total, term, Fraction(1, 2) * f)
    return total


# ------------------------------------------------------ conformal data

@identity_check
def conformal_check(mod, gamma):
    """gamma_(0) acts as translation, gamma_(1) as the spin grading."""
    for v in default_samples(mod):
        yield ("zero-mode", v), mod.field_mode(gamma, 0, v), mod.translate(v)
        yield (("weight", v), mod.field_mode(gamma, 1, v),
               vscale(v, mod.state_spin(v)))
