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
systems, graded cohomology, conformal and primary checks).  A check is a
generator of (witness, lhs, rhs) instances, judged by identity_check.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, wraps
from math import factorial, floor as _floor, lcm

from .scalars import (Scalar, Grading, binom, as_vector, canonical,
                      degrees_of, rational_of, twist, vadd, vscale, vsub,
                      veq)
from .modes import (GeneratorInfo, Mode, FieldExpr, OpeTable,
                    bracket_from_ope, vac_induce)
from .series import (BiDist, DeltaKernel, combine_indices, delta_decompose,
                     delta_expand, expand_region, tri_normalize)
from .linalg import (Echelon, column_kernel, rational_coords, dense_coords,
                     solve)


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

    def tensor(self, other, name=None):
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
        return Presentation(name or "%s(x)%s" % (self.name, other.name),
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
        self._act_memo = {}
        self._mono_memo = {}
        self._kg_memo = {}
        self._akey_memo = {}   # akey -> (mono, 1/den or None, parity)
        # spins scaled by their common denominator are ints: the mode
        # windows below take integer floors, not Fraction arithmetic
        self._spin_den = lcm(*(g.grading.spin.denominator
                               for g in self.gens))
        self._gen_spin = [int(g.grading.spin * self._spin_den)
                          for g in self.gens]
        self._mg_memo = {}     # mono -> (parity, scaled spin)
        self._ks_memo = {}     # key -> scaled spin above the cyclic vector

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
        g = self._kg_memo.get(key)
        if g is None:
            g = self.cyclic_grading
            for gi, n in key:
                g = g + self.gens[gi].mode_grading(n)
            self._kg_memo[key] = g
        return g

    def _key_spin(self, key):
        """The spin of a PBW key above the cyclic vector, times
        _spin_den (an int)."""
        s = self._ks_memo.get(key)
        if s is None:
            s = self._ks_memo[key] = int(
                (self.key_grading(key).spin - self.cyclic_grading.spin)
                * self._spin_den)
        return s

    def state_grading(self, state):
        """Grading of a homogeneous state, scalar coefficients included
        (odd central parameters carry cohomological degree and parity);
        None for zero."""
        gs = set()
        for k, c in state.items():
            kg = self.key_grading(k)
            cd, cp = degrees_of(c)
            gs.add(Grading(kg.cohdeg + cd, kg.spin,
                           (kg.parity + cp) % 2, kg.flavor))
        if not gs:
            return None
        if len(gs) != 1:
            raise ValueError("state not homogeneous: %s" % gs)
        return gs.pop()

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
            if self._key_spin(key) + self._gen_spin[gi] < \
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
                        Mode(self.gens[gi], n), Mode(self.gens[hgi], hn),
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
        flip on the annihilation modes."""
        tw = 1 if t >= 0 else 0
        out = {}
        for mono, c in expr.terms.items():
            vadd(out, self.mono_mode(mono, t, state),
                 twist(self._spec(c), tw))
        return out

    def _mono_grading(self, mono):
        """(parity, spin times _spin_den) of a normal-ordered monomial of
        derivatives."""
        g = self._mg_memo.get(mono)
        if g is None:
            p, s = 0, 0
            for nm, k in mono:
                gr = self.pres.grading(nm)
                p += gr.tot
                s += gr.spin + k
            g = self._mg_memo[mono] = (p % 2, int(s * self._spin_den))
        return g

    def mono_mode(self, mono, t, state):
        p = (self._mono_grading(mono)[0] + (1 if t >= 0 else 0)) % 2
        out = {}
        for key, c in state.items():
            vadd(out, self._mono_key(mono, t, key), twist(c, p))
        return out

    def _deriv_mode(self, gname, k, n, state):
        """(d^k g)_(n) = (-1)^k k! C(n, k) g_(n-k) applied to a state."""
        coeff = (-1) ** k * factorial(k) * binom(n, k)
        if coeff == 0:
            return {}
        return vscale(self.act(gname, n - k, state), coeff)

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
        g1name, k1 = mono[0]
        rest = mono[1:]
        vstate = {vkey: 1}
        if not rest:
            out = self._deriv_mode(g1name, k1, t, vstate)
            memo[mk] = out
            return out
        pa, sa = self._mono_grading(mono[:1])
        pb, sb = self._mono_grading(rest)
        # with spins scaled by D to ints, ceil(t - vspin - s) is
        # -((D vspin - D t + D s) // D)
        D = self._spin_den
        vs = self._key_spin(vkey) - D * t
        if t < 0:
            # both factors in creation modes; finitely many terms
            for n in range(t, 0):
                inner = self._mono_key(rest, t - n - 1, vkey)
                if inner:
                    vadd(out, self._deriv_mode(g1name, k1, n, inner))
        else:
            # sum_{n<0} A_n B_{t-n-1}: B annihilates deep enough
            s1 = (-1) ** pa
            for n in range(-((vs + sb) // D), 0):
                inner = self._mono_key(rest, t - n - 1, vkey)
                if inner:
                    vadd(out, self._deriv_mode(g1name, k1, n, inner), s1)
            # sum_{n<0} B_n A_{t-n-1}: A annihilates deep enough
            s2 = (-1) ** ((pa + 1) * pb)
            for n in range(-((vs + sa) // D), 0):
                av = self._deriv_mode(g1name, k1, t - n - 1, vstate)
                if av:
                    vadd(out, self.mono_mode(rest, n, av), s2)
        memo[mk] = out
        return out

    def field_mode(self, astate, t, vstate):
        """Mode t of the field of an arbitrary state, applied to vstate.
        As in expr_mode, the state's scalar coefficients pass the odd
        singular-tower symbols with a Koszul sign, so their odd-parameter
        part flips on the annihilation modes.  One pass over (akey, vkey)
        pairs: each term is (ca * cv) * _mono_key, with ca the twisted
        akey coefficient over Π k! and cv the twisted vstate one."""
        tw = 1 if t >= 0 else 0
        out = {}
        if not vstate:
            return out
        for akey, ca in astate.items():
            mono, inv_den, p = self._akey_info(akey)
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
                vadd(out, self._mono_key(mono, t, vkey), c)
        return out

    def _akey_info(self, akey):
        """(mono, 1/den or None, parity) of a PBW key read as a field:
        g_(-k-1) is the derivative d^k g / k!."""
        info = self._akey_memo.get(akey)
        if info is None:
            mono = tuple((self.gens[gi].name, -n - 1) for gi, n in akey)
            den = 1
            for _, k in mono:
                den *= factorial(k)
            info = self._akey_memo[akey] = (
                mono, Fraction(1, den) if den > 1 else None,
                self._mono_grading(mono)[0])
        return info

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
        bound = _floor(self.state_spin(a) + self.state_spin(b) - 1)
        out = {}
        for n in range(0, bound + 1):
            v = self.field_mode(a, n, b)
            if v:
                out[n] = v
        return out

    def expr_to_state(self, expr):
        """The state expr|0> of a FieldExpr."""
        out = {}
        for mono, c in expr.terms.items():
            cur = self.vacuum()
            for nm, k in reversed(mono):
                fac = self.gen_state(nm)
                for _ in range(k):
                    fac = self.translate(fac)
                cur = self.nop(fac, cur)
            vadd(out, cur, self._spec(c))
        return out

    def state_str(self, state):
        if not state:
            return "0"
        bits = []
        for key in sorted(state, key=lambda k: (len(k), k)):
            c = state[key]
            mono = "".join("%s_(%d)" % (self.gens[gi].name, n)
                           for gi, n in key) + "|0>"
            cs = str(c)
            if cs == "1":
                bits.append(mono)
            elif cs == "-1":
                bits.append("-" + mono)
            else:
                if " + " in cs or " - " in cs:
                    cs = "(%s)" % cs
                bits.append("%s*%s" % (cs, mono))
        out = bits[0]
        for b in bits[1:]:
            out += (" - " + b[1:]) if b.startswith("-") else (" + " + b)
        return out


# ================================================================ checks
#
# A check is a generator of (witness, lhs, rhs) instances; identity_check
# turns it into a function returning (ok, witness).  The checks that reuse
# products of their sample states read them from an index-keyed table
# (_mode_table), each product computed once per check call.


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


def _mode_table(mod, xs, ys=None):
    """mode(i, n, j) = xs[i]_(n) ys[j] (ys defaults to xs), computed on
    first use and read back after, so callers must not mutate it.  The
    key holds indices, not states: hashing whole states costs more than
    the products it saves."""
    ys = xs if ys is None else ys

    @lru_cache(maxsize=None)
    def mode(i, n, j):
        return mod.field_mode(xs[i], n, ys[j])
    return mode


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
def check_vacuum_axiom(mod, states=None, nmax=4):
    states = states or default_samples(mod)
    vac = mod.vacuum()
    yield ("translate-vacuum",), mod.translate(vac), {}
    for a in states:
        for t in range(0, nmax + 1):
            yield ("creation", t, a), mod.field_mode(a, t, vac), {}
        yield ("state-field", a), mod.field_mode(a, -1, vac), a
        yield (("first-derivative", a), mod.field_mode(a, -2, vac),
               mod.translate(a))
    for v in states:
        for t in range(-3, nmax + 1):
            yield (("identity-field", t), mod.field_mode(vac, t, v),
                   v if t == -1 else {})


@identity_check
def check_translation_axiom(mod, states=None, trange=(-3, 3)):
    states = states or default_samples(mod)
    for a in states:
        da = mod.translate(a)
        for v in states:
            for t in range(trange[0], trange[1] + 1):
                lhs = vsub(mod.translate(mod.field_mode(a, t, v)),
                           mod.field_mode(a, t, mod.translate(v)))
                yield (t, a, v), lhs, mod.field_mode(da, t, v)


@identity_check
def check_skew(mod, states=None, nmin=-2):
    """a_(n) b = (-1)^(|a||b|) sum_l (s/l!) d^l (b_(n+l) a).  Plain powers
    and the singular tower never mix under translation, so for n < 0 only
    l < -n contributes with s = (-1)^(n+l+1) (power-flip sign), while for
    n >= 0 all l contribute with s = (-1)^(n+l) (tower-label sign)."""
    states = states or default_samples(mod)
    for a in states:
        for b in states:
            pa, pb = mod.state_parity(a), mod.state_parity(b)
            kos = (-1) ** (pa * pb)
            nmax = _floor(mod.state_spin(a) + mod.state_spin(b) - 1) + 1
            for n in range(nmin, nmax + 1):
                rhs = {}
                if n < 0:
                    ls = range(0, -n)
                else:
                    ls = range(0, nmax - n + 2)
                for l in ls:
                    term = mod.field_mode(b, n + l, a)
                    for _ in range(l):
                        term = mod.translate(term)
                    e = n + l + (1 if n < 0 else 0)
                    vadd(rhs, term,
                         Fraction(kos * (-1) ** (e % 2), factorial(l)))
                yield (n, a, b), mod.field_mode(a, n, b), rhs


@identity_check
def check_nop_commutative(mod, states=None):
    states = states or default_samples(mod)
    for a in states:
        for b in states:
            sign = (-1) ** (mod.state_parity(a) * mod.state_parity(b))
            yield (a, b), mod.nop(a, b), vscale(mod.nop(b, a), sign)


@identity_check
def check_nop_associative(mod, states=None):
    states = states or default_samples(mod)
    for a in states:
        for b in states:
            for c in states:
                yield ((a, b, c), mod.nop(a, mod.nop(b, c)),
                       mod.nop(mod.nop(a, b), c))


@identity_check
def check_descent_derivation(mod, states=None, nmax=None):
    """a_(n), n >= 0, is an (appropriately signed) derivation of the
    normal-ordered product."""
    states = states or default_samples(mod)
    par = [mod.state_parity(x) for x in states]
    spin = [mod.state_spin(x) for x in states]
    mode = _mode_table(mod, states)
    for ia, a in enumerate(states):
        for ib, b in enumerate(states):
            sign = (-1) ** ((par[ia] + 1) * par[ib])
            for ic, c in enumerate(states):
                hi = nmax if nmax is not None else \
                    _floor(spin[ia] + spin[ib] + spin[ic])
                for n in range(0, hi + 1):
                    lhs = mod.field_mode(a, n, mode(ib, -1, ic))
                    rhs = mod.nop(mode(ia, n, ib), c)
                    vadd(rhs, mod.nop(b, mode(ia, n, ic)), sign)
                    yield (n, a, b, c), lhs, rhs


def _jacobi_instances(mod, states, nmax):
    """[a_(n), b_(m)] c = (-1)^(|a|+1) sum_l C(n,l) (a_(l)b)_(m+n-l) c
    for n, m in 0..nmax, as ((n, m, a, b, c), lhs, rhs) instances with the
    graded commutator's second term moved to the right."""
    par = [mod.state_parity(x) for x in states]
    mode = _mode_table(mod, states)
    for ia, a in enumerate(states):
        pa = par[ia]
        for ib, b in enumerate(states):
            sign = (-1) ** ((pa + 1) * (par[ib] + 1))
            for ic, c in enumerate(states):
                # (l, k) -> (a_(l)b)_(k) c, shared by the (n, m) with
                # m + n - l = k
                tower = lru_cache(maxsize=None)(
                    lambda l, k: mod.field_mode(mode(ia, l, ib), k, c))
                for n in range(0, nmax + 1):
                    for m in range(0, nmax + 1):
                        lhs = mod.field_mode(a, n, mode(ib, m, ic))
                        rhs = vscale(mod.field_mode(b, m, mode(ia, n, ic)),
                                     sign)
                        for l in range(0, n + 1):
                            vadd(rhs, tower(l, m + n - l),
                                 (-1) ** (pa + 1) * binom(n, l))
                        yield (n, m, a, b, c), lhs, rhs


@identity_check
def check_descent_jacobi(mod, states=None, nmax=3):
    """{{a,{{b,c}}^(m)}}^(n) = (-1)^(|a|+1) sum_l C(n,l)
    {{{{a,b}}^(l),c}}^(m+n-l) + (-1)^((|a|+1)(|b|+1)) {{b,{{a,c}}^(n)}}^(m),
    all brackets being the annihilation-mode products."""
    yield from _jacobi_instances(mod, states or default_samples(mod), nmax)


def check_zero_mode_derivation(mod, states=None):
    return check_descent_derivation(mod, states, nmax=0)


# ------------------------------------------------- bivariate machinery
#
# A state-valued bivariate distribution is one flat vector
# {(m, l, pbwkey): coefficient}: entry (m, l, key) is the coefficient of
# key in the operator coefficient of mon_z(m) mon_w(l), in the canonical
# z-then-w monomial order (indices as in series.py).  Sums, differences
# and scalings are vadd/vsub/vscale, and _put places a state at (m, l).
# The expansion rules the distributions meet -- the Delta_+/- halves and
# the re-expansions of the Omega_{z-w} tower near w = 0 and near z = 0 --
# are read from series, their one source; this file only applies them
# (_expansion).


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


def _operator_order(mod, a, b, v, lo, ab):
    """A(z)B(w)v if ab, else (-1)^(|a||b|) B(w)A(z)v, in the canonical
    order, for mode indices from lo up.  With X_i acting first and Y_j
    second, entry (m, l) is Y_j X_i v times (-1)^([i>=0] p): p is the mode
    parity |Y| + [j>=0] for A(z)B(w), and |Y| for B(w)A(z), whose tower
    sign (-1)^([i>=0][j>=0]) cancels the mode's shift."""
    x, y = (b, a) if ab else (a, b)
    py = mod.state_parity(y)
    kos = 1 if ab else (-1) ** (mod.state_parity(x) * py)
    F = {}
    for i, xv in _modes(mod, x, v, lo):
        for j, yxv in _modes(mod, y, xv, lo):
            m, l = (j, i) if ab else (i, j)
            _put(F, m, l, yxv,
                 kos * (-1) ** ((i >= 0) * (py + (ab and j >= 0))))
    return F


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
    if kind in ("minus", "plus"):
        b = delta_expand(DeltaKernel(kind, t), trunc)
    else:
        if t < 0:
            # (z-w)^k = sum_i C(k,i) z^(k-i) (-w)^i
            k = -t - 1
            raw = [((-1) ** i * binom(k, i), k - i, i, ())
                   for i in range(k + 1)]
        else:
            raw = [(1, 0, 0, (("d", t),))]
        b = expand_region(tri_normalize(raw, trunc), kind, trunc)
    return tuple((m, j, rational_of(c)) for (m, j), c in b.terms.items())


def _apply_expansion(F, expansion, l, st, w):
    """F += expansion * mon_w(l) * st at the entries inside the window w."""
    for m, j, c in expansion:
        lw = combine_indices(j, l)
        if lw is not None and (m, lw) in w:
            _put(F, m, lw, st, c)


def _delta_failure(comm, cmodes, w):
    """None when each pbw coefficient of the commutator comm decomposes as
    sum_n d_w^n Delta(z-w) g^(n)(w) with n! g^(n) the modes cmodes of the
    n-th singular product, else the first failure."""
    by_key = {}
    for (m, l, key), c in comm.items():
        by_key.setdefault(key, {})[(m, l)] = c
    for kappa in sorted(by_key):
        glist, fail = delta_decompose(BiDist(by_key[kappa], w.T, w.T), w.N)
        if fail is not None:
            return ("decompose", kappa, fail)
        for n in range(w.N + 1):
            for lp in range(w.lo, w.pol + 1):
                want = cmodes.get((n, lp, kappa), 0)
                if glist[n].terms.get(lp, 0) * factorial(n) != want:
                    return ("coefficient", kappa, n, lp)
    return None


def check_locality(mod, a, b, v, tay=2):
    """Mutual locality of the fields of a and b witnessed on v: the
    commutator is delta-supported with coefficients the singular
    products, and both operator orders differ from the normal-ordered
    bivariate product by the corresponding delta half.

    Returns a list of (condition_name, ok, witness).
    """
    w = _pair_window(mod, a, b, v, tay)
    # cmodes holds the modes (a_(n)b)_(l') v of the singular products
    cmodes, dminus, dplus = {}, {}, {}
    for n in range(w.N + 1):
        for lp, st in _modes(mod, mod.field_mode(a, n, b), v, -(w.T + 1)):
            _put(cmodes, n, lp, st)
            _apply_expansion(dminus, _expansion("minus", n, w.dminus), lp,
                             st, w)
            _apply_expansion(dplus, _expansion("plus", n, w.T), lp, st, w)

    fab = _operator_order(mod, a, b, v, -(w.T + 1), True)
    kfba = _operator_order(mod, a, b, v, -(w.T + 1), False)
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
    w = _pair_window(mod, a, b, v, tay)
    # sum_t mon_u(t) (a_(t)b)(w) v, u = z-w, re-expanded in each region
    H1, H2 = {}, {}
    for t in range(-w.tdepth, w.N + 1):
        for l, st in _modes(mod, mod.field_mode(a, t, b), v, -(w.L + 1)):
            _apply_expansion(H1, _expansion("w_near_0", t, w.amax), l, st, w)
            _apply_expansion(H2, _expansion("z_near_0", t, w.amax), l, st, w)

    fab = _operator_order(mod, a, b, v, w.lo, True)
    fba = _operator_order(mod, a, b, v, w.lo, False)
    return [("expand-w-near-0",) + _eq_within(H1, fab, w),
            ("expand-z-near-0",) + _eq_within(H2, fba, w)]


@identity_check
def check_composite_fields(mod, states=None, kmax=2, nmax=2, tay=2):
    """Fields of product states agree with the two-block normal-ordered
    mode sums of the factor fields.

    k! a_(-k-1)b is the product of the k-th derivative field of a with
    the field of b, so its modes must match the explicit sums over modes
    of the two factors.  This carries the general-state content of
    associativity: the coefficientwise three-expansion comparison (see
    check_associativity) only converges against the cyclic vector."""
    states = states or default_samples(mod)
    par = [mod.state_parity(x) for x in states]
    # ders[i * (kmax + 1) + k] = d^k states[i], with spin times D in dspin
    D = mod._spin_den
    ders = []
    for a in states:
        ders.append(a)
        for _ in range(kmax):
            ders.append(mod.translate(ders[-1]))
    dspin = [int(mod.state_spin(x) * D) for x in ders]
    mode = _mode_table(mod, states)
    dmode = _mode_table(mod, ders, states)
    for ia, a in enumerate(states):
        pa = par[ia]
        for ib, b in enumerate(states):
            pb, sb = par[ib], dspin[ib * (kmax + 1)]
            for k in range(kmax + 1):
                di = ia * (kmax + 1) + k
                da, sa = ders[di], dspin[di]
                comp = mod.field_mode(a, -k - 1, b)
                for iv, v in enumerate(states):
                    for t in range(-(tay + 1), nmax + 1):
                        lhs = vscale(mod.field_mode(comp, t, v),
                                     factorial(k))
                        rhs = {}
                        if t < 0:
                            # both factors in creation modes
                            for n in range(t, 0):
                                inner = mode(ib, t - n - 1, iv)
                                if inner:
                                    vadd(rhs, mod.field_mode(da, n, inner))
                        else:
                            # ceil(t - vspin - s), spins scaled by D to ints
                            vs = dspin[iv * (kmax + 1)] - D * t
                            s1 = (-1) ** pa
                            for n in range(-((vs + sb) // D), 0):
                                inner = mode(ib, t - n - 1, iv)
                                if inner:
                                    vadd(rhs, mod.field_mode(da, n, inner),
                                         s1)
                            s2 = (-1) ** ((pa + 1) * pb)
                            for n in range(-((vs + sa) // D), 0):
                                av = dmode(di, t - n - 1, iv)
                                if av:
                                    vadd(rhs, mod.field_mode(b, n, av), s2)
                        yield (k, t, a, b, v), lhs, rhs


@identity_check
def check_commutative_half(mod, states=None, tay=3):
    """The creation halves of all fields graded-commute."""
    states = states or default_samples(mod)
    par = [mod.state_parity(x) for x in states]
    mode = _mode_table(mod, states)
    for ia, a in enumerate(states):
        for ib, b in enumerate(states):
            kos = (-1) ** (par[ia] * par[ib])
            for iv in range(len(states)):
                for m in range(-(tay + 1), 0):
                    for l in range(-(tay + 1), 0):
                        lhs = mod.field_mode(a, m, mode(ib, l, iv))
                        rhs = mod.field_mode(b, l, mode(ia, m, iv))
                        yield (m, l, a, b), lhs, vscale(rhs, kos)


@identity_check
def check_lie_half(mod, states=None, nmax=3):
    """The annihilation halves form a vertex-Lie tower: translation
    compatibility, skew-symmetry, and the mode commutation rule."""
    states = states or default_samples(mod)
    # translation: (da)_(m) = -m a_(m-1) for m >= 0
    for a in states:
        da = mod.translate(a)
        for v in states:
            for m in range(0, nmax + 1):
                yield (("translation", m, a), mod.field_mode(da, m, v),
                       vscale(mod.field_mode(a, m - 1, v), -m))
    # commutator of annihilation modes against singular products
    for (n, m, a, b, _), lhs, rhs in _jacobi_instances(mod, states, nmax):
        yield ("commutator", n, m, a, b), lhs, rhs


def check_poisson_split(mod, states=None, tay=3, nmax=3):
    """Commutative creation half + vertex-Lie annihilation half, with the
    annihilation modes acting as derivations of the product."""
    for label, check, bound in (
            ("commutative-half", check_commutative_half, tay),
            ("lie-half", check_lie_half, nmax),
            ("derivation", check_descent_derivation, nmax)):
        ok, wit = check(mod, states, bound)
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
        raise ValueError("unknown checks: %s" % ", ".join(sorted(unknown)))
    return checks


def verify_axioms(mod, states=None, tay=2, deep_states=None, checks=None):
    """Run the suite, or only the IDENTITIES named in checks, in suite
    order; returns a list of (name, ok, witness).  A failed locality or
    associativity condition is reported as a "locality/<cond>" or
    "associativity/<cond>" row in place of the passing row."""
    checks = selected_identities(checks)
    states = states or default_samples(mod)
    pairs = deep_states or [s for s in states if len(s) == 1
                            and list(s)[0] and len(list(s)[0]) == 1]
    out = []
    for name, fn_name, form in _SUITE:
        if name not in checks:
            continue
        fn = globals()[fn_name]
        if form != "pairs":
            ok, wit = fn(mod, states, tay=tay) if form == "tay" \
                else fn(mod, states)
            out.append((name, ok, wit))
            continue
        failed = []
        for a in pairs:
            for b in pairs:
                for cond, ok, wit in fn(mod, a, b, mod.vacuum(), tay=tay):
                    if not ok:
                        failed.append(
                            (name + "/" + cond, False,
                             (mod.state_str(a), mod.state_str(b), wit)))
        out.extend(failed or [(name, True, None)])
    return out


# ------------------------------------------------------ linear algebra

def cell_basis(mod, grading):
    """Basis monomials of one (cohdeg, spin, parity, flavor) cell."""
    return [k for k, g in mod.basis() if g == grading]


def state_coords(state, keys, index=None):
    """Dense rational coordinates of a state over the listed keys;
    CoordinateError if a coefficient is not rational or a key is not
    listed."""
    return dense_coords(state, index or {k: i for i, k in enumerate(keys)})


def in_translation_image(mod, state):
    """Is the state a total derivative?  Returns (ok, primitive_or_None)."""
    if not state:
        return True, {}
    g = mod.state_grading(state)
    src = Grading(g.cohdeg, g.spin - 1, g.parity, g.flavor)
    skeys = cell_basis(mod, src)
    if not skeys:
        return False, None
    index = {k: i for i, k in enumerate(cell_basis(mod, g))}
    cols = [dense_coords(mod.translate({k: 1}), index) for k in skeys]
    x = solve(list(zip(*cols)), dense_coords(state, index))
    if x is None:
        return False, None
    return True, as_vector(dict(zip(skeys, x)))


# ------------------------------------------------------ deformations

def superpotential_check(mod, w):
    """Conditions for a state to define an odd square-zero differential
    via its annihilation zero mode: gradings, and the self-bracket being
    a total derivative."""
    g = mod.state_grading(w)
    report = {}
    report["grading"] = (g.cohdeg == 2 and g.spin == 1 and g.tot == 0)
    ww = mod.field_mode(w, 0, w)
    ok, prim = in_translation_image(mod, ww)
    report["self-bracket-exact"] = ok
    report["self-bracket"] = ww
    report["primitive"] = prim
    return report


def differential_map(mod, w):
    """v -> w_(0) v."""
    def d(v):
        return mod.field_mode(w, 0, v)
    return d


@identity_check
def check_square_zero(mod, d, keys=None):
    """d(d(k)) = 0 on every basis key; the witness is the failing key."""
    keys = keys if keys is not None else [k for k, _ in mod.basis()]
    for k in keys:
        yield k, d(d({k: 1})), {}


def dg_cohomology(mod, d, spin_cap=None):
    """Cohomology of an odd, spin- and flavor-preserving differential on
    the enumerated window, cell by cell.

    Returns {(spin, cohdeg, flavor): (dimension, representatives)} for
    cells whose incoming and outgoing differentials stay inside the
    window.
    """
    cells = {}
    for k, g in mod.basis():
        if spin_cap is not None and g.spin > spin_cap:
            continue
        cells.setdefault((g.spin, g.cohdeg, g.flavor), []).append(k)

    def images(src_keys, dst_keys):
        index = {k: i for i, k in enumerate(dst_keys)}
        return [rational_coords(d({k: 1}), index) for k in src_keys]

    out = {}
    for (spin, deg, fl), keys in sorted(cells.items()):
        nxt = cells.get((spin, deg + 1, fl), [])
        prv = cells.get((spin, deg - 1, fl), [])
        # kernel of d out of this cell
        _, kern = column_kernel(images(keys, nxt))
        # image of d into this cell
        img = Echelon()
        for k, v in zip(prv, images(prv, keys)):
            img.add(v, k)
        dim = len(kern) - len(img.rows)
        reps = []
        for j, vec in enumerate(kern):
            if img.add(vec, j) is None and len(reps) < dim:
                reps.append(as_vector({keys[i]: q
                                       for i, q in vec.items()}))
        out[(spin, deg, fl)] = (dim, reps)
    return out


def ghost_extension(pres, current_names, name=None):
    """Adjoin an odd degree-1 spin-0 ghost and an even degree-0 spin-1
    antighost for each listed generator, with the diagonal pairing.
    The ghost carries the opposite flavor of its current and the
    antighost the same one, so every charge term is flavor-neutral."""
    extra = []
    entries = {}
    for nm in current_names:
        c, bg = "c_" + nm, "b_" + nm
        fl = pres.grading(nm).flavor
        extra.append(GeneratorInfo(
            c, Grading(1, 0, 0, tuple(-x for x in fl))))
        extra.append(GeneratorInfo(bg, Grading(0, 1, 0, fl)))
        entries[(bg, c, 0)] = FieldExpr.const(1)
        entries[(c, bg, 0)] = FieldExpr.const(1)
    return pres.extend(extra, entries,
                       name=name or pres.name + "+ghosts")


def brst_charge(mod, current_names, structure=None, pairing=None, w=None):
    """The canonical odd charge state on a ghost-extended module:

        1/2 f^a_{bc} :b_a c^b c^c: + 1/2 K_{ab} :c^a d c^b:
        - :c^a mu_a: + W

    structure[(a,b)] = {c: coeff} gives [mu_a, mu_b] = f^c_{ab} mu_c and
    pairing[(a,b)] the invariant form; both default to zero (abelian)."""
    total = {}
    cs = {nm: mod.gen_state("c_" + nm) for nm in current_names}
    bs = {nm: mod.gen_state("b_" + nm) for nm in current_names}
    for nm in current_names:
        # the matter term enters with +1 in this ordering: both factors
        # are totalized odd, so nop(c, mu) already carries the Koszul
        # sign relative to the opposite ordering, and this is the
        # relative sign against the trilinear term that squares to zero
        vadd(total, mod.nop(cs[nm], mod.gen_state(nm)))
    if pairing:
        for (a, b), c in pairing.items():
            term = mod.nop(cs[a], mod.translate(cs[b]))
            vadd(total, term, Fraction(1, 2) * c)
    if structure:
        for (a, b), val in structure.items():
            for cnm, f in val.items():
                term = mod.nop(bs[cnm], mod.nop(cs[a], cs[b]))
                vadd(total, term, Fraction(1, 2) * f)
    if w:
        vadd(total, w)
    return total


# ------------------------------------------------------ conformal data

@identity_check
def conformal_check(mod, gamma, states=None):
    """gamma_(0) acts as translation, gamma_(1) as the spin grading."""
    states = states or default_samples(mod)
    for v in states:
        yield ("zero-mode", v), mod.field_mode(gamma, 0, v), mod.translate(v)
        yield (("weight", v), mod.field_mode(gamma, 1, v),
               vscale(v, mod.state_spin(v)))


def primary_check(mod, gamma, a, nmax=None):
    """Whether higher annihilation modes of the stress state kill a; the
    weight mode n = 1 is reported separately from the n >= 2 tail."""
    if nmax is None:
        nmax = _floor(mod.state_spin(gamma) + mod.state_spin(a)) + 1
    higher = []
    for n in range(2, nmax + 1):
        st = mod.field_mode(gamma, n, a)
        if st:
            higher.append((n, st))
    weight = mod.field_mode(gamma, 1, a)
    expected = vscale(a, mod.state_spin(a))
    return {
        "higher-ok": not higher,
        "higher-witness": higher or None,
        "weight-ok": veq(weight, expected),
        "weight-state": weight,
    }


# ------------------------------------------------------ module probes

def simplicity_probe(mod, spin_cap=None):
    """Every nonzero basis state reaches the cyclic vector under
    annihilation modes; returns (ok, stuck_key_or_None)."""
    nmax = _floor(max(g.grading.spin for g in mod.gens)
                  + (spin_cap if spin_cap is not None else mod.spin_cap))
    for key, g in mod.basis():
        if not key:
            continue
        if spin_cap is not None and g.spin > spin_cap:
            continue
        frontier = [{key: 1}]
        seen = False
        for _ in range(len(key) * (nmax + 1) + 2):
            nxt = []
            for st in frontier:
                if () in st:
                    seen = True
                    break
                for gi in range(len(mod.gens)):
                    for n in range(0, nmax + 1):
                        r = mod.act(gi, n, st)
                        if r:
                            nxt.append(r)
            if seen or not nxt:
                break
            frontier = nxt
        if not seen:
            return False, key
    return True, None
