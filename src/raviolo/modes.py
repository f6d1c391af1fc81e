"""Modes, OPE tables, and the generic mode-commutator machinery.

Single mode convention a_(n) throughout: the field of a state a with spin
s is sum_{n<0} z^(-n-1) a_(n) + sum_{n>=0} Omega^n a_(n); the mode a_(n)
has cohomological degree |a| for n < 0 and |a|-1 for n >= 0, and raises
spin by s-n-1.  Per-example labels (X_n, c_n, J_{a,n}, G_m, ...) are
aliases converted to this convention.
"""

from fractions import Fraction
from math import ceil, factorial, floor, lcm
from operator import add

from .scalars import Grading, binom, as_vector, sum_str, vadd, vscale, vsub


class GeneratorInfo:
    def __init__(self, name, grading):
        self.name = name
        self.grading = grading  # grading of the state a

    def mode_parity(self, n):
        # a_(n) has the parity of a, flipped for n >= 0 (cohdeg |a| - 1)
        return (self.grading.tot + (n >= 0)) % 2

    def __repr__(self):
        return "GeneratorInfo(%r)" % self.name


class FieldExpr:
    """Linear combination (coefficients of the scalars layer) of
    normal-ordered monomials in derivatives of generators; a factor is
    (name, k) meaning the k-th derivative, a term is an ordered tuple of
    factors (empty = 1)."""

    def __init__(self, terms=None):
        self.terms = as_vector(terms)

    @staticmethod
    def zero():
        return FieldExpr()

    @staticmethod
    def const(c):
        return FieldExpr({(): c})

    @staticmethod
    def gen(name, k=0):
        return FieldExpr({((name, k),): 1})

    def __add__(self, other):
        return FieldExpr(vadd(dict(self.terms), other.terms))

    def __sub__(self, other):
        return FieldExpr(vsub(self.terms, other.terms))

    def scale(self, c):
        return FieldExpr(vscale(self.terms, c))

    def deriv(self):
        """Apply the translation derivation (Leibniz over NOP factors)."""
        out = {}
        for mono, c in self.terms.items():
            for i, (name, k) in enumerate(mono):
                vadd(out, {mono[:i] + ((name, k + 1),) + mono[i + 1:]: c})
        return FieldExpr(out)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, FieldExpr):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        bits = []
        for mono in sorted(self.terms):
            fac = []
            for name, k in mono:
                fac.append(name if k == 0 else
                           ("D %s" % name if k == 1 else "D^%d %s" % (k, name)))
            body = "NO[%s]" % ", ".join(fac) if len(fac) > 1 else \
                   "".join(fac)
            bits.append((self.terms[mono], body))
        return sum_str(bits)

    __repr__ = __str__


class OpeTable:
    """(a_name, b_name, n >= 0) -> FieldExpr; missing entries are zero."""

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for (a, b, n), e in entries.items():
                if n < 0:
                    raise ValueError("OPE index must be >= 0, got %r"
                                     % ((a, b, n),))
                if e.terms:
                    self.entries[(a, b, n)] = e

    def get(self, a, b, n):
        return self.entries.get((a, b, n), FieldExpr.zero())

    def max_index(self, a, b):
        ns = [n for (x, y, n) in self.entries if x == a and y == b]
        return max(ns) if ns else None


def expr_modes(expr, t):
    """Mode t of a FieldExpr whose terms all have at most one factor:
    (d^k g)_(t) = (-1)^k k! C(t,k) g_(t-k); constants contribute only at
    t = -1.  Returns list of (coefficient, name_or_None, index)."""
    out = []
    for mono, c in expr.terms.items():
        if len(mono) == 0:
            if t == -1:
                out.append((c, None, -1))
        elif len(mono) == 1:
            name, k = mono[0]
            coeff = (-1) ** k * factorial(k) * binom(t, k) * c
            if coeff:
                out.append((coeff, name, t - k))
        else:
            raise ValueError("composite field has no closed mode formula: %s"
                             % expr)
    return out


def bracket_from_ope(a, m, b, l, table):
    """Graded commutator [a_(m), b_(l)] of the modes of two generators
    (GeneratorInfo) as a list of (int, FieldExpr, t), each meaning
    coeff * (expr field)_(t).

    Four cases by mode signs; C^n = a_(n) b from the table, N its largest
    singular index.
    """
    if m < 0 and l < 0:
        return []
    N = table.max_index(a.name, b.name)
    if N is None:
        return []
    sign_a = (-1) ** (a.grading.tot + 1)
    out = []
    if m >= 0 and l >= 0:
        lo, sign = 0, sign_a
    elif m >= 0 and l < 0:
        lo, sign = max(0, m + l + 1), 1
    else:  # m < 0, l >= 0
        lo, sign = max(0, m + l + 1), sign_a
    for n in range(lo, N + 1):
        cn = table.get(a.name, b.name, n)
        if not cn.terms:
            continue
        coeff = sign * binom(m, n)
        if coeff == 0:
            continue
        out.append((coeff, cn, m + l - n))
    return out


def bracket_modes(a, m, b, l, table):
    """bracket_from_ope resolved to elementary modes, for tables whose
    entries have at most one NOP factor.  Returns {(name_or_None, t):
    coefficient} with None denoting the identity field (nonzero only at
    -1)."""
    out = {}
    for coeff, expr, t in bracket_from_ope(a, m, b, l, table):
        for c2, name, t2 in expr_modes(expr, t):
            vadd(out, {(name, t2): coeff * c2})
    return out


# ------------------------------------------------------------ PBW skeleton

class InfiniteGradedPiece(Exception):
    def __init__(self, gen_name):
        super().__init__(
            "graded piece infinite within cutoffs: creation modes of %r "
            "do not raise spin" % gen_name)
        self.gen_name = gen_name


def vac_induce(gens, spin_cap, word_cap, flavor_window=None):
    """Ordered-monomial basis in negative modes: sorted tuples of
    (gen_index, n<0) by (gen_index, n), no odd repeats, total spin <=
    spin_cap (an int or a Fraction, compared exactly), word length <=
    word_cap, each flavor weight within +-flavor_window when given.

    Returns a list of (pbwkey, Grading) including the vacuum ().
    """
    if not isinstance(spin_cap, (int, Fraction)):
        raise ValueError("spin cap must be an int or a Fraction, got %r"
                         % (spin_cap,))
    # the mode range is an integer bound; spins compare with the exact cap
    depth = ceil(spin_cap) * 4 + word_cap + 4
    for gi, g in enumerate(gens):
        # a_(n), n<0 adds spin s-n-1 >= s; finiteness needs s > 0, an odd
        # parity at s = 0 (no repeats), or a flavor constraint
        if g.grading.spin < 0 and flavor_window is None:
            raise InfiniteGradedPiece(g.name)
        if g.grading.spin == 0 and not g.grading.tot and flavor_window is None:
            raise InfiniteGradedPiece(g.name)

    # spins scaled by D, the lcm of their denominators, are ints, so a
    # partial key carries (cohdeg, D*spin, parity, flavor) as ints, with
    # every flavor padded to one width, against the cap floor(D*spin_cap)
    D = lcm(*(g.grading.spin.denominator for g in gens))
    cap = floor(spin_cap * D)
    width = max((len(g.grading.flavor) for g in gens), default=0)
    steps = [(g.grading.cohdeg, int(g.grading.spin * D), g.grading.parity,
              g.grading.flavor + (0,) * (width - len(g.grading.flavor)),
              g.grading.tot) for g in gens]
    out = [((), 0, 0, 0, (0,) * width)]
    frontier = out[:]
    while frontier:
        nxt = []
        for key, deg, spin, par, fl in frontier:
            if len(key) >= word_cap:
                continue
            g0, n0 = key[-1] if key else (0, 0)
            for gi in range(g0, len(gens)):
                gdeg, gspin, gpar, gfl, odd = steps[gi]
                # keys stay sorted by (gi, n): after (g0, n0) the same
                # generator takes n0 <= n <= -1, and n0 again only if
                # even; after the vacuum (n0 = 0) every n is open
                stop = n0 - 1 + odd if gi == g0 and n0 else -depth
                for n in range(-1, stop, -1):
                    mspin = gspin - (n + 1) * D
                    if spin + mspin > cap:
                        if mspin > 0:
                            break  # more negative n only raises spin
                        continue
                    nxt.append((key + ((gi, n),), deg + gdeg, spin + mspin,
                                par + gpar, tuple(map(add, fl, gfl))))
        out.extend(nxt)
        frontier = nxt
    # flavor is filtered only on the final monomials: intermediate sorted
    # prefixes may leave and re-enter the window
    if flavor_window is not None:
        out = [e for e in out if all(abs(f) <= flavor_window for f in e[4])]
    out.sort(key=lambda e: (len(e[0]), tuple((gi, -n) for gi, n in e[0])))
    return [(key, Grading(deg, Fraction(spin, D), par, fl))
            for key, deg, spin, par, fl in out]
