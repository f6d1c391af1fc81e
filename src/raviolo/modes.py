"""Modes, OPE tables, and the generic mode-commutator machinery.

Single mode convention a_(n) throughout: the field of a state a with spin
s is sum_{n<0} z^(-n-1) a_(n) + sum_{n>=0} Omega^n a_(n); the mode a_(n)
has cohomological degree |a| for n < 0 and |a|-1 for n >= 0, and raises
spin by s-n-1.  Per-example labels (X_n, c_n, J_{a,n}, G_m, ...) are
aliases converted to this convention.
"""

from fractions import Fraction
from math import ceil, factorial

from .scalars import Grading, binom, as_vector, vadd, vscale, vsub


class GeneratorInfo:
    def __init__(self, name, grading):
        self.name = name
        self.grading = grading  # grading of the state a

    def mode_grading(self, n):
        g = self.grading
        drop = 1 if n >= 0 else 0
        return Grading(g.cohdeg - drop, g.spin - n - 1, g.parity, g.flavor)

    def mode_parity(self, n):
        # the tot of mode_grading(n), without building it
        return (self.grading.tot + (n >= 0)) % 2

    def __repr__(self):
        return "GeneratorInfo(%r)" % self.name


class Mode:
    def __init__(self, gen, n):
        self.gen = gen
        self.n = n

    def __repr__(self):
        return "%s_(%d)" % (self.gen.name, self.n)


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

    def __neg__(self):
        return FieldExpr(vscale(self.terms, -1))

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

    def max_word(self):
        return max((len(m) for m in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, FieldExpr):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            fac = []
            for name, k in mono:
                fac.append(name if k == 0 else
                           ("D %s" % name if k == 1 else "D^%d %s" % (k, name)))
            body = "NO[%s]" % ", ".join(fac) if len(fac) > 1 else \
                   (fac[0] if fac else "1")
            cs = str(c)
            if body == "1":
                bits.append(cs)
            elif cs == "1":
                bits.append(body)
            else:
                if " + " in cs or " - " in cs:
                    cs = "(%s)" % cs
                bits.append("%s*%s" % (cs, body))
        return " + ".join(bits)

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


def bracket_from_ope(A, B, table):
    """Graded commutator [A_m, B_l] as a list of (int, FieldExpr, t),
    each meaning coeff * (expr field)_(t).

    Four cases by mode signs; C^n = a_(n) b from the table, N its largest
    singular index.
    """
    m, l = A.n, B.n
    if m < 0 and l < 0:
        return []
    N = table.max_index(A.gen.name, B.gen.name)
    if N is None:
        return []
    sign_a = (-1) ** (A.gen.grading.tot + 1)
    out = []
    if m >= 0 and l >= 0:
        lo, sign = 0, sign_a
    elif m >= 0 and l < 0:
        lo, sign = max(0, m + l + 1), 1
    else:  # m < 0, l >= 0
        lo, sign = max(0, m + l + 1), sign_a
    for n in range(lo, N + 1):
        cn = table.get(A.gen.name, B.gen.name, n)
        if not cn.terms:
            continue
        coeff = sign * binom(m, n)
        if coeff == 0:
            continue
        out.append((coeff, cn, m + l - n))
    return out


def bracket_modes(A, B, table):
    """bracket_from_ope resolved to elementary modes, for tables whose
    entries have at most one NOP factor.  Returns {(name_or_None, t):
    coefficient} with None denoting the identity field (nonzero only at
    -1)."""
    out = {}
    for coeff, expr, t in bracket_from_ope(A, B, table):
        for c2, name, t2 in expr_modes(expr, t):
            vadd(out, {(name, t2): coeff * c2})
    return out


def translate_mode(A):
    """(d a)_(n) = -n a_(n-1): the translation derivation on modes."""
    if A.n == 0:
        return []
    return [(-A.n, Mode(A.gen, A.n - 1))]


# ------------------------------------------------------------ vertex Lie

class VertexLieData:
    """Finitely supported vertex-Lie presentation: named basis elements
    with gradings, a flag marking central elements, and n-th products
    valued in linear combinations of basis names."""

    def __init__(self, gradings, products, central=()):
        self.gradings = dict(gradings)      # name -> Grading
        self.products = {}                  # (a, b, n) -> {name: coeff}
        self.central = set(central)
        for (a, b, n), val in products.items():
            if n < 0:
                raise ValueError("product index must be >= 0, got %r"
                                 % ((a, b, n),))
            clean = as_vector(val)
            if clean:
                self.products[(a, b, n)] = clean

    def label_parity(self, name, n):
        """Totalized parity of the label a_[n]; it coincides with the
        parity of the mode a_(n) (the degree shift of the construction
        cancels against the Omega degree for n < 0)."""
        g = self.gradings[name]
        return (g.tot + (1 if n >= 0 else 0)) % 2


def lie_rav_bracket(L, a, n, b, m):
    """[a_[n], b_[m]] = Koszul sign * sum_k C(n,k) (a_(k) b)_[n+m-k];
    central labels collapse to K_[-1].  The Koszul sign
    (-1)^((|a|+1)[n<0]) comes from commuting the Omega component of the
    label past the product; without it the bracket fails graded
    antisymmetry.

    Returns {(name, t): coefficient}; central names appear only at t = -1.
    """
    if n < 0 and m < 0:
        return {}  # Omega * Omega = 0 in the label coefficients
    # Koszul sign from moving the label's Omega component out past a
    sign = (-1) ** ((L.gradings[a].tot + 1) * (1 if n < 0 else 0))
    out = {}
    N = max([k for (x, y, k) in L.products if x == a and y == b],
            default=-1)
    for k in range(N + 1):
        prod = L.products.get((a, b, k), {})
        coeff = sign * binom(n, k)
        if coeff == 0:
            continue
        t = n + m - k
        if (n < 0 or m < 0) and t >= 0:
            continue  # z^p Omega^q = 0 for p > q
        # K (x) z^t and K (x) Omega^(t'>0) are d-exact
        vadd(out, {(name, t): c for name, c in prod.items()
                   if name not in L.central or t == -1}, coeff)
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

    vacuum = Grading(0, 0, 0)
    out = [((), vacuum)]
    frontier = [((), vacuum)]
    while frontier:
        nxt = []
        for key, grading in frontier:
            if len(key) >= word_cap:
                continue
            last = key[-1] if key else None
            for gi, g in enumerate(gens):
                if last is not None and gi < last[0]:
                    continue
                for n in range(-1, -depth, -1):
                    if last is not None and gi == last[0] and n < last[1]:
                        continue  # keep (gi asc, n asc) sorted keys
                    mg = g.mode_grading(n)
                    if last is not None and (gi, n) == last and \
                            g.mode_parity(n):
                        continue  # odd repeat
                    ng = grading + mg
                    if ng.spin > spin_cap:
                        if mg.spin > 0:
                            break  # more negative n only raises spin
                        continue
                    nxt.append((key + ((gi, n),), ng))
        out.extend(nxt)
        frontier = nxt
    # flavor is filtered only on the final monomials: intermediate sorted
    # prefixes may leave and re-enter the window
    if flavor_window is not None:
        out = [(k, gr) for k, gr in out
               if all(abs(f) <= flavor_window for f in gr.flavor)]
    return sorted(out, key=lambda kv: (len(kv[0]),
                                       tuple((gi, -n) for gi, n in kv[0])))
