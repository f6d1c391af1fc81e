"""Exact scalars over declared central parameters, gradings, Koszul signs.

Scalars live in a graded-commutative polynomial ring over Q generated by
central parameters.  A parameter whose totalized parity (cohomological
degree + intrinsic parity, mod 2) is odd squares to zero and anticommutes
with other odd parameters.  Every other module builds on this layer.
"""

from fractions import Fraction
from collections import namedtuple


class Param(namedtuple("Param", "name cohdeg parity")):
    """A central parameter.  parity: 0 = even, 1 = odd (intrinsic)."""

    __slots__ = ()

    @property
    def tot(self):
        # totalized parity governs all signs
        return (self.cohdeg + self.parity) % 2

    def __repr__(self):
        return "Param(%r, deg=%d, %s)" % (
            self.name, self.cohdeg, "odd" if self.parity else "even")


# the parameters used by the builtin algebras
K_PARAM = Param("K", 0, 0)        # bosonic central generator
KAPPA_PARAM = Param("kappa", 1, 0)  # degree +1, totalized odd
XI_PARAM = Param("xi", 1, 0)        # degree +1, totalized odd


def _merge_monomials(m1, m2):
    """Multiply two sorted monomials (tuples of Param).

    Returns (sign, monomial) or None when an odd parameter repeats.
    The sign comes from moving each factor of m2 into place past the
    odd factors of m1 that follow it.
    """
    out = []
    sign = 1
    i = j = 0
    # number of odd factors remaining in m1[i:]
    odd_tail = [0] * (len(m1) + 1)
    for k in range(len(m1) - 1, -1, -1):
        odd_tail[k] = odd_tail[k + 1] + (m1[k].tot & 1)
    while i < len(m1) and j < len(m2):
        a, b = m1[i], m2[j]
        if a.name <= b.name:
            if a.name == b.name and a.tot & 1 and b.tot & 1:
                return None  # odd square
            out.append(a)
            i += 1
        else:
            if b.tot & 1 and odd_tail[i] & 1:
                sign = -sign
            out.append(b)
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    # repeated odd factor may appear adjacent after merge
    for k in range(len(out) - 1):
        if out[k] == out[k + 1] and out[k].tot & 1:
            return None
    return sign, tuple(out)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


class Scalar:
    """Element of the graded-commutative parameter ring over Q."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: {monomial tuple of Param: Fraction}, zeros dropped
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = _as_fraction(c)
                if c:
                    self.terms[mono] = c

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero():
        return Scalar()

    @staticmethod
    def one():
        return Scalar({(): Fraction(1)})

    @staticmethod
    def from_rational(q):
        return Scalar({(): _as_fraction(q)})

    @staticmethod
    def param(p):
        assert isinstance(p, Param)
        return Scalar({(p,): Fraction(1)})

    # -- predicates --------------------------------------------------

    def is_zero(self):
        return not self.terms

    def rational_value(self):
        """The constant value if this scalar has no parameters, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    def parity_twist(self, p):
        """Sign an operator of parity p picks up passing this scalar:
        negate the odd-parameter monomials when p is odd."""
        if p % 2 == 0:
            return self
        out = {}
        for mono, q in self.terms.items():
            if sum(pp.tot for pp in mono) % 2:
                out[mono] = -q
            else:
                out[mono] = q
        return Scalar(out)

    def degrees(self):
        """(cohdeg, parity) if homogeneous; (0, 0) for rationals."""
        ds = {(sum(p.cohdeg for p in mono), sum(p.parity for p in mono) % 2)
              for mono in self.terms}
        if not ds:
            return (0, 0)
        if len(ds) > 1:
            raise ValueError("scalar of mixed degree: %s" % self)
        return ds.pop()

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
        r = Scalar()
        r.terms = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = Scalar()
        r.terms = {m: -c for m, c in self.terms.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            r = Scalar()
            if c:
                r.terms = {m: c * v for m, v in self.terms.items()}
            return r
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged = _merge_monomials(m1, m2)
                if merged is None:
                    continue
                sign, mono = merged
                s = out.get(mono, Fraction(0)) + sign * c1 * c2
                if s:
                    out[mono] = s
                elif mono in out:
                    del out[mono]
        r = Scalar()
        r.terms = out
        return r

    def __rmul__(self, other):
        # rationals are even; no sign
        return self.__mul__(other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def subs(self, assignment):
        """Substitute parameters by name: {name: Scalar|int|Fraction}."""
        out = Scalar.zero()
        for mono, c in self.terms.items():
            term = Scalar.from_rational(c)
            for p in mono:
                if p.name in assignment:
                    v = assignment[p.name]
                    if not isinstance(v, Scalar):
                        v = Scalar.from_rational(v)
                    term = term * v
                else:
                    term = term * Scalar.param(p)
            out = out + term
        return out

    # -- display -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (len(m), [p.name for p in m])):
            c = self.terms[mono]
            names = "*".join(p.name for p in mono)
            if not mono:
                s = str(c)
            elif c == 1:
                s = names
            elif c == -1:
                s = "-" + names
            else:
                s = "%s*%s" % (c, names)
            bits.append(s)
        out = bits[0]
        for s in bits[1:]:
            out += (" - " + s[1:]) if s.startswith("-") else (" + " + s)
        return out

    __repr__ = __str__


ZERO = Scalar.zero()
ONE = Scalar.one()


class Grading(namedtuple("Grading", "cohdeg spin parity flavor")):
    """(cohomological degree, spin, intrinsic parity, flavor weights)."""

    __slots__ = ()

    def __new__(cls, cohdeg=0, spin=0, parity=0, flavor=()):
        return super().__new__(cls, cohdeg, Fraction(spin), parity % 2,
                               tuple(flavor))

    @property
    def tot(self):
        return (self.cohdeg + self.parity) % 2

    def __add__(self, other):
        fl1, fl2 = self.flavor, other.flavor
        n = max(len(fl1), len(fl2))
        fl1 = fl1 + (0,) * (n - len(fl1))
        fl2 = fl2 + (0,) * (n - len(fl2))
        return Grading(self.cohdeg + other.cohdeg, self.spin + other.spin,
                       (self.parity + other.parity) % 2,
                       tuple(a + b for a, b in zip(fl1, fl2)))


def koszul_sign(g1, g2):
    """(-1)^(|g1||g2|) with |g| the totalized parity."""
    return -1 if (g1.tot and g2.tot) else 1


# -- small vector helpers used throughout ---------------------------
# A "vector" is a dict {hashable key: Scalar} with zero entries dropped.

def vadd(dst, src, coeff=None):
    """dst += coeff*src in place (coeff multiplies from the left)."""
    for k, v in src.items():
        if coeff is not None:
            if isinstance(coeff, Scalar):
                v = coeff * v
            else:
                v = _as_fraction(coeff) * v
        s = dst.get(k, ZERO) + v
        if s.is_zero():
            dst.pop(k, None)
        else:
            dst[k] = s
    return dst


def vscale(v, coeff):
    out = {}
    for k, c in v.items():
        s = coeff * c if isinstance(coeff, Scalar) else _as_fraction(coeff) * c
        if not s.is_zero():
            out[k] = s
    return out


def vsub(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, ZERO) - v
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def veq(a, b):
    return not vsub(a, b)


def binom(n, k):
    """Generalized binomial C(n, k) for integer n (possibly negative), k >= 0."""
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(n - i)
    den = 1
    for i in range(1, k + 1):
        den *= i
    return num / den
