"""Exact scalars over declared central parameters, gradings, Koszul signs.

Scalars live in a graded-commutative polynomial ring over Q generated by
central parameters.  A parameter whose totalized parity (cohomological
degree + intrinsic parity, mod 2) is odd squares to zero and anticommutes
with other odd parameters.  Every other module builds on this layer.
"""

from fractions import Fraction
from collections import namedtuple
from math import factorial


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
    """The canonical exact coefficient: an int when integral, else a
    Fraction with denominator > 1."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


# monomial -> its totalized parity is odd; a pure function of the
# monomial, so entries never go stale
_ODD = {}


def _mono_odd(mono):
    odd = _ODD.get(mono)
    if odd is None:
        odd = _ODD[mono] = sum(p.tot for p in mono) % 2 == 1
    return odd


def _scalar(terms):
    """Wrap a canonical {monomial: coefficient} dict, zeros dropped."""
    r = object.__new__(Scalar)
    r.terms = terms
    return r


class Scalar:
    """Element of the graded-commutative parameter ring over Q.

    Coefficients are exact and canonical: an int when integral, a
    Fraction only while a denominator is present.  Scalars are immutable
    -- no operation changes `terms` in place -- so states and vector
    helpers may share one Scalar between several dicts.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: {monomial tuple of Param: int | Fraction}, zeros dropped
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
        return Scalar({(): 1})

    @staticmethod
    def from_rational(q):
        return Scalar({(): q})

    @staticmethod
    def param(p):
        if not isinstance(p, Param):
            raise ValueError("not a Param: %r" % (p,))
        return Scalar({(p,): 1})

    # -- predicates --------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def rational_value(self):
        """The constant value (a Fraction) if this scalar has no
        parameters, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and () in self.terms:
            return Fraction(self.terms[()])
        return None

    def parity_twist(self, p):
        """Sign an operator of parity p picks up passing this scalar:
        negate the odd-parameter monomials when p is odd."""
        if not p % 2:
            return self
        terms = self.terms
        flips = [m for m in terms if _mono_odd(m)]
        if not flips:
            return self
        out = dict(terms)
        for m in flips:
            out[m] = -out[m]
        return _scalar(out)

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
        if not isinstance(other, Scalar):
            other = Scalar.from_rational(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = c
                continue
            s = _as_fraction(s + c)
            if s:
                out[mono] = s
            else:
                del out[mono]
        return _scalar(out)

    __radd__ = __add__

    def __neg__(self):
        return _scalar({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.from_rational(other)
        if not other.terms:
            return self
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = -c
                continue
            s = _as_fraction(s - c)
            if s:
                out[mono] = s
            else:
                del out[mono]
        return _scalar(out)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, c):
        # c: a canonical nonzero rational
        if c == 1:
            return self
        return _scalar({m: _as_fraction(c * v)
                        for m, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            c = _as_fraction(other)
            return self._scaled(c) if c else Scalar()
        a, b = self.terms, other.terms
        if not a or not b:
            return Scalar()
        # a pure rational factor needs no monomial merging
        if len(b) == 1 and () in b:
            return self._scaled(b[()])
        if len(a) == 1 and () in a:
            return other._scaled(a[()])
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                merged = _merge_monomials(m1, m2)
                if merged is None:
                    continue
                sign, mono = merged
                s = _as_fraction(out.get(mono, 0) + sign * c1 * c2)
                if s:
                    out[mono] = s
                elif mono in out:
                    del out[mono]
        return _scalar(out)

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
        # a parameter-free scalar equals its rational, so it hashes as
        # one; hash(2) == hash(Fraction(2)), so equal scalars hash equal
        t = self.terms
        if not t:
            return hash(0)
        if len(t) == 1 and () in t:
            return hash(t[()])
        return hash(frozenset(t.items()))

    def subs(self, assignment):
        """Substitute parameters by name: {name: Scalar|int|Fraction}."""
        if not any(p.name in assignment for mono in self.terms
                   for p in mono):
            return self
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


# -- coefficients and the sparse-vector primitive --------------------
# A coefficient is a Scalar only while it carries a parameter monomial;
# otherwise it is a canonical rational: an int, or a Fraction with
# denominator > 1.  The readers twist, rational_of and degrees_of accept
# both kinds, so no caller needs to know which one it holds.
#
# A "vector" is a dict {hashable key: coefficient} with zero entries
# dropped and every entry canonical.  Entries may be shared with other
# vectors: Scalars are immutable.  States, field expressions, series,
# distributions and dg-model polynomials are all vectors; vadd/vscale/
# vsub are the only code that adds, scales or subtracts them, so none
# of them keeps a zero or a parameter-free Scalar.

def canonical(c):
    """c as a canonical coefficient: a parameter-free Scalar becomes its
    rational, an integral Fraction an int."""
    t = type(c)
    if t is int:
        return c
    if t is Fraction:
        return c.numerator if c.denominator == 1 else c
    if t is Scalar:
        terms = c.terms
        if len(terms) > 1:
            return c
        if not terms:
            return 0
        q = terms.get(())
        return c if q is None else q
    return _as_fraction(c)


def twist(c, p):
    """The sign an operator of parity p puts on c when it passes it: the
    odd-parameter monomials of c negate when p is odd; a rational is
    even."""
    return c.parity_twist(p) if p % 2 and type(c) is Scalar else c


def rational_of(c):
    """The value of a parameter-free coefficient (int or Fraction);
    None when c carries a parameter."""
    c = canonical(c)
    return None if type(c) is Scalar else c


def degrees_of(c):
    """(cohdeg, parity) of a homogeneous coefficient; (0, 0) for a
    rational."""
    return c.degrees() if type(c) is Scalar else (0, 0)


def as_scalar(c):
    """c as a Scalar: a Scalar passes through, a rational is wrapped."""
    return c if isinstance(c, Scalar) else Scalar.from_rational(c)


def as_vector(terms):
    """A vector from {key: Scalar | int | Fraction}, canonical entries,
    zeros dropped."""
    return {k: s for k, c in (terms or {}).items() if (s := canonical(c))}


def _coeff(coeff):
    """A vector-helper coefficient in canonical form; None for 1."""
    if type(coeff) is not int:
        coeff = canonical(coeff)
    return None if coeff == 1 and type(coeff) is int else coeff


def vadd(dst, src, coeff=None):
    """dst += coeff*src in place (coeff multiplies from the left)."""
    if coeff is not None:
        coeff = _coeff(coeff)
        if coeff is not None and not coeff:
            return dst
    for k, v in src.items():
        if coeff is not None:
            v = coeff * v
        cur = dst.get(k)
        if cur is None:
            if type(v) is not int:
                v = canonical(v)
            if v:
                dst[k] = v
            continue
        s = cur + v
        if type(s) is not int:
            s = canonical(s)
        if s:
            dst[k] = s
        else:
            del dst[k]
    return dst


def vscale(v, coeff):
    coeff = _coeff(coeff)
    if coeff is None:
        return dict(v)
    if not coeff:
        return {}
    out = {}
    for k, c in v.items():
        s = coeff * c
        if type(s) is not int:
            s = canonical(s)
        if s:
            out[k] = s
    return out


def vsub(a, b):
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k)
        if cur is None:
            if type(v) is not int:
                v = canonical(v)
            if v:
                out[k] = -v
            continue
        s = cur - v
        if type(s) is not int:
            s = canonical(s)
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def veq(a, b):
    return a == b or not vsub(a, b)


_BINOM = {}


def binom(n, k):
    """Generalized binomial C(n, k) for integer n (possibly negative),
    k >= 0; an exact int."""
    if k < 0:
        return 0
    c = _BINOM.get((n, k))
    if c is None:
        num = 1
        for i in range(k):
            num *= n - i
        c = _BINOM[(n, k)] = num // factorial(k)
    return c
