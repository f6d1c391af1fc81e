"""Polynomial dg-algebra model whose cohomology realizes the raviolo
monomial calculus.

R = C[z, lambda, x] / (z*lambda + x^2 - 1), A = R + R*omega with omega of
degree +1 and differential d'(z) = 0, d'(lambda) = x*omega,
d'(x) = -(1/2) z*omega.  Normal-form monomials are z^a lam^b x^e with
e in {0,1}; the relation rewrites x^2 -> 1 - z*lam, which mixes total
degrees, so cohomology is computed on the total-degree filtration and
claims stop one step inside the cap.

H^0 = C[z]; H^1 = C[lam]*omega with distinguished classes
Om^m = ((2m+1)!! / (2^m m!)) lam^m omega satisfying z*Om^(m+1) = Om^m
up to exact terms.
"""

from fractions import Fraction

from .scalars import as_vector, vadd, vscale, vsub
from .linalg import (column_kernel, rational_coords, dense_coords, solve,
                     in_span)


# APoly: {(a, b, e): coefficient} with e in {0,1}; keys are z^a lam^b
# x^e.  An APoly is a vector of the scalars layer, so its sums are
# vadd/vsub/vscale.

apoly = as_vector
apoly_sub = vsub


def _put_reduced(poly, a, b, e, c):
    """Add c * z^a lam^b x^e, rewriting x^2 = 1 - z lam."""
    while e >= 2:
        # x^2 -> 1 - z lam
        _put_reduced(poly, a, b, e - 2, c)
        _put_reduced(poly, a + 1, b + 1, e - 2, -1 * c)
        return
    vadd(poly, {(a, b, e): c})


def apoly_mul(u, v):
    out = {}
    for (a1, b1, e1), c1 in u.items():
        for (a2, b2, e2), c2 in v.items():
            _put_reduced(out, a1 + a2, b1 + b2, e1 + e2, c1 * c2)
    return out


def d_poly(u):
    """d' on R, landing in R*omega (the omega is implicit)."""
    out = {}
    for (a, b, e), c in u.items():
        if b > 0:
            _put_reduced(out, a, b - 1, e + 1, b * c)
        if e > 0:
            _put_reduced(out, a + 1, b, e - 1, Fraction(-1, 2) * c)
    return out


def sl2_action(which, u):
    """e = z d_x - 2x d_lam, f = -lam d_x + 2x d_z, h = [e, f]."""
    out = {}
    for (a, b, e), c in u.items():
        if which == "e":
            if e > 0:
                _put_reduced(out, a + 1, b, e - 1, e * c)
            if b > 0:
                _put_reduced(out, a, b - 1, e + 1, -2 * b * c)
        elif which == "f":
            if e > 0:
                _put_reduced(out, a, b + 1, e - 1, -e * c)
            if a > 0:
                _put_reduced(out, a - 1, b, e + 1, 2 * a * c)
        elif which == "h":
            vadd(out, {(a, b, e): (2 * a - 2 * b) * c})
        else:
            raise ValueError(which)
    return out


class AElement:
    """even + odd*omega."""

    def __init__(self, even=None, odd=None):
        self.even = apoly(even)
        self.odd = apoly(odd)

    @staticmethod
    def gen(name):
        key = {"z": (1, 0, 0), "lam": (0, 1, 0), "x": (0, 0, 1)}
        if name == "omega":
            return AElement(None, {(0, 0, 0): 1})
        return AElement({key[name]: 1})

    @staticmethod
    def one():
        return AElement({(0, 0, 0): 1})

    def __add__(self, other):
        return AElement(vadd(dict(self.even), other.even),
                        vadd(dict(self.odd), other.odd))

    def __sub__(self, other):
        return AElement(vsub(self.even, other.even),
                        vsub(self.odd, other.odd))

    def scale(self, c):
        return AElement(vscale(self.even, c), vscale(self.odd, c))

    def is_zero(self):
        return not self.even and not self.odd


def a_mul(u, v):
    """Graded product; omega is odd but all R coefficients are even, so
    the only sign-sensitive product omega*omega vanishes outright."""
    even = apoly_mul(u.even, v.even)
    odd = vadd(apoly_mul(u.even, v.odd), apoly_mul(u.odd, v.even))
    return AElement(even, odd)


def a_diff(u):
    """d'; kills the omega part (its differential carries omega^2 = 0)."""
    return AElement(None, d_poly(u.even))


def omega_class(m):
    """Om^m = ((2m+1)!! / (2^m m!)) lam^m omega."""
    dfac = 1
    for k in range(1, 2 * m + 2, 2):
        dfac *= k
    fac = 1
    for k in range(1, m + 1):
        fac *= k
    return AElement(None, {(0, m, 0): Fraction(dfac, 2 ** m * fac)})


# ------------------------------------------------------------ cohomology

def monomial_basis(cap):
    """Normal-form R monomials of total degree a+b+e <= cap."""
    out = []
    for a in range(cap + 1):
        for b in range(cap + 1 - a):
            for e in (0, 1):
                if a + b + e <= cap:
                    out.append((a, b, e))
    return out


def _d_echelon(cap):
    """The monomials of total degree <= cap, their index, and the
    column_kernel (echelon basis, kernel) of d' on them, tagged by
    index."""
    basis = monomial_basis(cap)
    index = {k: i for i, k in enumerate(basis)}
    return (basis, index) + column_kernel(
        [rational_coords(d_poly({k: 1}), index) for k in basis])


def cohomology_basis(degree, cap):
    """Representatives of H^degree on the filtration-by-total-degree
    piece <= cap; reliable one step inside the cap."""
    if degree not in (0, 1):
        raise ValueError("the model has cohomology in degrees 0 and 1 only,"
                         " not %r" % (degree,))
    basis, _, image, kernel = _d_echelon(cap)
    if degree == 0:
        return [apoly({basis[i]: q for i, q in v.items()}) for v in kernel]
    return [apoly({k: 1}) for i, k in enumerate(basis) if i not in image.rows]


def is_exact(poly, cap):
    """Is the omega-coefficient poly in the image of d' (sources <= cap)?
    Returns a primitive APoly or None."""
    basis = monomial_basis(cap)
    index = {k: i for i, k in enumerate(basis)}
    cols = [dense_coords(d_poly({k: 1}), index) for k in basis]
    x = solve(list(zip(*cols)), dense_coords(poly, index))
    if x is None:
        return None
    return apoly({k: q for k, q in zip(basis, x) if q})


def exactness_witness(m, cap=None):
    """Primitive p with d'(p) = z*Om^(m+1) - Om^m, found by linear solve."""
    if cap is None:
        cap = m + 4
    target = a_mul(AElement.gen("z"), omega_class(m + 1)) - omega_class(m)
    return is_exact(target.odd, cap)


def check_cohomology_window(cap):
    """Verify H^0 = span{z^n}, H^1 = span{lam^n omega} for total degree
    <= cap-1.  Returns (ok, failure witness or None)."""
    basis, index, image, _ = _d_echelon(cap)
    # degree 0: representatives supported inside the window lie in C[z],
    # and they span every z^n there
    reps = cohomology_basis(0, cap)
    for rep in reps:
        if any(a + b + e > cap - 1 for (a, b, e) in rep):
            continue
        if any(b or e for (a, b, e) in rep):
            return False, ("H0", rep)
    vecs = [dense_coords(rep, index) for rep in reps]
    for n in range(cap):
        if not in_span(vecs, dense_coords({(n, 0, 0): 1}, index)):
            return False, ("H0-missing", n)
    # degree 1: each lam^n omega is non-exact, and every monomial inside
    # the window is congruent to C[lam]omega modulo the image
    lams = [{index[(0, n, 0)]: 1} for n in range(cap)]
    for n in range(cap):
        if not image.reduce(lams[n])[0]:
            return False, ("H1-collapse", n)
    for n in range(cap):
        image.add(lams[n], ("lam", n))
    for k in basis:
        if sum(k) > cap - 1:
            continue
        if image.reduce({index[k]: 1})[0]:
            return False, ("H1-extra", k)
    return True, None


def apoly_str(u, odd=False):
    if not u:
        return "0"
    bits = []
    for (a, b, e) in sorted(u):
        c = u[(a, b, e)]
        mono = "*".join(["z^%d" % a] * (a > 0) + ["lam^%d" % b] * (b > 0)
                        + ["x"] * e + (["omega"] if odd else []))
        if not mono:
            bits.append(str(c))
        else:
            cs = str(c)
            bits.append(mono if cs == "1" else "%s*%s" % (cs, mono))
    return " + ".join(bits)
