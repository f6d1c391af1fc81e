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

The torus of the sl2 action (h = 2(a - b)) grades R by the weight
w = a - b; the rewrite x^2 -> 1 - z*lam keeps it, and d' raises it by
one.  So d' is block diagonal: the block of weight w takes the weight-w
monomials of total degree <= cap to the weight-(w + 1) ones, and every
elimination reads only the blocks it needs.  `is_exact` eliminates the
block below each weight its target has.  `check_cohomology_window`
eliminates every block once (`d_blocks`), lets `cohomology_basis` read
their kernels, and reads z^n from the weight-n block's kernel and each
lam^n omega and weight-t monomial from the weight-(t - 1) block's image.
"""

from fractions import Fraction

from .scalars import as_vector, sum_str, vadd, vsub
from .linalg import column_kernel, rational_coords, in_span


# APoly: {(a, b, e): coefficient} with e in {0,1}; keys are z^a lam^b
# x^e.  An APoly is a vector of the scalars layer, so its sums are
# vadd/vsub.

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

    def __init__(self, even, odd=None):
        self.even = apoly(even)
        self.odd = apoly(odd)

    @staticmethod
    def gen(name):
        key = {"z": (1, 0, 0), "lam": (0, 1, 0), "x": (0, 0, 1)}
        return AElement({key[name]: 1})

    def __sub__(self, other):
        return AElement(vsub(self.even, other.even),
                        vsub(self.odd, other.odd))


def a_mul(u, v):
    """Graded product; omega is odd but all R coefficients are even, so
    the only sign-sensitive product omega*omega vanishes outright."""
    even = apoly_mul(u.even, v.even)
    odd = vadd(apoly_mul(u.even, v.odd), apoly_mul(u.odd, v.even))
    return AElement(even, odd)


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


def _weight_monomials(cap, w):
    """The monomials of monomial_basis(cap) of weight a - b = w, in
    basis order."""
    return [(a, a - w, e) for a in range(max(w, 0), cap + 1)
            for e in (0, 1) if 2 * a - w + e <= cap]


def _d_block(cap, w):
    """d' on the weight-w monomials of total degree <= cap, which it
    sends into weight w + 1: (sources, index of the weight-(w + 1)
    monomials of total degree <= cap, and the column_kernel (echelon
    basis, kernel) of d' on the sources, tagged by position)."""
    sources = _weight_monomials(cap, w)
    index = {k: i for i, k in enumerate(_weight_monomials(cap, w + 1))}
    return (sources, index) + column_kernel(
        [rational_coords(d_poly({k: 1}), index) for k in sources])


def d_blocks(cap):
    """{w: _d_block(cap, w)} for the weights w = -cap..cap, in order."""
    return {w: _d_block(cap, w) for w in range(-cap, cap + 1)}


def cohomology_basis(blocks):
    """Representatives of H^0 (the kernel of d') on the
    filtration-by-total-degree piece <= cap, read off the kernels of
    blocks = d_blocks(cap); reliable one step inside the cap.  Each
    kernel is z^w alone (w >= 0), so this is the basis order."""
    reps = []
    for sources, _, _, kernel in blocks.values():
        reps += [apoly({sources[i]: q for i, q in v.items()})
                 for v in kernel]
    return reps


def is_exact(poly, cap):
    """Is the omega-coefficient poly in the image of d' (sources <= cap)?
    Returns a primitive APoly or None.  Each weight of poly is solved
    in its own block; CoordinateError if poly leaves the window."""
    blocks, coords = {}, {}
    for k, c in poly.items():
        w = k[0] - k[1] - 1
        if w not in blocks:
            blocks[w] = _d_block(cap, w)
        coords.setdefault(w, {}).update(
            rational_coords({k: c}, blocks[w][1]))
    prim = {}
    for w, vec in coords.items():
        sources, _, image, _ = blocks[w]
        res, comb = image.reduce(vec)
        if res:
            return None
        prim.update((sources[j], q) for j, q in comb.items())
    return apoly(dict(sorted(prim.items())))


def exactness_witness(m):
    """Primitive p with d'(p) = z*Om^(m+1) - Om^m, found by linear solve."""
    target = a_mul(AElement.gen("z"), omega_class(m + 1)) - omega_class(m)
    return is_exact(target.odd, m + 4)


def check_cohomology_window(cap):
    """Verify H^0 = span{z^n}, H^1 = span{lam^n omega} for total degree
    <= cap-1.  Returns (ok, failure witness or None)."""
    blocks = d_blocks(cap)
    # degree 0: representatives supported inside the window lie in C[z],
    # and they span every z^n there; z^n has weight n, so the kernel of
    # the weight-n block is the part of H^0 it can lie in
    for rep in cohomology_basis(blocks):
        if any(a + b + e > cap - 1 for (a, b, e) in rep):
            continue
        if any(b or e for (a, b, e) in rep):
            return False, ("H0", rep)
    for n in range(cap):
        sources, _, _, kernel = blocks[n]
        if not in_span(kernel, {sources.index((n, 0, 0)): 1}):
            return False, ("H0-missing", n)
    # degree 1: each lam^n omega is non-exact, and every monomial inside
    # the window is congruent to C[lam]omega modulo the image; a
    # weight-t monomial is a target of the weight-(t - 1) block
    def target(k):
        _, index, image, _ = blocks[k[0] - k[1] - 1]
        return image, {index[k]: 1}
    lams = [target((0, n, 0)) for n in range(cap)]
    for n, (image, vec) in enumerate(lams):
        if not image.reduce(vec)[0]:
            return False, ("H1-collapse", n)
    for n, (image, vec) in enumerate(lams):
        image.add(vec, ("lam", n))
    for k in monomial_basis(cap):
        if sum(k) > cap - 1:
            continue
        image, vec = target(k)
        if image.reduce(vec)[0]:
            return False, ("H1-extra", k)
    return True, None


def apoly_str(u):
    terms = []
    for a, b, e in sorted(u):
        mono = "*".join(["z^%d" % a] * (a > 0) + ["lam^%d" % b] * (b > 0)
                        + ["x"] * e)
        terms.append((u[a, b, e], mono))
    return sum_str(terms)
