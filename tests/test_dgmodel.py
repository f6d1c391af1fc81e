import random
from fractions import Fraction

import sympy

from raviolo.linalg import CoordinateError, column_kernel, in_span, \
    rational_coords
from raviolo.scalars import Scalar, vadd
from raviolo.dgmodel import (
    AElement, a_mul, apoly, apoly_mul, apoly_str, apoly_sub, d_poly,
    sl2_action, omega_class, cohomology_basis, d_blocks, is_exact,
    exactness_witness, check_cohomology_window, monomial_basis,
)
from raviolo import dgmodel

Z = AElement.gen("z")
LAM = AElement.gen("lam")
X = AElement.gen("x")
OMEGA = omega_class(0)


def _rand_apoly(rng, size=3):
    out = {}
    for _ in range(size):
        k = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1))
        c = rng.randint(-3, 3)
        if c:
            out[k] = Scalar.from_rational(c) + out.get(k, Scalar.zero())
    return apoly(out)


def _rand_elt(rng):
    return AElement(_rand_apoly(rng), _rand_apoly(rng))


def _zero(u):
    return not u.even and not u.odd


def _add(u, v):
    return AElement(vadd(dict(u.even), v.even), vadd(dict(u.odd), v.odd))


def _d(u):
    """d' on A; it kills the omega part (its differential carries
    omega^2 = 0)."""
    return AElement(None, d_poly(u.even))


def test_x_squared_relation():
    xx = a_mul(X, X)
    assert xx.even == apoly({(0, 0, 0): 1, (1, 1, 0): -1})  # 1 - z lam
    assert not xx.odd


def test_omega_squares_to_zero():
    assert _zero(a_mul(OMEGA, OMEGA))


def test_normal_form_monomial():
    zl = a_mul(Z, LAM)
    zlx = a_mul(zl, X)
    assert zlx.even == apoly({(1, 1, 1): 1})


def test_diff_generators():
    assert _zero(_d(Z))
    assert _d(LAM).odd == apoly({(0, 0, 1): 1})       # x omega
    assert _d(X).odd == apoly({(1, 0, 0): Fraction(-1, 2)})  # -z/2 omega
    assert _zero(_d(OMEGA))


def test_diff_of_relation_constant():
    rel = _add(a_mul(Z, LAM), a_mul(X, X))  # = 1 in the quotient
    assert rel.even == apoly({(0, 0, 0): 1})
    assert _zero(_d(rel))


def test_diff_lambda_squared():
    l2 = a_mul(LAM, LAM)
    assert _d(l2).odd == apoly({(0, 1, 1): 2})  # 2 lam x omega


def _sym(poly, z, lam, x):
    return sum(sympy.Rational(str(c)) * z**a * lam**b * x**e
               for (a, b, e), c in poly.items())


def test_d_poly_matches_sympy():
    # d' = x d/dlam - (z/2) d/dx on Q[z, lam, x], reduced by sympy's
    # remainder in x modulo x^2 - (1 - z lam)
    z, lam, x = sympy.symbols("z lam x")
    rng = random.Random(3)
    for _ in range(50):
        u = _rand_apoly(rng, 4)
        p = _sym(u, z, lam, x)
        want = sympy.rem(sympy.expand(x * sympy.diff(p, lam)
                                      - z / 2 * sympy.diff(p, x)),
                         x**2 - (1 - z * lam), x)
        assert sympy.expand(want - _sym(d_poly(u), z, lam, x)) == 0, u


def test_diff_is_derivation():
    # d'(uv) = d'(u) v + (-1)^|u| u d'(v) checked on homogeneous pieces
    rng = random.Random(4)
    for _ in range(30):
        u0 = AElement(_rand_apoly(rng))          # even
        u1 = AElement(None, _rand_apoly(rng))    # odd
        v = _rand_elt(rng)
        lhs = _d(a_mul(u0, v))
        rhs = _add(a_mul(_d(u0), v), a_mul(u0, _d(v)))
        assert _zero(lhs - rhs)
        lhs = _d(a_mul(u1, v))
        rhs = a_mul(_d(u1), v) - a_mul(u1, _d(v))
        assert _zero(lhs - rhs)


def test_sl2_examples():
    assert sl2_action("e", apoly({(0, 0, 1): 1})) == apoly({(1, 0, 0): 1})
    assert sl2_action("e", apoly({(0, 1, 0): 1})) == apoly({(0, 0, 1): -2})
    assert sl2_action("f", apoly({(0, 0, 1): 1})) == apoly({(0, 1, 0): -1})
    assert sl2_action("f", apoly({(1, 0, 0): 1})) == apoly({(0, 0, 1): 2})


def test_cohomology_small_window():
    reps0 = cohomology_basis(d_blocks(4))
    # degree 0 should contain 1, z, z^2, z^3 up to the filtration edge
    ok, witness = check_cohomology_window(4)
    assert ok, witness
    assert len(reps0) >= 4


def test_window_check_eliminates_each_block_once(monkeypatch):
    # the H^0 representatives are read off the blocks the window check
    # already built, so each weight's block is eliminated once
    weights, block = [], dgmodel._d_block

    def counted(cap, w):
        weights.append(w)
        return block(cap, w)
    monkeypatch.setattr(dgmodel, "_d_block", counted)
    assert check_cohomology_window(8) == (True, None)
    assert weights == list(range(-8, 9))


def test_cohomology_all_windows():
    for cap in range(1, 7):
        ok, witness = check_cohomology_window(cap)
        assert ok, (cap, witness)


def test_omega_class_normalization():
    # (2m+1)!!/(2^m m!) for m = 0,1,2: 1, 3/2, 15/8
    assert omega_class(0).odd == apoly({(0, 0, 0): 1})
    assert omega_class(1).odd == apoly({(0, 1, 0): Fraction(3, 2)})
    assert omega_class(2).odd == apoly({(0, 2, 0): Fraction(15, 8)})


def test_exactness_witnesses():
    for m in range(5):
        p = exactness_witness(m)
        assert p is not None, m
        target = a_mul(Z, omega_class(m + 1)) - omega_class(m)
        assert apoly_sub(d_poly(p), target.odd) == {}


def test_apoly_text():
    assert apoly_str(exactness_witness(0)) == "-lam^1*x"
    assert apoly_str(apoly({(0, 0, 0): 1, (1, 1, 0): -1})) == "1 - z^1*lam^1"
    assert apoly_str({}) == "0"


def test_witness_matches_hand_primitive():
    # -c_m/(m+1) * lam^(m+1) x is an explicit primitive; the solver's
    # answer must differ from it only by a closed (hence exact-free
    # kernel) element -- both must have the same differential
    for m in range(4):
        cm = omega_class(m).odd[(0, m, 0)]
        hand = apoly({(0, m + 1, 1): Fraction(-1, m + 1) * cm})
        target = a_mul(Z, omega_class(m + 1)) - omega_class(m)
        assert apoly_sub(d_poly(hand), target.odd) == {}


def test_nonexact_class_rejected():
    # omega itself is not exact
    assert is_exact(apoly({(0, 0, 0): 1}), 6) is None


def test_monomial_basis_count():
    basis = monomial_basis(2)
    # (a,b,e) with a+b+e <= 2: degree 0:1, degree 1:3, degree 2:5
    assert len(basis) == 9


def test_d_raises_weight_by_one():
    # the torus of the sl2 action grades R by w = a - b (h = 2w), and d'
    # maps weight w into weight w + 1, x^2 -> 1 - z lam included; the
    # eliminations rest on this, one weight block at a time
    rewritten = 0
    for k in monomial_basis(11):
        w = k[0] - k[1]
        assert sl2_action("h", {k: 1}) == ({k: 2 * w} if w else {}), k
        assert all(a - b == w + 1 for (a, b, e) in d_poly({k: 1})), k
        assert all(a - b == w for (a, b, e)
                   in apoly_mul({k: 1}, {(0, 0, 1): 1})), k
        # d'(lam^b x) passes through lam^(b-1) x^2
        rewritten += k[1] > 0 and k[2] == 1
    assert rewritten
    assert d_poly({(0, 1, 1): 1}) == {(0, 0, 0): 1, (1, 1, 0): Fraction(-3, 2)}


# ------------------------------------ the whole-basis elimination (reference)

def _whole_echelon(cap):
    """d' eliminated on every monomial of total degree <= cap at once."""
    basis = monomial_basis(cap)
    index = {k: i for i, k in enumerate(basis)}
    return (basis, index) + column_kernel(
        [rational_coords(d_poly({k: 1}), index) for k in basis])


def _whole_cohomology_basis(cap):
    basis, _, _, kernel = _whole_echelon(cap)
    return [apoly({basis[i]: q for i, q in v.items()}) for v in kernel]


def _whole_is_exact(poly, cap):
    basis, index, image, _ = _whole_echelon(cap)
    res, comb = image.reduce(rational_coords(poly, index))
    if res:
        return None
    return apoly({basis[j]: q for j, q in sorted(comb.items())})


def _whole_window(cap):
    basis, index, image, _ = _whole_echelon(cap)
    reps = _whole_cohomology_basis(cap)
    for rep in reps:
        if any(a + b + e > cap - 1 for (a, b, e) in rep):
            continue
        if any(b or e for (a, b, e) in rep):
            return False, ("H0", rep)
    vecs = [rational_coords(rep, index) for rep in reps]
    for n in range(cap):
        if not in_span(vecs, {index[(n, 0, 0)]: 1}):
            return False, ("H0-missing", n)
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


def _outcome(f, *args):
    """f's result with dict and list order, or its error and message."""
    try:
        out = f(*args)
    except CoordinateError as e:
        return "CoordinateError", str(e)
    return None if out is None else list(out.items())


def test_blocks_match_whole_basis_elimination():
    # per-weight blocks give the whole-basis results in the same order
    exact = vadd(d_poly({(0, 3, 1): 1, (2, 0, 1): Fraction(1, 3),
                         (1, 1, 0): 5}), d_poly({(4, 1, 1): -2}))
    assert len({a - b for (a, b, e) in exact}) == 4
    above = vadd(dict(exact), {(7, 0, 0): 1})       # above cap 6
    targets = [exact, {}, {(0, 0, 0): 1},
               vadd(dict(exact), {(0, 5, 0): 1}),
               {(0, 6, 0): 2, (1, 0, 0): 1},          # lam^cap: no sources
               above]
    for m in range(5):
        targets.append((a_mul(Z, omega_class(m + 1))
                        - omega_class(m)).odd)
    got = [_outcome(is_exact, t, 6) for t in targets]
    assert got == [_outcome(_whole_is_exact, t, 6) for t in targets]
    assert got[0] and got[1] == [] and got[2:5] == [None] * 3
    assert got[5] == ("CoordinateError",
                      "state leaves the enumerated window: (7, 0, 0)")
    for cap in range(1, 12):
        assert [list(r.items()) for r in cohomology_basis(d_blocks(cap))] \
            == [list(r.items()) for r in _whole_cohomology_basis(cap)], cap
        assert check_cohomology_window(cap) == _whole_window(cap) \
            == (True, None), cap
