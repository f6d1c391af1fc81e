from fractions import Fraction

from hypothesis import given, settings, strategies as st

from raviolo.scalars import (
    Param, Scalar, Grading, koszul_sign, binom, ZERO,
    K_PARAM, KAPPA_PARAM, XI_PARAM, vadd, vscale, vsub, veq,
    degrees_of, rational_of, twist,
)


K = Scalar.param(K_PARAM)
kap = Scalar.param(KAPPA_PARAM)
xi = Scalar.param(XI_PARAM)


def test_rational_product():
    a = Scalar.from_rational(Fraction(2, 3))
    b = Scalar.from_rational(Fraction(3, 4))
    assert a * b == Scalar.from_rational(Fraction(1, 2))


def test_odd_square_vanishes():
    assert (kap * kap).is_zero()
    assert (xi * xi).is_zero()
    assert not (K * K).is_zero()


def test_even_polynomial_ring():
    assert K * (K + 1) == K * K + K


def test_odd_anticommute():
    assert kap * xi == -(xi * kap)
    assert not (kap * xi).is_zero()


def test_graded_commutative_with_even():
    assert K * kap == kap * K


def test_subs():
    s = K * kap + Scalar.from_rational(2)
    assert s.subs({"K": 1}) == kap + 2
    assert s.subs({"kappa": 0}) == Scalar.from_rational(2)


def test_str_roundtrip_sanity():
    assert str(Scalar.zero()) == "0"
    assert "K" in str(K)


# random scalars built from the three builtin parameters, with integer
# and non-integer rational coefficients
def _scalars():
    gens = st.sampled_from([K, kap, xi, Scalar.one(),
                            Scalar.from_rational(Fraction(1, 2))])
    coeff = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.sampled_from([Fraction(1, 3), Fraction(-2, 5), Fraction(2, 5),
                         Fraction(-3, 2), Fraction(4, 2)]))

    def build(parts):
        out = Scalar.zero()
        for c, gs in parts:
            term = Scalar.from_rational(c)
            for g in gs:
                term = term * g
            out = out + term
        return out

    return st.lists(
        st.tuples(coeff, st.lists(gens, max_size=3)), max_size=3
    ).map(build)


@settings(max_examples=200, deadline=None)
@given(_scalars(), _scalars(), _scalars())
def test_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=200, deadline=None)
@given(_scalars(), _scalars())
def test_graded_commutative(a, b):
    # graded commutativity on homogeneous pieces: check via odd/even split
    # of each operand (monomial-by-monomial)
    def split(s):
        ev, od = Scalar.zero(), Scalar.zero()
        for mono, c in s.terms.items():
            p = sum(q.tot for q in mono) % 2
            piece = Scalar({mono: c})
            if p:
                od = od + piece
            else:
                ev = ev + piece
        return ev, od

    ae, ao = split(a)
    be, bo = split(b)
    assert ae * be == be * ae
    assert ae * bo == bo * ae
    assert ao * be == be * ao
    assert ao * bo == -(bo * ao)


def _canonical(s):
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in s.terms.values())


@settings(max_examples=200, deadline=None)
@given(_scalars(), _scalars(), _scalars())
def test_distributive_and_cancelling(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + b - b == a
    for s in (a * b, a + b, a - b, a * (b + c), -a):
        assert _canonical(s), s


@settings(max_examples=200, deadline=None)
@given(_scalars())
def test_parity_twist_is_an_involution(a):
    assert a.parity_twist(1).parity_twist(1) == a
    assert a.parity_twist(0) == a
    assert _canonical(a.parity_twist(1))


def test_integral_coefficients_are_ints():
    two = Scalar({(): Fraction(4, 2)})
    assert two == Scalar({(): 2}) and hash(two) == hash(Scalar({(): 2}))
    assert type(two.terms[()]) is int
    assert type(Scalar.one().terms[()]) is int
    assert type(K.terms[(K_PARAM,)]) is int
    half = Scalar.from_rational(Fraction(1, 2))
    assert type((half + half).terms[()]) is int
    assert type((half * 2).terms[()]) is int
    assert type((half * K * 2).terms[(K_PARAM,)]) is int
    # an int-coefficient scalar and its Fraction-built twin are one key
    assert len({Scalar({(K_PARAM,): Fraction(3)}), 3 * K}) == 1
    assert str(half * K + Fraction(-4, 2)) == "-2 + 1/2*K"


@settings(max_examples=100, deadline=None)
@given(_scalars())
def test_rational_value_is_a_fraction(a):
    q = a.rational_value()
    if set(a.terms) <= {()}:
        assert type(q) is Fraction
        assert Scalar.from_rational(q) == a
    else:
        assert q is None


@settings(max_examples=100, deadline=None)
@given(_scalars(), _scalars(), _scalars())
def test_vadd_leaves_src_unchanged(a, b, c):
    src = {k: v for k, v in (("x", a), ("y", b)) if not v.is_zero()}
    snapshot = {k: Scalar(dict(v.terms)) for k, v in src.items()}
    dst = {"x": c} if not c.is_zero() else {}
    vadd(dst, src)
    vadd(dst, src, c)
    vadd(dst, src, Fraction(1, 3))
    assert src == snapshot
    assert veq(dst, {"x": c + a + c * a + a * Fraction(1, 3),
                     "y": b + c * b + b * Fraction(1, 3)})


def test_binom_matches_fraction_product():
    def old_binom(n, k):
        num = Fraction(1)
        for i in range(k):
            num *= Fraction(n - i)
        den = 1
        for i in range(1, k + 1):
            den *= i
        return num / den

    for n in range(-6, 7):
        for k in range(0, 7):
            b = binom(n, k)
            assert type(b) is int and b == old_binom(n, k), (n, k)


def test_koszul_sign():
    e = Grading(0, 0, 0)
    f1 = Grading(1, 0, 0)   # cohdeg 1, even: totalized odd
    o0 = Grading(1, 0, 1)   # cohdeg 1, odd: totalized even
    assert koszul_sign(e, e) == 1
    assert koszul_sign(f1, f1) == -1
    assert koszul_sign(o0, e) == 1
    assert koszul_sign(o0, f1) == 1


def test_koszul_symmetric():
    gs = [Grading(c, 0, p) for c in range(-2, 3) for p in (0, 1)]
    for g1 in gs:
        for g2 in gs:
            assert koszul_sign(g1, g2) * koszul_sign(g2, g1) == 1


def test_totalized_parity_additive():
    gs = [Grading(c, Fraction(s, 2), p) for c in range(-1, 3)
          for s in range(-2, 3) for p in (0, 1)]
    for g1 in gs:
        for g2 in gs:
            assert (g1 + g2).tot == (g1.tot + g2.tot) % 2


def test_grading_add_flavor():
    g1 = Grading(0, 1, 0, (1,))
    g2 = Grading(1, 1, 0, (0, 2))
    assert (g1 + g2).flavor == (1, 2)


def test_binom():
    assert binom(5, 2) == 10
    assert binom(-1, 2) == 1
    assert binom(-2, 1) == -2
    assert binom(3, 0) == 1
    assert binom(2, 5) == 0


def test_vector_helpers():
    v = {"a": Scalar.one()}
    w = {"a": -Scalar.one(), "b": K}
    s = dict(v)
    vadd(s, w)
    assert "a" not in s and s["b"] == K
    assert veq(vscale(w, 2), {"a": Scalar.from_rational(-2), "b": 2 * K})
    assert veq(vsub(w, w), {})


def test_hash_agrees_with_eq():
    # a parameter-free Scalar equals its rational, so it must hash as one
    two = Scalar.from_rational(2)
    assert two == 2 and hash(two) == hash(2)
    assert len({two, 2}) == 1
    assert ZERO == 0 and hash(ZERO) == hash(0)
    assert len({ZERO, 0, Fraction(0)}) == 1
    half = Scalar.from_rational(Fraction(1, 2))
    assert len({half, Fraction(1, 2)}) == 1
    assert hash(K + 1) == hash(1 + K) and len({K + 1, K}) == 2
    assert not ZERO and two and K


def test_vector_helpers_demote_parameter_free_results():
    v = vadd({"a": K + 1}, {"a": -K, "b": Scalar.from_rational(3)})
    assert v == {"a": 1, "b": 3}
    assert all(type(c) is int for c in v.values())
    assert vscale({"a": K}, 0) == {}
    assert vscale({"a": kap}, kap) == {}
    h = vscale({"a": Fraction(1, 2), "b": 2 * K}, Scalar.from_rational(2))
    assert h == {"a": 1, "b": 4 * K} and type(h["a"]) is int
    d = vsub({"a": K + Fraction(1, 2)}, {"a": K})
    assert d == {"a": Fraction(1, 2)} and type(d["a"]) is Fraction
    assert veq({"a": 1}, {"a": Scalar.one()})


def test_readers_accept_both_kinds():
    for q in (0, 3, Fraction(-1, 2)):
        assert twist(q, 1) == q and degrees_of(q) == (0, 0)
        assert rational_of(q) == q
        assert rational_of(Scalar.from_rational(q)) == q
    assert type(rational_of(Scalar({(): Fraction(4, 2)}))) is int
    assert rational_of(K + 1) is None
    assert twist(kap + K, 1) == K - kap and twist(kap + K, 0) == kap + K
    assert degrees_of(kap) == (1, 0) and degrees_of(Scalar.one()) == (0, 0)
