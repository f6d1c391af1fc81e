from fractions import Fraction
from math import factorial

from hypothesis import given, settings, strategies as st

from raviolo.scalars import Scalar, K_PARAM, binom
from raviolo.series import (
    RavSeries, BiDist, DeltaKernel, TriElement,
    delta_expand, delta_decompose, delta_build,
    tri_normalize, expand_region,
    format_series, combine_indices,
)

K = Scalar.param(K_PARAM)


# ---------------------------------------------------------------- basics

def test_monomial_products():
    T = 10
    z2 = RavSeries.z_pow(2, T)
    om5 = RavSeries.omega(5, T)
    assert z2.mul(om5) == RavSeries.omega(3, T)
    assert RavSeries.z_pow(7, T).mul(om5) == RavSeries.zero(T)
    assert om5.mul(om5) == RavSeries.zero(T)
    assert z2.mul(RavSeries.z_pow(3, T)) == RavSeries.z_pow(5, T)


def test_derivative_rules():
    T = 10
    assert RavSeries.z_pow(3, T).dz() == RavSeries.z_pow(2, T).scale(3)
    assert RavSeries.omega(2, T).dz() == RavSeries.omega(3, T).scale(-3)
    assert RavSeries.one(T).dz() == RavSeries.zero(T)


def test_residue_picks_omega0():
    T = 10
    f = RavSeries({0: 1, 3: 2, -2: 5}, T, twist=1)
    assert f.residue() == Scalar.one()
    # Res dz Omega^m z^n = delta_{n,m}
    for n in range(4):
        for m in range(4):
            om = RavSeries.omega(m, T, twist=1)
            val = om.mul(RavSeries.z_pow(n, T)).residue()
            assert val == (Scalar.one() if n == m else Scalar.zero())


def test_pairing_nondegenerate_window():
    # <z^n, Omega^m> = delta pairs z^n with Omega^n; every monomial in a
    # finite window pairs nontrivially with exactly one dual monomial
    T = 6
    for n in range(T):
        f = RavSeries.z_pow(n, T, twist=Fraction(1, 2))
        g = RavSeries.omega(n, T, twist=Fraction(1, 2))
        assert f.mul(g).residue() == Scalar.one()
        assert g.mul(f).residue() == Scalar.one()


# ---------------------------------------------------------------- text

def test_format_example():
    f = RavSeries({-3: 3, 1: -2, 3: K}, 8)
    assert format_series(f) == "3*z^2 - 2*O[1] + K*O[3]"


# ---------------------------------------------------------------- delta

def test_delta_kernel_is_derivative():
    # Delta^(j) = (1/j!) d_w^j Delta
    T = 12
    for j in range(4):
        d = delta_expand(DeltaKernel("full", 0), T)
        for _ in range(j):
            d = d.dw()
        d = d.scale(Fraction(1, factorial(j)))
        assert d.eq_within(delta_expand(DeltaKernel("full", j), T), T - j, T - j)


def test_delta_halves_sum():
    T = 8
    full = delta_expand(DeltaKernel("full", 2), T)
    half = (delta_expand(DeltaKernel("minus", 2), T)
            + delta_expand(DeltaKernel("plus", 2), T))
    assert full == half


def test_z_minus_w_lowers_kernel():
    # (z-w) d_w^j Delta = j d_w^(j-1) Delta, i.e. on Delta^(j) it gives
    # Delta^(j-1)
    T = 12
    for j in range(1, 4):
        d = delta_expand(DeltaKernel("full", j), T)
        rhs = delta_expand(DeltaKernel("full", j - 1), T)
        assert (d.mul_z() - d.mul_w()).eq_within(rhs, T - 1, T - 1)
    d = delta_expand(DeltaKernel("full", 0), T)
    assert (d.mul_z() - d.mul_w()).is_zero_within(T - 1, T - 1)


def test_decompose_spec_examples():
    T = 10
    one = RavSeries.one(T)
    d0 = delta_build([one], T)
    gl, fail = delta_decompose(d0, 0)
    assert fail is None and len(gl) == 1 and gl[0] == one
    # d_w Delta -> g0 = 0, g1 = 1
    d1 = delta_build([RavSeries.zero(T), one], T)
    gl, fail = delta_decompose(d1, 1)
    assert fail is None
    assert gl[0] == RavSeries.zero(T) and gl[1] == one


def test_decompose_roundtrip_random():
    import random
    rng = random.Random(5)
    T = 10
    for _ in range(20):
        N = rng.randint(0, 2)
        glist = []
        for _ in range(N + 1):
            terms = {rng.randint(-3, 3): rng.randint(-3, 3)
                     for _ in range(rng.randint(0, 3))}
            glist.append(RavSeries(terms, T))
        f = delta_build(glist, T)
        out, fail = delta_decompose(f, N)
        assert fail is None, fail
        for g, h in zip(out, glist):
            # compare within the guaranteed window
            t = min(g.trunc, h.trunc, T - N - 3)
            assert RavSeries(g.terms, t) == RavSeries(h.terms, t)


def test_decompose_failure_witnesses():
    T = 8
    # the constant distribution 1 is not (z-w)-torsion
    f = BiDist({(-1, -1): 1}, T, T)
    out, fail = delta_decompose(f, 0)
    assert out is None and fail[0] == "vanishing"
    # the minus half of Delta alone violates the Omega-replacement rule
    f = delta_expand(DeltaKernel("minus", 0), T)
    out, fail = delta_decompose(f, 0)
    assert out is None and fail[0] == "omega-replacement"
    # the witness is the least key the condition compared: the least key
    # of (z-w) f is z^4 (key (-5, -1)), which lies beyond ztr = 3
    f = BiDist({(-4, -1): 1, (-1, -2): 1}, 3, 3)
    assert delta_decompose(f, 0) == (None, ("vanishing", (-4, -2)))


def test_decompose_builds_each_power_once(monkeypatch):
    """Both conditions and the extraction read one table of (w-z)^j f,
    j = 0..N+1: one mul_w and one mul_z per power."""
    import random
    rng = random.Random(7)
    N, T = 2, 8
    glist = [RavSeries({rng.randint(-3, 3): rng.randint(-3, 3)
                        for _ in range(3)}, T) for _ in range(N + 1)]
    f = delta_build(glist, T)
    calls = {"mul_w": 0, "mul_z": 0}
    for name in calls:
        method = getattr(BiDist, name)

        def counted(self, _name=name, _method=method):
            calls[_name] += 1
            return _method(self)
        monkeypatch.setattr(BiDist, name, counted)
    out, fail = delta_decompose(f, N)
    assert fail is None
    assert calls == {"mul_w": N + 1, "mul_z": N + 1}


# ---------------------------------------------------------- trivariate

def _bidist_mul(b1, b2):
    """Genuine product of two bivariate distributions, term by term of b1
    acting by left multiplication on b2 (independent oracle)."""
    out = BiDist({}, min(b1.ztr, b2.ztr), min(b1.wtr, b2.wtr))
    for (i, j), c in b1.terms.items():
        cur = b2
        if j >= 0:
            cur = cur.mul_omega_w(j)
        else:
            for _ in range(-j - 1):
                cur = cur.mul_w()
        if i >= 0:
            cur = cur.mul_omega_z(i)
        else:
            for _ in range(-i - 1):
                cur = cur.mul_z()
        out = out + cur.scale(c)
    return out


def _raw_factor_image(x, m, region, T):
    big = 999  # exact monomials: unbounded trust
    if region in ("w_near_0", "z_near_0"):
        if x == "z":
            return BiDist({(m, -1): 1}, big, big)
        if x == "w":
            return BiDist({(-1, m): 1}, big, big)
        if region == "w_near_0":
            return delta_expand(DeltaKernel("minus", m), T)
        return delta_expand(DeltaKernel("plus", m), T).scale(-1)
    # z_near_w: slots are (u = z-w, w)
    if x == "d":
        return BiDist({(m, -1): 1}, big, big)
    if x == "w":
        return BiDist({(-1, m): 1}, big, big)
    terms = {(-n - 1, m + n): Fraction((-1) ** n * binom(n + m, n))
             for n in range(T + 1)}
    return BiDist(terms, T, T)


def _raw_expand(raw_terms, region, T):
    total = BiDist({}, T, T)
    for c, a, b, oms in raw_terms:
        if oms:
            # the innermost factor needs extra depth: left factors can
            # carry Omega indices up to T+1 and the product guards on the
            # right factor's truncation
            cur = _raw_factor_image(*oms[-1], region=region, T=2 * T + 2)
            for x, m in reversed(oms[:-1]):
                cur = _bidist_mul(_raw_factor_image(x, m, region, T), cur)
        else:
            cur = BiDist({(-1, -1): 1}, 999, 999)
        # prefactor z^a w^b
        if region == "z_near_w":
            pref = BiDist(
                {(-i - 1, -(a - i + b) - 1): Fraction(binom(a, i))
                 for i in range(a + 1)}, 999, 999)
        else:
            pref = BiDist({(-a - 1, -b - 1): 1}, 999, 999)
        total = total + _bidist_mul(pref, cur).scale(c)
    return total


def test_deg2_relation_normalizes_to_zero():
    rel = [
        (1, 0, 0, (("d", 0), ("z", 0))),
        (1, 0, 0, (("w", 0), ("d", 0))),
        (1, 0, 0, (("z", 0), ("w", 0))),
    ]
    assert tri_normalize(rel, 8).terms == {}


def test_deg2_relation_expands_to_zero():
    # independent check: the relation is zero as a distribution in every
    # expansion region
    rel = [
        (1, 0, 0, (("d", 0), ("z", 0))),
        (1, 0, 0, (("w", 0), ("d", 0))),
        (1, 0, 0, (("z", 0), ("w", 0))),
    ]
    T = 12
    for region in ("w_near_0", "z_near_0", "z_near_w"):
        assert _raw_expand(rel, region, T).is_zero_within(6, 6), region


def test_same_tower_squares_vanish():
    for x in ("z", "w", "d"):
        raw = [(1, 0, 0, ((x, 1), (x, 2)))]
        assert tri_normalize(raw, 8).terms == {}


def test_degree_three_vanishes():
    raw = [(1, 0, 0, (("z", 0), ("w", 0), ("d", 0)))]
    assert tri_normalize(raw, 8).terms == {}


_OM = st.tuples(st.sampled_from(["z", "w", "d"]),
                st.integers(min_value=0, max_value=3))
_RAW = st.lists(
    st.tuples(st.integers(min_value=-3, max_value=3),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=2),
              st.lists(_OM, max_size=2).map(tuple)),
    max_size=3)


@settings(max_examples=60, deadline=None)
@given(_RAW, st.sampled_from(["w_near_0", "z_near_0", "z_near_w"]))
def test_normalize_respects_expansion(raw, region):
    # normal form and raw product must expand to the same distribution
    T = 14
    canon = tri_normalize(raw, T)
    lhs = expand_region(canon, region, T)
    rhs = _raw_expand(raw, region, T)
    assert lhs.eq_within(rhs, 6, 6), (raw, region)


def test_normalize_reduces_mixed_monomials():
    # z Omega^2_z = Omega^1_z, w Omega^0_w = 0, (z-w)-tower via z = u + w
    t = tri_normalize([(1, 1, 0, (("z", 2),))], 8)
    assert t.terms == {("z", 0, 1): Scalar.one()}
    t = tri_normalize([(1, 0, 1, (("w", 0),))], 8)
    assert t.terms == {}
    t = tri_normalize([(1, 1, 0, (("d", 1),))], 8)
    assert t.terms == {("d", 1, 1): Scalar.one(), ("d", 0, 0): Scalar.one()}


# ------------------------------------------- closed forms of the rules

def _region_reference(t, l, region, A):
    """mon_u(t) mon_w(l), u = z-w, re-expanded in closed form: for t >= 0
    Omega^t_u -> sum_a C(t+a, a) w^a Omega^(t+a)_z near w = 0 and
    (-1)^t sum_a C(t+a, a) z^a Omega^(t+a)_w near z = 0, a <= A; for
    t < 0 the polynomial (z-w)^k, k = -t-1, in either region."""
    out = {}

    def put(m, j, c):
        j = combine_indices(j, l)
        if j is not None:
            out[(m, j)] = c

    if t < 0:
        k = -t - 1
        for i in range(k + 1):
            put(-i - 1, -(k - i) - 1, (-1) ** (k - i) * binom(k, i))
    elif region == "w_near_0":
        for a in range(A + 1):
            put(t + a, -a - 1, binom(t + a, a))
    else:
        for a in range(A + 1):
            put(-a - 1, t + a, (-1) ** t * binom(t + a, a))
    return BiDist(out, A, A)


def _mon_u_raw(t, wfactor=()):
    """Raw trivariate terms of mon_u(t), u = z-w, times the listed w
    factors (an Omega_w written to its right)."""
    if t >= 0:
        return [(1, 0, 0, (("d", t),) + wfactor)]
    k = -t - 1
    return [((-1) ** (k - i) * binom(k, i), i, k - i, wfactor)
            for i in range(k + 1)]


def test_region_expansion_closed_forms():
    A = 7
    for t in range(-5, 5):
        for l in range(-5, 5):
            mon_w = RavSeries({l: 1}, A)
            # w^b or Omega^l_w inside the trivariate element
            if l < 0:
                inside = [(c, a, b - l - 1, oms)
                          for c, a, b, oms in _mon_u_raw(t)]
            else:
                inside = _mon_u_raw(t, (("w", l),))
            for region in ("w_near_0", "z_near_0"):
                want = _region_reference(t, l, region, A)
                outside = expand_region(
                    tri_normalize(_mon_u_raw(t), A), region, A)
                assert outside.mul_series_w(mon_w).terms == want.terms, \
                    (t, l, region)
                got = expand_region(tri_normalize(inside, A), region, A)
                assert got.terms == want.terms, (t, l, region)


def _delta_reference(kind, n, lp, T):
    """Delta_-^(n) or Delta_+^(n) times mon_w(lp), summed in closed form
    to Taylor order T."""
    out = {}
    for a in range(T + 1):
        if kind == "minus":
            l = combine_indices(-a - 1, lp)
            if l is not None:
                out[(a + n, l)] = binom(a + n, n)
        elif lp < 0 and n + a + lp + 1 >= 0:
            out[(-a - 1, n + a + lp + 1)] = (-1) ** (n + 1) * binom(n + a, n)
    return BiDist(out, T, T)


def test_delta_halves_closed_forms():
    T = 9
    for kind in ("minus", "plus"):
        for n in range(3):
            for lp in range(-7, 5):
                got = delta_expand(DeltaKernel(kind, n), T).mul_series_w(
                    RavSeries({lp: 1}, T))
                assert got.terms == _delta_reference(kind, n, lp, T).terms, \
                    (kind, n, lp)


def test_combine_indices_rule():
    assert combine_indices(-3, -2) == -4      # z^2 * z^1 = z^3
    assert combine_indices(-2, 3) == 2        # z * Omega^3 = Omega^2
    assert combine_indices(-5, 3) is None     # z^4 * Omega^3 = 0
    assert combine_indices(2, 4) is None      # Omega * Omega = 0
