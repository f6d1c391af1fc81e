from fractions import Fraction
from math import factorial

from raviolo.scalars import Scalar, K_PARAM, binom, vadd
from raviolo.engine import _expansion
from raviolo.series import (
    RavSeries, BiDist,
    delta_expand, delta_decompose, delta_build,
    format_series, combine_indices,
)

K = Scalar.param(K_PARAM)


def _plus(x, y):
    """The sum of two distributions, within the smaller truncations."""
    return BiDist(vadd(dict(x.terms), y.terms), min(x.ztr, y.ztr),
                  min(x.wtr, y.wtr))


# ---------------------------------------------------------------- basics

def test_monomial_products():
    # the one-variable product rule in each slot of a BiDist
    T = 10

    def zslot(i, i2):
        return BiDist({(i, -1): 1}, T, T).mul_series_z(
            RavSeries({i2: 1}, T)).terms

    def wslot(j, j2):
        return BiDist({(-1, j): 1}, T, T).mul_series_w({(j2,): 1}).terms

    for slot, key in ((zslot, lambda k: (k, -1)), (wslot, lambda k: (-1, k))):
        assert slot(-3, 5) == {key(3): 1}       # z^2 Omega^5 = Omega^3
        assert slot(-8, 5) == {}                # z^7 Omega^5 = 0
        assert slot(5, 5) == {}                 # Omega Omega = 0
        assert slot(-3, -4) == {key(-6): 1}     # z^2 z^3 = z^5
    # an Omega_z moved left past an Omega_w takes the Koszul sign
    assert BiDist({(-1, 2): 1}, T, T).mul_series_z(
        RavSeries({3: 1}, T)).terms == {(3, 2): -1}


def test_residue_picks_omega0():
    T = 10
    f = BiDist({(0, -1): 1, (3, -1): 2, (-2, -1): 5}, T, T)
    assert f.residue_z() == {(-1,): 1}
    # Res_z dz Omega^m_z z^n = delta_{n,m}, here in front of w
    for n in range(4):
        for m in range(4):
            b = BiDist({(m, -2): 1}, T, T).mul_series_z(
                RavSeries({-n - 1: 1}, T))
            assert b.residue_z() == ({(-2,): 1} if n == m else {})


# ---------------------------------------------------------------- text

def test_format_example():
    f = RavSeries({-3: 3, 1: -2, 3: K}, 8)
    assert format_series(f) == "3*z^2 - 2*O[1] + K*O[3]"


# ---------------------------------------------------------------- delta

def test_delta_kernel_is_derivative():
    # Delta^(j) = (1/j!) d_w^j Delta
    def dw(b):
        # d/dw sends mon_w(l) to (-l-1) mon_w(l+1) in both towers
        return BiDist({(i, l + 1): (-l - 1) * c for (i, l), c in
                       b.terms.items() if l != -1}, b.ztr, b.wtr - 1)
    T = 12
    for j in range(4):
        d = delta_expand("full", 0, T)
        for _ in range(j):
            d = dw(d)
        d = d.scale(Fraction(1, factorial(j)))
        diff = d - delta_expand("full", j, T)
        assert diff.first_within(T - j, T - j) == {}, j


def test_delta_halves_sum():
    T = 8
    full = delta_expand("full", 2, T)
    half = _plus(delta_expand("minus", 2, T), delta_expand("plus", 2, T))
    assert full.terms == half.terms


def test_z_minus_w_lowers_kernel():
    # (z-w) d_w^j Delta = j d_w^(j-1) Delta, i.e. on Delta^(j) it gives
    # Delta^(j-1)
    T = 12
    for j in range(1, 4):
        d = delta_expand("full", j, T)
        rhs = delta_expand("full", j - 1, T)
        assert (d.mul_z() - d.mul_w() - rhs).first_within(T - 1, T - 1) \
            == {}
    d = delta_expand("full", 0, T)
    assert (d.mul_z() - d.mul_w()).first_within(T - 1, T - 1) == {}


def _series(terms):
    """A series in w for the empty trailing key, {(j,): c}."""
    return {(j,): c for j, c in terms.items() if c}


def _window(g, t):
    """The entries of a keyed series {(j,) + key: c} within Taylor
    depth t."""
    return {k: c for k, c in g.items() if k[0] >= 0 or -k[0] - 1 <= t}


def _random_glist(rng, N):
    return [_series({rng.randint(-3, 3): rng.randint(-3, 3)
                     for _ in range(rng.randint(0, 3))})
            for _ in range(N + 1)]


def test_decompose_spec_examples():
    T = 10
    one = _series({-1: 1})
    d0 = delta_build([one], T)
    gl, fails = delta_decompose(d0, 0)
    assert fails == {} and len(gl) == 1 and gl[0] == one
    # d_w Delta -> g0 = 0, g1 = 1
    d1 = delta_build([{}, one], T)
    gl, fails = delta_decompose(d1, 1)
    assert fails == {}
    assert gl[0] == {} and gl[1] == one


def test_decompose_roundtrip_random():
    import random
    rng = random.Random(5)
    T = 10
    for _ in range(20):
        N = rng.randint(0, 2)
        glist = _random_glist(rng, N)
        f = delta_build(glist, T)
        out, fails = delta_decompose(f, N)
        assert fails == {}, fails
        for g, h in zip(out, glist):
            # compare within the guaranteed window
            assert _window(g, T - N - 3) == _window(h, T - N - 3)


def test_decompose_accepts_polar_g_deeper_than_the_window():
    # genuine sums whose g has Omega^p_w entries with p > T: Delta's
    # w^a Omega^a_z terms meet them in polar-polar entries, which every
    # window compares, so the rebuild must expand Delta to depth p
    import random
    rng = random.Random(23)
    assert delta_decompose(BiDist({(0, 1): 1, (1, 0): 1}, 0, 0), 0) == \
        ([_series({1: 1})], {})
    for _ in range(60):
        T, N = rng.randint(0, 5), rng.randint(0, 3)
        glist = [_series({rng.randint(-3, T + 5): rng.randint(-3, 3)
                          for _ in range(rng.randint(1, 3))})
                 for _ in range(N + 1)]
        f = BiDist(delta_build(glist, T + 5).terms, T, T)
        out, fails = delta_decompose(f, N)
        assert fails == {}, (T, N, glist, fails)
        for g, h in zip(out, glist):
            assert _window(g, T - N) == _window(h, T - N), (T, N, glist)


def test_decompose_failure_witnesses():
    T = 8
    # the constant distribution 1 is not (z-w)-torsion
    f = BiDist({(-1, -1): 1}, T, T)
    assert delta_decompose(f, 0)[1][()][0] == "vanishing"
    # the minus half of Delta alone violates the Omega-replacement rule
    f = delta_expand("minus", 0, T)
    assert delta_decompose(f, 0)[1][()][0] == "omega-replacement"
    # the witness is the least key the condition compared: the least key
    # of (z-w) f is z^4 (key (-5, -1)), which lies beyond ztr = 3
    f = BiDist({(-4, -1): 1, (-1, -2): 1}, 3, 3)
    assert delta_decompose(f, 0)[1] == {(): ("vanishing", (-4, -2))}


def _stack(slices):
    """One BiDist holding the distribution slices[key] at each trailing
    key (key,)."""
    T = min(b.ztr for b in slices.values())
    return BiDist({ij + (key,): c for key, b in slices.items()
                   for ij, c in b.terms.items()}, T, T)


def test_decompose_builds_each_power_once(monkeypatch):
    """Both conditions and the extraction read one table of (w-z)^j f,
    j = 0..N+1, for all trailing keys at once: one mul_w and one mul_z
    per power, however many keys f holds."""
    import random
    rng = random.Random(7)
    N, T = 2, 8
    f = _stack({key: delta_build(_random_glist(rng, N), T)
                for key in range(4)})
    assert len({k[2:] for k in f.terms}) > 1
    calls = {"mul_w": 0, "mul_z": 0}
    for name in calls:
        method = getattr(BiDist, name)

        def counted(self, _name=name, _method=method):
            calls[_name] += 1
            return _method(self)
        monkeypatch.setattr(BiDist, name, counted)
    out, fails = delta_decompose(f, N)
    assert fails == {}
    assert calls == {"mul_w": N + 1, "mul_z": N + 1}


def test_decompose_keys_do_not_leak():
    """Decomposing the stacked vector gives, at every trailing key,
    exactly what decomposing that key's slice alone gives, when one
    slice is corrupted by a monomial or by a delta half."""
    import random
    rng = random.Random(11)
    T = 8
    conditions = set()
    for _ in range(12):
        N = rng.randint(0, 2)
        slices = {key: delta_build(_random_glist(rng, N), T)
                  for key in range(5)}
        bad = rng.randrange(5)
        if rng.random() < 0.5:
            junk = BiDist({(rng.randint(-4, 3), rng.randint(-4, 3)): 1},
                          T, T)
        else:
            junk = delta_expand(rng.choice(["minus", "plus"]),
                                rng.randint(0, N), T)
        slices[bad] = _plus(slices[bad], junk.scale(rng.choice([1, -2])))
        glist, fails = delta_decompose(_stack(slices), N)
        for key, b in slices.items():
            alone, alone_fails = delta_decompose(b, N)
            assert fails.get((key,)) == alone_fails.get(()), key
            for n in range(N + 1):
                assert {k[:1]: c for k, c in glist[n].items()
                        if k[1:] == (key,)} == alone[n], (key, n)
            if key != bad:
                assert (key,) not in fails
        conditions.update(f[0] for f in fails.values())
    # the corruptions reach both conditions
    assert conditions == {"vanishing", "omega-replacement"}


# ------------------------------------------------ the degree-2 relation

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
        out = _plus(out, cur.scale(c))
    return out


def _raw_factor_image(x, m, region, T):
    """Omega^m_x, x in z, w or d (the z-w tower), near w = 0 or z = 0:
    Omega^m_{z-w} is Delta_-^(m) near w = 0 and -Delta_+^(m) near z = 0."""
    big = 999  # exact monomials: unbounded trust
    if x == "z":
        return BiDist({(m, -1): 1}, big, big)
    if x == "w":
        return BiDist({(-1, m): 1}, big, big)
    if region == "w_near_0":
        return delta_expand("minus", m, T)
    return delta_expand("plus", m, T).scale(-1)


def _raw_expand(raw_terms, region, T):
    """The terms (coeff, a, b, Omega factors in written order), each
    z^a w^b times its factors, multiplied out near w = 0 or z = 0."""
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
        pref = BiDist({(-a - 1, -b - 1): 1}, 999, 999)
        total = _plus(total, _bidist_mul(pref, cur).scale(c))
    return total


def test_deg2_relation_expands_to_zero():
    # the Delta halves satisfy the degree-2 raviolo relation
    # Omega_{z-w} Omega_z + Omega_w Omega_{z-w} + Omega_z Omega_w = 0
    # as distributions near w = 0 and near z = 0
    rel = [
        (1, 0, 0, (("d", 0), ("z", 0))),
        (1, 0, 0, (("w", 0), ("d", 0))),
        (1, 0, 0, (("z", 0), ("w", 0))),
    ]
    T = 12
    for region in ("w_near_0", "z_near_0"):
        assert _raw_expand(rel, region, T).first_within(6, 6) == {}, \
            region


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
    """Raw terms of mon_u(t), u = z-w, times the listed w factors (an
    Omega_w written to its right)."""
    if t >= 0:
        return [(1, 0, 0, (("d", t),) + wfactor)]
    k = -t - 1
    return [((-1) ** (k - i) * binom(k, i), i, k - i, wfactor)
            for i in range(k + 1)]


def test_region_expansion_closed_forms():
    # engine._expansion against the closed form, and against the raw
    # product of the Delta halves with mon_w(l) inside the window
    A = 7
    for t in range(-5, 5):
        for l in range(-5, 5):
            mon_w = {(l,): 1}
            # w^b or Omega^l_w written to the right of mon_u(t)
            if l < 0:
                inside = [(c, a, b - l - 1, oms)
                          for c, a, b, oms in _mon_u_raw(t)]
            else:
                inside = _mon_u_raw(t, (("w", l),))
            for region in ("w_near_0", "z_near_0"):
                want = _region_reference(t, l, region, A)
                got = BiDist({(m, j): c for m, j, c in
                              _expansion(region, t, A)}, A, A)
                assert got.mul_series_w(mon_w).terms == want.terms, \
                    (t, l, region)
                raw = _raw_expand(inside, region, A) - want
                assert raw.first_within(A, A) == {}, (t, l, region)


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
                got = delta_expand(kind, n, T).mul_series_w({(lp,): 1})
                assert got.terms == _delta_reference(kind, n, lp, T).terms, \
                    (kind, n, lp)


def test_combine_indices_rule():
    assert combine_indices(-3, -2) == -4      # z^2 * z^1 = z^3
    assert combine_indices(-2, 3) == 2        # z * Omega^3 = Omega^2
    assert combine_indices(-5, 3) is None     # z^4 * Omega^3 = 0
    assert combine_indices(2, 4) is None      # Omega * Omega = 0
