from fractions import Fraction
from math import ceil

from raviolo import catalog
from raviolo.engine import ghost_extension
from raviolo.scalars import Scalar, Grading, K_PARAM, KAPPA_PARAM, XI_PARAM
from raviolo.modes import (
    GeneratorInfo, FieldExpr, OpeTable,
    bracket_from_ope, bracket_modes, expr_modes, vac_induce,
    InfiniteGradedPiece,
)

K = Scalar.param(K_PARAM)
KAP = Scalar.param(KAPPA_PARAM)
XI = Scalar.param(XI_PARAM)


# builtin-style generator data, stated from the hand tables
def fc_gens(s=0, r=0):
    X = GeneratorInfo("X", Grading(r, s, r % 2, (1,)))
    psi = GeneratorInfo("psi", Grading(1 - r, 1 - Fraction(s), r % 2, (-1,)))
    return X, psi


def fc_table():
    return OpeTable({
        ("psi", "X", 0): FieldExpr.const(K),
        ("X", "psi", 0): FieldExpr.const(K),
    })


def h_gens():
    b = GeneratorInfo("b", Grading(0, 1, 0))
    nu = GeneratorInfo("nu", Grading(1, 1, 0))
    return b, nu


def h_table():
    return OpeTable({
        ("b", "nu", 1): FieldExpr.const(K),
        ("nu", "b", 1): FieldExpr.const(-K),
    })


def vir_gen():
    return GeneratorInfo("Gamma", Grading(1, 2, 0))


def vir_table():
    half_xi = XI * Fraction(1, 2)
    return OpeTable({
        ("Gamma", "Gamma", 3): FieldExpr.const(half_xi),
        ("Gamma", "Gamma", 1): FieldExpr.gen("Gamma").scale(2),
        ("Gamma", "Gamma", 0): FieldExpr.gen("Gamma", 1),
    })


SL2 = ["e", "h", "f"]
SL2_F = {  # [a, b] = f^c_{ab} c
    ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1},
    ("h", "e"): {"e": 2}, ("e", "h"): {"e": -2},
    ("h", "f"): {"f": -2}, ("f", "h"): {"f": 2},
}
SL2_KILLING = {("e", "f"): 4, ("f", "e"): 4, ("h", "h"): 8}


def sl2_gens():
    return [GeneratorInfo("mu_" + a, Grading(1, 1, 0)) for a in SL2]


def sl2_table():
    entries = {}
    for a in SL2:
        for b in SL2:
            fab = SL2_F.get((a, b), {})
            if fab:
                expr = FieldExpr.zero()
                for c, v in fab.items():
                    expr = expr + FieldExpr.gen("mu_" + c).scale(v)
                entries[("mu_" + a, "mu_" + b, 0)] = expr
            hab = SL2_KILLING.get((a, b), 0)
            if hab:
                entries[("mu_" + a, "mu_" + b, 1)] = \
                    FieldExpr.const(KAP * hab)
    return OpeTable(entries)


ALL_PRESENTATIONS = [
    ("fc", list(fc_gens()), fc_table()),
    ("h", list(h_gens()), h_table()),
    ("vir", [vir_gen()], vir_table()),
    ("sl2", sl2_gens(), sl2_table()),
]


# ------------------------------------------------------------ text

def test_field_expr_text():
    # a compound constant is parenthesized, and -1 and a negative
    # coefficient fold into " - "
    e = FieldExpr({(): K + KAP, (("X", 0),): 1,
                   (("X", 0), ("Y", 0)): Fraction(-1, 2), (("Y", 1),): -1})
    assert str(e) == "(K + kappa) + X - 1/2*NO[X, Y] - D Y"
    assert str(FieldExpr.gen("X", 2).scale(-K)) == "-K*D^2 X"
    assert str(FieldExpr.const(3)) == "3"
    assert str(FieldExpr.zero()) == "0"


# ------------------------------------------------------------ gradings

def mode_grading(gen, n):
    """Grading of the mode g_(n) of a generator: cohdeg |g| for n < 0 and
    |g| - 1 for n >= 0, spin s - n - 1, the parity and flavor of g."""
    g = gen.grading
    drop = 1 if n >= 0 else 0
    return Grading(g.cohdeg - drop, g.spin - n - 1, g.parity, g.flavor)


def key_grading_reference(mod, key):
    """The Grading-sum rule: one Fraction-valued mode_grading per factor
    of the PBW key."""
    g = Grading(0, 0, 0)
    for gi, n in key:
        g = g + mode_grading(mod.gens[gi], n)
    return g


def test_mode_gradings():
    b, nu = h_gens()
    assert mode_grading(b, -1) == Grading(0, 1, 0)
    assert mode_grading(b, -3) == Grading(0, 3, 0)
    assert mode_grading(b, 0) == Grading(-1, 0, 0)
    assert mode_grading(nu, 2) == Grading(0, -2, 0)
    assert b.mode_parity(-1) == 0 and b.mode_parity(0) == 1
    assert nu.mode_parity(-1) == 1 and nu.mode_parity(0) == 0


# ------------------------------------------------------------ brackets

def test_fc_bracket_table():
    X, psi = fc_gens()
    t = fc_table()
    for n in range(0, 7):
        for m in range(0, 7):
            # [psi_(n), X_(-m-1)] = delta_{n,m} K
            out = bracket_modes(psi, n, X, -m - 1, t)
            want = {(None, -1): K} if n == m else {}
            assert out == want, (n, m, out)
            out = bracket_modes(X, n, psi, -m - 1, t)
            assert out == want, (n, m, out)


def test_fc_nonnegative_pairs_vanish():
    X, psi = fc_gens()
    t = fc_table()
    for n in range(0, 5):
        for l in range(0, 5):
            assert bracket_modes(psi, n, X, l, t) == {}


def test_negative_pairs_vanish():
    for _, gens, t in ALL_PRESENTATIONS:
        for a in gens:
            for b in gens:
                for n in range(-4, 0):
                    for m in range(-4, 0):
                        assert bracket_from_ope(a, n, b, m, t) \
                            == []


def test_h_bracket_table():
    b, nu = h_gens()
    t = h_table()
    for n in range(0, 7):
        for m in range(0, 7):
            # [nu_(n), b_(-m-1)] = -n delta_{n,m+1} K
            out = bracket_modes(nu, n, b, -m - 1, t)
            want = {(None, -1): -n * K} if n == m + 1 else {}
            assert out == want, (n, m, out)
            # [nu_(-n-1), b_(m)] = m delta_{n+1,m} K
            out = bracket_modes(nu, -n - 1, b, m, t)
            want = {(None, -1): m * K} if m == n + 1 else {}
            assert out == want, (n, m, out)


def test_virasoro_central_value():
    G = vir_gen()
    t = vir_table()
    # [G_3, Gamma_0] with G_m = Gamma_(m), Gamma_n = Gamma_(-n-1)
    out = bracket_modes(G, 3, G, -1, t)
    assert out == {(None, -1): XI * Fraction(1, 2)}


def test_virasoro_mixed_table():
    # [G_m, Gamma_n] = m(m-1)(m-2)/12 xi (n+3 = m), 0 (n+2 = m or n+3 < m),
    # (m+n+1) Gamma_{n-m+1} (n+1 >= m)
    G = vir_gen()
    t = vir_table()
    for m in range(0, 7):
        for n in range(0, 7):
            out = bracket_modes(G, m, G, -n - 1, t)
            want = {}
            if n + 3 == m:
                want = {(None, -1): XI * Fraction(m * (m - 1) * (m - 2), 12)}
            elif n + 1 >= m:
                c = Scalar.from_rational(m + n + 1)
                if not c.is_zero():
                    want = {("Gamma", m - n - 2): c}
            assert out == want, (m, n, out)


def test_virasoro_positive_witt():
    # [G_m, G_n] = (m-n) G_{m+n-1}, no central term among nonnegative modes
    G = vir_gen()
    t = vir_table()
    for m in range(0, 7):
        for n in range(0, 7):
            out = bracket_modes(G, m, G, n, t)
            want = {}
            if m != n and m + n - 1 >= 0:
                want = {("Gamma", m + n - 1): Scalar.from_rational(m - n)}
            assert out == want, (m, n, out)


def test_current_bracket_is_loop_algebra():
    gens = {g.name: g for g in sl2_gens()}
    t = sl2_table()
    for a in SL2:
        for b in SL2:
            for n in range(0, 4):
                for m in range(0, 4):
                    out = bracket_modes(gens["mu_" + a], n,
                                        gens["mu_" + b], m, t)
                    want = {}
                    for c, v in SL2_F.get((a, b), {}).items():
                        want[("mu_" + c, n + m)] = Scalar.from_rational(v)
                    # level term n*h_ab*kappa only at n+m = 0, so n=m=0
                    # where the binomial kills it
                    assert out == want, (a, b, n, m, out)


# ---------------------------------------------- Lie-algebra structure

def _mode_parity(gens_by_name, key):
    name, t = key
    if name is None:
        return 0
    return gens_by_name[name].mode_parity(t)


def _bracket_combo(x, y, gens_by_name, table):
    """Extend bracket_modes bilinearly to mode combinations; the identity
    mode (None,-1) is central."""
    out = {}
    for (n1, t1), c1 in x.items():
        for (n2, t2), c2 in y.items():
            if n1 is None or n2 is None:
                continue
            res = bracket_modes(gens_by_name[n1], t1, gens_by_name[n2], t2,
                                table)
            for key, c in res.items():
                s = out.get(key, Scalar.zero()) + c1 * c2 * c
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
    return out


def test_bracket_antisymmetry_and_jacobi():
    for name, gens, table in ALL_PRESENTATIONS:
        by_name = {g.name: g for g in gens}
        idx = range(-3, 4)
        modes = [(g.name, n) for g in gens for n in idx]
        for ka in modes:
            for kb in modes:
                xa, xb = {ka: Scalar.one()}, {kb: Scalar.one()}
                ab = _bracket_combo(xa, xb, by_name, table)
                ba = _bracket_combo(xb, xa, by_name, table)
                sgn = -1 if (_mode_parity(by_name, ka)
                             and _mode_parity(by_name, kb)) else 1
                for key in set(ab) | set(ba):
                    lhs = ab.get(key, Scalar.zero())
                    rhs = -(sgn * ba.get(key, Scalar.zero()))
                    assert lhs == rhs, (name, ka, kb, key)
        # the nonnegative modes close into a subalgebra
        for a in gens:
            for b in gens:
                for n in range(0, 4):
                    for m in range(0, 4):
                        out = bracket_modes(a, n, b, m, table)
                        assert all(t >= 0 for _, t in out), \
                            (name, a, n, b, m, out)
        small = [(g.name, n) for g in gens for n in (-2, -1, 0, 1, 2)]
        for ka in small:
            for kb in small:
                for kc in small:
                    xa = {ka: Scalar.one()}
                    xb = {kb: Scalar.one()}
                    xc = {kc: Scalar.one()}
                    lhs = _bracket_combo(
                        xa, _bracket_combo(xb, xc, by_name, table),
                        by_name, table)
                    r1 = _bracket_combo(
                        _bracket_combo(xa, xb, by_name, table), xc,
                        by_name, table)
                    sgn = -1 if (_mode_parity(by_name, ka)
                                 and _mode_parity(by_name, kb)) else 1
                    r2 = _bracket_combo(
                        xb, _bracket_combo(xa, xc, by_name, table),
                        by_name, table)
                    for key in set(lhs) | set(r1) | set(r2):
                        want = r1.get(key, Scalar.zero()) \
                            + sgn * r2.get(key, Scalar.zero())
                        assert lhs.get(key, Scalar.zero()) == want, \
                            (name, ka, kb, kc, key)


def _translate_combo(x):
    """(d a)_(t) = -t a_(t-1), read off expr_modes of the derivative."""
    out = {}
    for (name, t), c in x.items():
        if name is None:
            continue  # the identity field is translation invariant
        for c2, _, t2 in expr_modes(FieldExpr.gen(name, 1), t):
            key = (name, t2)
            s = out.get(key, Scalar.zero()) + c2 * c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return out


def test_translation_is_bracket_derivation():
    for name, gens, table in ALL_PRESENTATIONS:
        by_name = {g.name: g for g in gens}
        modes = [(g.name, n) for g in gens for n in range(-3, 4)]
        for ka in modes:
            for kb in modes:
                xa, xb = {ka: Scalar.one()}, {kb: Scalar.one()}
                lhs = _translate_combo(
                    _bracket_combo(xa, xb, by_name, table))
                rhs = _bracket_combo(_translate_combo(xa), xb,
                                     by_name, table)
                for key, c in _bracket_combo(
                        xa, _translate_combo(xb),
                        by_name, table).items():
                    s = rhs.get(key, Scalar.zero()) + c
                    if s.is_zero():
                        rhs.pop(key, None)
                    else:
                        rhs[key] = s
                assert lhs == rhs, (name, ka, kb)


def test_expr_modes_derivative_rule():
    # (d^k g)_(t) = (-1)^k k! C(t,k) g_(t-k)
    e = FieldExpr.gen("Gamma", 1)
    out = expr_modes(e, 4)
    assert out == [(Scalar.from_rational(-4), "Gamma", 3)]
    out = expr_modes(FieldExpr.gen("Gamma", 2), -1)
    # (-1)^2 2! C(-1,2) = 2 * 1 = 2
    assert out == [(Scalar.from_rational(2), "Gamma", -3)]
    assert expr_modes(FieldExpr.const(K), -1) == [(K, None, -1)]
    assert expr_modes(FieldExpr.const(K), 2) == []
    # the translation derivation (d a)_(n) = -n a_(n-1): it kills the
    # zero mode, and on mu_{a,n}-type labels a_(n) with n = -3 it gives
    # (d mu)_(-3) = 3 mu_(-4), i.e. "d mu_{a,2} = 3 mu_{a,3}"
    assert expr_modes(e, -1) == [(1, "Gamma", -2)]
    assert expr_modes(e, 0) == []
    assert expr_modes(FieldExpr.gen("mu", 1), -3) == [(3, "mu", -4)]


# ------------------------------------------------------------ PBW

def test_vac_induce_virasoro():
    basis = vac_induce([vir_gen()], 4, 6)
    keys = [k for k, _ in basis]
    assert keys == [(), ((0, -1),), ((0, -2),), ((0, -3),)]
    spins = {k: g.spin for k, g in basis}
    assert spins[((0, -1),)] == 2 and spins[((0, -3),)] == 4


def test_vac_induce_trivial():
    assert vac_induce([], 5, 5) == [((), Grading(0, 0, 0))]


def test_vac_induce_heisenberg_counts():
    basis = vac_induce(list(h_gens()), 3, 8)
    by_spin = {}
    for k, g in basis:
        by_spin[g.spin] = by_spin.get(g.spin, 0) + 1
    # hand count: nu modes are totalized-odd (no repeats), b bosonic
    assert by_spin[0] == 1
    assert by_spin[1] == 2
    assert by_spin[2] == 4
    assert by_spin[3] == 8


def test_vac_induce_no_odd_repeats():
    basis = vac_induce([vir_gen()], 8, 8)
    for k, _ in basis:
        assert len(set(k)) == len(k)


def test_vac_induce_infinite_piece_rejected():
    X, psi = fc_gens(0, 0)
    try:
        vac_induce([X, psi], 2, 4)
        assert False, "expected InfiniteGradedPiece"
    except InfiniteGradedPiece as e:
        assert e.gen_name == "X"
    # a generator of negative spin is refused whatever the flavor window
    low = GeneratorInfo("low", Grading(0, -1, 0, (1,)))
    for fw in (None, 0, 2):
        try:
            vac_induce([low, psi], 2, 4, flavor_window=fw)
            assert False, "expected InfiniteGradedPiece"
        except InfiniteGradedPiece as e:
            assert e.gen_name == "low"


def test_vac_induce_flavor_window():
    X, psi = fc_gens(0, 0)
    basis = vac_induce([X, psi], 2, 4, flavor_window=2)
    for k, g in basis:
        assert all(abs(f) <= 2 for f in g.flavor)
    # X_(-1)^2 (charge 2) present, X_(-1)^3 (charge 3) absent
    keys = [k for k, _ in basis]
    assert ((0, -1), (0, -1)) in keys
    assert ((0, -1), (0, -1), (0, -1)) not in keys


def test_vac_induce_order_independent_dimensions():
    gens = list(h_gens())
    b1 = vac_induce(gens, 3, 8)
    b2 = vac_induce(list(reversed(gens)), 3, 8)

    def dims(basis):
        out = {}
        for _, g in basis:
            key = (g.spin, g.cohdeg % 2 if False else g.cohdeg, g.parity)
            out[key] = out.get(key, 0) + 1
        return out

    assert dims(b1) == dims(b2)


def _vac_induce_by_grading_sums(gens, spin_cap, word_cap,
                                flavor_window=None):
    """The Grading-sum enumeration: one Fraction-valued Grading per
    candidate mode, compared with the exact cap."""
    depth = ceil(spin_cap) * 4 + word_cap + 4
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
                        continue
                    mg = mode_grading(g, n)
                    if last is not None and (gi, n) == last and \
                            g.mode_parity(n):
                        continue
                    ng = grading + mg
                    if ng.spin > spin_cap:
                        if mg.spin > 0:
                            break
                        continue
                    nxt.append((key + ((gi, n),), ng))
        out.extend(nxt)
        frontier = nxt
    if flavor_window is not None:
        out = [(k, gr) for k, gr in out
               if all(abs(f) <= flavor_window for f in gr.flavor)]
    return sorted(out, key=lambda kv: (len(kv[0]),
                                       tuple((gi, -n) for gi, n in kv[0])))


def test_vac_induce_matches_grading_reference():
    # the caps 9/2 (vir) and 5/2 (fc(1/3), spin denominator 3) are not
    # integers once scaled, so they tell a floor from a ceil; of the sl2
    # currents only mu_e and mu_f carry flavor, so a flavor sum must pad
    # mu_h's
    half, third = fc_gens(Fraction(1, 2)), fc_gens(Fraction(1, 3))
    currents = catalog.sl2().gens
    ghosts = ghost_extension(catalog.sl2(), [g.name for g in currents]).gens
    cases = [
        ([vir_gen()], 9, 4, None),
        ([vir_gen()], Fraction(9, 2), 4, None),
        (list(h_gens()), 3, 8, None),
        (half, 4, 6, 2),
        (half, Fraction(9, 2), 6, 2),
        (third, Fraction(7, 3), 6, 2),
        (third, Fraction(5, 2), 6, 2),
        (currents, 3, 4, 8),
        (ghosts, 2, 4, None),
        (fc_gens(0, 0), 2, 4, 2),
        ([], 5, 5, None),
    ]
    assert len({len(g.grading.flavor) for g in currents}) > 1
    for gens, cap, word, fw in cases:
        got = vac_induce(gens, cap, word, flavor_window=fw)
        want = _vac_induce_by_grading_sums(gens, cap, word, fw)
        assert got == want, ([g.name for g in gens], cap, word, fw)
        assert [type(gr.spin) for _, gr in got] == \
            [type(gr.spin) for _, gr in want]
