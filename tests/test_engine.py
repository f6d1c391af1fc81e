"""Module realization tests.

The mode action is checked against independent Fock-space oracles first
(polynomial differentiation for the weight-one pair, Grassmann/polynomial
differentiation for the field-antifield pair), then the structure suite
runs on all builtin presentations.
"""

import random
from fractions import Fraction
from itertools import product
from math import ceil, factorial, floor

import pytest

from raviolo.scalars import (Scalar, Grading, KAPPA_PARAM, XI_PARAM,
                             rational_of, twist, vadd, veq)
from raviolo.modes import GeneratorInfo, OpeTable, FieldExpr
from raviolo.catalog import fc, sl2, virasoro, heisenberg
from raviolo.series import BiDist
from raviolo import engine
from raviolo.engine import (
    IDENTITIES, Presentation, PresentationError, PBWModule, verify_axioms,
    default_samples, check_locality, check_associativity,
    check_composite_fields, superpotential_check, differential_map,
    check_square_zero, dg_cohomology, cell_basis, state_coords,
    in_translation_image, simplicity_probe,
)

from test_modes import (fc_gens, fc_table, h_gens, h_table, vir_gen,
                        vir_table, sl2_gens, sl2_table, ALL_PRESENTATIONS,
                        K, KAP, XI)


# ------------------------------------------------- Fock-space oracles
#
# Oracle states use the same sorted-key format as the module, but the
# action is realized by multiplication and differentiation operators on
# a polynomial (resp. Grassmann) algebra -- no bracket recursion.

def _oadd(out, key, c):
    s = out.get(key, Fraction(0)) + c
    if s:
        out[key] = s
    elif key in out:
        del out[key]


def h_oracle(gi, n, state):
    """The K = 1 weight-one pair: b_(-n) multiplies by a commuting
    variable, nu_(-n) by a Grassmann one (nu is totalized odd); b_(m) is
    m times the left Grassmann derivative pairing with nu_(-m), nu_(m)
    is -m times the polynomial derivative pairing with b_(-m)."""
    out = {}
    for key, c in state.items():
        if n < 0:
            ent = (gi, n)
            if gi == 1 and ent in key:
                continue  # Grassmann square
            pos = len(key)
            sign = 1
            for i, e in enumerate(key):
                if e < ent:
                    if gi == 1 and e[0] == 1:
                        sign = -sign
                    continue
                pos = i
                break
            _oadd(out, key[:pos] + (ent,) + key[pos:], sign * c)
        elif gi == 0:
            tgt = (1, -n)
            if tgt in key and n:
                i = key.index(tgt)
                sign = (-1) ** sum(1 for e in key[:i] if e[0] == 1)
                _oadd(out, key[:i] + key[i + 1:], Fraction(n) * sign * c)
        else:
            tgt = (0, -n)
            coeff = Fraction(-n) * key.count(tgt)
            if coeff:
                k = list(key)
                k.remove(tgt)
                _oadd(out, tuple(k), coeff * c)
    return out


def fc_oracle(gi, n, state):
    """X_(-n) multiplies by a commuting variable, psi_(-n) by a
    Grassmann one; X_(m) is the left Grassmann derivative pairing with
    psi_(-m-1), psi_(m) the polynomial derivative pairing with X_(-m-1)
    (K = 1).  gi: 0 = X (even), 1 = psi (odd)."""
    out = {}
    for key, c in state.items():
        if n < 0:
            ent = (gi, n)
            if gi == 1 and ent in key:
                continue  # Grassmann square
            pos = len(key)
            sign = 1
            for i, e in enumerate(key):
                if e < ent:
                    if gi == 1 and e[0] == 1:
                        sign = -sign
                    continue
                pos = i
                break
            _oadd(out, key[:pos] + (ent,) + key[pos:], sign * c)
        elif gi == 0:
            tgt = (1, -n - 1)
            if tgt in key:
                i = key.index(tgt)
                sign = (-1) ** sum(1 for e in key[:i] if e[0] == 1)
                _oadd(out, key[:i] + key[i + 1:], sign * c)
        else:
            tgt = (0, -n - 1)
            coeff = Fraction(key.count(tgt))
            if coeff:
                k = list(key)
                k.remove(tgt)
                _oadd(out, tuple(k), coeff * c)
    return out


def _rational_state(st):
    out = {}
    for k, c in st.items():
        q = rational_of(c)
        assert q is not None
        out[k] = q
    return out


def _scan_words(module, oracle, alphabet, maxlen=3):
    for length in range(1, maxlen + 1):
        for word in product(alphabet, repeat=length):
            e = module.vacuum()
            o = {(): Fraction(1)}
            for gi, n in word:
                e = module.act(gi, n, e)
                o = oracle(gi, n, o)
            assert _rational_state(e) == o, word


def test_h_action_matches_fock_oracle():
    M = PBWModule(Presentation("h", list(h_gens()), h_table()),
                  spin_cap=8, word_cap=6, specialize={"K": 1})
    alphabet = [(gi, n) for gi in (0, 1) for n in (-2, -1, 0, 1, 2)]
    _scan_words(M, h_oracle, alphabet)


def test_fc_action_matches_fock_oracle():
    M = PBWModule(Presentation("fc", list(fc_gens()), fc_table()),
                  spin_cap=8, word_cap=6, specialize={"K": 1})
    alphabet = [(gi, n) for gi in (0, 1) for n in (-2, -1, 0, 1)]
    _scan_words(M, fc_oracle, alphabet)


# ------------------------------------------------- hand-computed values

def test_vir_singular_products():
    M = PBWModule(Presentation("vir", [vir_gen()], vir_table()),
                  spin_cap=6, word_cap=3)
    G = M.gen_state("Gamma")
    sing = M.ope_singular(G, G)
    assert set(sing) == {0, 1, 3}
    assert sing[3] == {(): XI * Fraction(1, 2)}
    assert sing[1] == {k: 2 * c for k, c in G.items()}
    assert sing[1] == {((0, -1),): Scalar.from_rational(2)}
    assert sing[0] == M.translate(G)


def test_sl2_singular_products():
    M = PBWModule(Presentation("sl2", sl2_gens(), sl2_table()),
                  spin_cap=6, word_cap=3)
    e, h, f = (M.gen_state("mu_" + a) for a in "ehf")
    assert M.field_mode(e, 0, f) == h
    assert M.field_mode(e, 1, f) == {(): KAP * 4}
    assert M.field_mode(h, 1, h) == {(): KAP * 8}
    assert M.field_mode(e, 0, e) == {}
    assert M.field_mode(h, 0, e) == {k: 2 * c for k, c in e.items()}


def test_odd_parameter_mode_twist():
    # the field of a state with an odd central coefficient flips that
    # coefficient on its annihilation modes; the creation modes do not
    M = PBWModule(Presentation("sl2", sl2_gens(), sl2_table()),
                  spin_cap=6, word_cap=4)
    e, h, f = (M.gen_state("mu_" + a) for a in "ehf")
    ef = M.nop(e, f)
    c1 = M.field_mode(e, 1, ef)
    assert c1 == {((0, -1),): KAP * (-4)}
    # annihilation mode: coefficient re-enters with the opposite sign
    assert M.field_mode(c1, 0, h) == {((0, -1),): KAP * (-8)}
    # creation mode: coefficient passes through unchanged
    assert M.field_mode(c1, -1, h) == \
        {((0, -1), (1, -1)): KAP * (-4)}


def _two_level_field_mode(mod, a, t, v):
    """field_mode as the sum over akeys of mono_mode, each scaled by the
    twisted akey coefficient over the product of k! (reference form)."""
    out = {}
    for akey, ca in a.items():
        mono = tuple((mod.gens[gi].name, -n - 1) for gi, n in akey)
        den = 1
        for _, k in mono:
            den *= factorial(k)
        vadd(out, mod.mono_mode(mono, t, v),
             twist(ca, t >= 0) * Fraction(1, den))
    return out


def test_field_mode_matches_two_level_sum():
    rng = random.Random(8)
    coeffs = [Scalar.from_rational(1), Scalar.from_rational(Fraction(-3, 2)),
              K + 2, KAP, XI * 3, K * XI - KAP, KAP + XI]
    for pres in (fc(Fraction(1, 2), 0), heisenberg(), virasoro(), sl2()):
        mod = PBWModule(pres, spin_cap=4, word_cap=3)
        keys = [k for k, _ in mod.basis() if k]
        deriv = [k for k in keys if any(n < -1 for _, n in k)]
        assert deriv

        def state(first):
            rest = rng.sample([k for k in keys if k != first],
                              rng.randint(1, 2))
            return {k: rng.choice(coeffs) for k in [first] + rest}

        for _ in range(6):
            a = state(rng.choice(deriv))
            v = state(rng.choice(keys))
            for t in range(-4, 5):
                assert veq(mod.field_mode(a, t, v),
                           _two_level_field_mode(mod, a, t, v)), \
                    (pres.name, a, t, v)


def test_h_locality_resolves_to_delta():
    M = PBWModule(Presentation("h", list(h_gens()), h_table()),
                  spin_cap=6, word_cap=4)
    b, nu = M.gen_state("b"), M.gen_state("nu")
    assert M.ope_singular(b, nu) == {1: {(): K}}
    for cond, ok, wit in check_locality(M, b, nu, M.vacuum(), tay=3):
        assert ok, (cond, wit)


# ------------------------------------------------- full structure suite

def test_axiom_suite_all_builtins():
    for name, gens, table in ALL_PRESENTATIONS:
        M = PBWModule(Presentation(name, gens, table),
                      spin_cap=4, word_cap=3)
        for check, ok, wit in verify_axioms(M):
            assert ok, (name, check, wit)


def _failed_identities(pres):
    # the benchmark's axiom-suite window
    M = PBWModule(pres, spin_cap=4, word_cap=3)
    gens = [M.gen_state(g.name) for g in M.gens]
    res = verify_axioms(M, states=default_samples(M, max_word=1), tay=1,
                        deep_states=gens)
    for name, ok, wit in res:
        assert ok or wit is not None, name
    return [(name, wit) for name, ok, wit in res if not ok]


def _edited(pres, edits):
    """The presentation with each listed entry scaled, or dropped for a
    factor of None."""
    entries = dict(pres.table.entries)
    for k, factor in edits.items():
        if factor is None:
            del entries[k]
        else:
            entries[k] = entries[k].scale(factor)
    return Presentation(pres.name, pres.gens, OpeTable(entries))


def test_verifier_detects_broken_sl2_tables():
    E, H, F = "mu_e_(-1)|0>", "mu_h_(-1)|0>", "mu_f_(-1)|0>"
    assert _failed_identities(sl2()) == []
    # a skew-consistent but non-Jacobi table: only the Jacobi guards see it
    assert _failed_identities(_edited(sl2(), {
        ("mu_e", "mu_f", 0): 2, ("mu_f", "mu_e", 0): 2})) == [
        ("descent-jacobi", (0, 1, E, H, F)),
        ("poisson-split", ("lie-half", "commutator", 0, 1, E, H))]
    # one side doubled also breaks skew-symmetry and the bivariate forms
    fail = ("decompose", ((1, -4),), ("omega-replacement", (3, (0, 0))))
    assert _failed_identities(_edited(sl2(), {
        ("mu_e", "mu_f", 0): 2})) == [
        ("skew-symmetry", (0, E, F)),
        ("descent-jacobi", (0, 1, E, H, F)),
        ("locality/order-ba", (E, F, (-2, 0))),
        ("locality/commutator-delta", (E, F, fail)),
        ("locality/order-ba", (F, E, (-2, 0))),
        ("locality/commutator-delta", (F, E, fail)),
        ("associativity/expand-z-near-0", (E, F, (-2, 0))),
        ("associativity/expand-z-near-0", (F, E, (-2, 0))),
        ("poisson-split", ("lie-half", "commutator", 0, 1, E, H))]


def test_verifier_detects_broken_vir_and_h_tables():
    G = "Gamma_(-1)|0>"
    assert _failed_identities(_edited(virasoro(), {
        ("Gamma", "Gamma", 1): None})) == [
        ("skew-symmetry", (0, G, G)),
        ("descent-jacobi", (1, 0, G, G, G)),
        ("locality/order-ba", (G, G, (-2, 0))),
        ("locality/commutator-delta", (G, G, (
            "decompose", ((0, -5),), ("omega-replacement", (3, (0, 0)))))),
        ("associativity/expand-z-near-0", (G, G, (-2, 0))),
        ("poisson-split", ("lie-half", "commutator", 1, 0, G, G))]
    B, NU = "b_(-1)|0>", "nu_(-1)|0>"
    fail = ("decompose", (), ("omega-replacement", (0, (0, 1))))
    assert _failed_identities(_edited(heisenberg(), {
        ("b", "nu", 1): -1})) == [
        ("skew-symmetry", (1, B, NU)),
        ("locality/order-ba", (B, NU, (-2, 2))),
        ("locality/commutator-delta", (B, NU, fail)),
        ("locality/order-ba", (NU, B, (-2, 2))),
        ("locality/commutator-delta", (NU, B, fail)),
        ("associativity/expand-z-near-0", (B, NU, (-2, 2))),
        ("associativity/expand-z-near-0", (NU, B, (-2, 2)))]


@pytest.mark.parametrize("kind, cond, witness", [
    ("minus", "order-ab", (0, -2)),
    ("w_near_0", "expand-w-near-0", (-2, -2)),
    ("plus", "order-ba", (-2, 0)),
    ("z_near_0", "expand-z-near-0", (-2, -2))])
def test_verifier_detects_broken_expansion_rules(monkeypatch, kind, cond,
                                                 witness):
    """Each doubled expansion rule (a Delta half, or a re-expansion near
    w = 0 or z = 0) fails the one condition that applies it, with an
    (m, l) inside the compared window."""
    M = PBWModule(sl2(), spin_cap=4, word_cap=3)
    a, b, v = M.gen_state("mu_e"), M.gen_state("mu_f"), M.vacuum()

    def rows():
        return (check_locality(M, a, b, v, tay=1)
                + check_associativity(M, a, b, v, tay=1))

    assert all(ok for _, ok, _ in rows())
    expansion = engine._expansion

    def doubled(k, t, trunc):
        e = expansion(k, t, trunc)
        return tuple((m, j, 2 * c) for m, j, c in e) if k == kind else e

    monkeypatch.setattr(engine, "_expansion", doubled)
    failed = [(c, wit) for c, ok, wit in rows() if not ok]
    assert failed == [(cond, witness)]
    w = engine._pair_window(M, a, b, v, 1)
    assert all(type(i) is int and w.lo <= i <= w.pol for i in failed[0][1])


def test_pair_witness_is_least_differing_index():
    """_eq_within and BiDist.first_within report the least differing
    index inside their window, whatever order the entries were added."""
    M = PBWModule(sl2(), spin_cap=4, word_cap=3)
    e = M.gen_state("mu_e")
    w = engine._pair_window(M, e, e, M.vacuum(), 1)
    one = Scalar.from_rational(1)
    # (-3, 0) and (0, pol + 1) lie outside the window; (1, 1) agrees
    diff = [(1, -2), (0, 1), (-3, 0), (-2, 3), (0, w.pol + 1), (-2, 1),
            (1, 1)]
    for order in (diff, diff[::-1]):
        F1 = {(m, l, ()): one for m, l in order}
        F2 = {(1, 1, ()): one}
        assert engine._eq_within(F1, F2, w) == (False, (-2, 1))
        assert engine._eq_within(F2, F1, w) == (False, (-2, 1))
    # (-5, -1) has z-Taylor depth 4, beyond ztr = 3
    keys = [(0, -1), (-5, -1), (-2, 2), (-3, 0), (1, -4)]
    for order in (keys, keys[::-1]):
        assert BiDist({k: 1 for k in order}, 3, 3).first_within() == (-3, 0)


@pytest.mark.parametrize("tay", [1, 2])
def test_pair_truncations_are_enough(monkeypatch, tay):
    """Raising any field of the pair window but lo by one moves no
    locality or associativity row, on the presets and the fault tables
    pinned above, except that a larger N or T widens the window of the
    delta decomposition: the commutator-delta witness, a key and an index
    inside that window, may move, but not its verdict.  lo is the lower
    edge of the compared window, from which the depths are derived."""
    tables = [fc(), heisenberg(), virasoro(), sl2(),
              _edited(sl2(), {("mu_e", "mu_f", 0): 2,
                              ("mu_f", "mu_e", 0): 2}),
              _edited(sl2(), {("mu_e", "mu_f", 0): 2}),
              _edited(virasoro(), {("Gamma", "Gamma", 1): None}),
              _edited(heisenberg(), {("b", "nu", 1): -1})]
    mods = [PBWModule(p, spin_cap=4, word_cap=3) for p in tables]

    def rows():
        out = []
        for M in mods:
            gens = [M.gen_state(g.name) for g in M.gens]
            for a in gens:
                for b in gens:
                    v = M.vacuum()
                    out += check_locality(M, a, b, v, tay) + \
                        check_associativity(M, a, b, v, tay)
        return out

    base = rows()
    assert not all(ok for _, ok, _ in base)
    window = engine._pair_window
    for field in [f for f in engine.PairWindow._fields if f != "lo"]:
        monkeypatch.setattr(
            engine, "_pair_window", lambda *args: window(*args)._replace(
                **{field: getattr(window(*args), field) + 1}))
        for (cond, ok, wit), got in zip(base, rows()):
            if field in ("N", "T") and cond == "commutator-delta":
                assert got[1] == ok, field
            else:
                assert got == (cond, ok, wit), field


def test_verify_axioms_runs_only_selected_identities():
    M = PBWModule(Presentation("vir", [vir_gen()], vir_table()),
                  spin_cap=3, word_cap=3)
    assert [n for n, _, _ in verify_axioms(M)] == list(IDENTITIES)
    assert [n for n, _, _ in verify_axioms(
        M, checks={"poisson-split", "vacuum", "locality"})] == \
        ["vacuum", "locality", "poisson-split"]
    with pytest.raises(ValueError, match="unknown checks: bogus"):
        verify_axioms(M, checks=["vacuum", "bogus"])


def test_invalid_presentations_raise():
    with pytest.raises(PresentationError, match="duplicate"):
        Presentation("dup", [vir_gen(), vir_gen()], vir_table())
    neg = GeneratorInfo("a", Grading(0, -1, 0))
    with pytest.raises(PresentationError, match="negative spin"):
        PBWModule(Presentation("neg", [neg], OpeTable()))
    with pytest.raises(PresentationError, match="duplicate"):
        heisenberg().tensor(heisenberg())


def test_inhomogeneous_state_has_no_grading():
    M = PBWModule(heisenberg(), spin_cap=3, word_cap=3)
    b = M.gen_state("b")
    with pytest.raises(ValueError, match="not homogeneous"):
        M.state_spin({**b, **M.nop(b, b)})


def test_composite_fields_on_tensor():
    pres = Presentation("fc", list(fc_gens()), fc_table()).tensor(
        Presentation("h", list(h_gens()), h_table()))
    M = PBWModule(pres, spin_cap=3, word_cap=3)
    ok, wit = check_composite_fields(M)
    assert ok, wit


def _oracle_mode(oracle, x, k, n, state):
    """Mode n of the k-th derivative of the field of x, the vacuum or a
    generator state, through a Fock oracle: the vacuum's field is the
    identity, and (d^k g)_(n) = (-1)^k k! C(n, k) g_(n-k)."""
    (key,) = x
    if not key:
        return dict(state) if (k, n) == (0, -1) else {}
    ((gi, _),) = key
    c = (-1) ** k * factorial(k) * engine.binom(n, k)
    if not c:
        return {}
    return {kk: c * q for kk, q in oracle(gi, n - k, state).items()}


def _oracle_composite(oracle, k, t, a, b, v, pa, pb):
    """k! (a_(-k-1)b)_(t) v as the normal-ordered product of the Fock
    fields of d^k a and b: both factors in creation modes for t < 0; for
    t >= 0 the blocks (-1)^|a| A_n B_(t-n-1) and (-1)^((|a|+1)|b|)
    B_n A_(t-n-1) over n < 0.  The sums run over a fixed deep range:
    past the depth of v the oracle's annihilation modes give zero."""
    out = {}

    def block(sign, x, kx, n, y, ky, m):
        inner = _oracle_mode(oracle, y, ky, m, v)
        for key, q in _oracle_mode(oracle, x, kx, n, inner).items():
            _oadd(out, key, sign * q)

    if t < 0:
        for n in range(t, 0):
            block(1, a, k, n, b, 0, t - n - 1)
    else:
        for n in range(-12, 0):
            block((-1) ** pa, a, k, n, b, 0, t - n - 1)
            block((-1) ** ((pa + 1) * pb), b, 0, n, a, k, t - n - 1)
    return out


@pytest.mark.parametrize("name, gens, table, oracle, extra", [
    ("h", h_gens, h_table, h_oracle,
     [((0, -2), (1, -1)), ((0, -1), (0, -1))]),
    ("fc", fc_gens, fc_table, fc_oracle,
     [((0, -1), (1, -2)), ((1, -2), (1, -1))])], ids=["h", "fc"])
def test_composite_fields_match_fock_oracle(name, gens, table, oracle,
                                            extra):
    """Both sides of every composite-field instance whose factors are the
    vacuum or a generator equal the normal-ordered product of the
    factors' Fock fields, with no mode bracket and no _mono_key."""
    M = PBWModule(Presentation(name, list(gens()), table()), spin_cap=4,
                  word_cap=4, specialize={"K": 1})
    factors = default_samples(M, max_word=1)
    states = factors + [{key: 1} for key in extra]
    checked = 0
    for (k, t, a, b, v), lhs, rhs in check_composite_fields.__wrapped__(
            M, states, 2, 2, 1):
        if not any(a is x for x in factors) or \
                not any(b is x for x in factors):
            continue
        want = _oracle_composite(oracle, k, t, a, b, _rational_state(v),
                                 M.state_parity(a), M.state_parity(b))
        assert _rational_state(lhs) == want, (k, t, a, b, v)
        assert _rational_state(rhs) == want, (k, t, a, b, v)
        checked += 1
    assert checked == len(factors) ** 2 * 3 * len(states) * 5


def test_rational_spin_cap():
    """A rational spin cap keeps exactly the states of spin at most the
    cap; a cap that is not a rational is rejected."""
    pres = fc(Fraction(1, 2))
    capped = PBWModule(pres, spin_cap=Fraction(9, 2)).basis()
    five = PBWModule(pres, spin_cap=5).basis()
    assert capped == [(k, g) for k, g in five if g.spin <= Fraction(9, 2)]
    assert len(capped) < len(five)
    with pytest.raises(ValueError, match="spin cap"):
        PBWModule(pres, spin_cap=4.5).basis()


# ------------------------------------------- tabled sample-state products
#
# The derivation, Jacobi, composite-field and commutative-half checks
# read the products of their sample states from index-keyed tables.  The
# naive forms below recompute every product inline, as the formulas read.

def _naive_derivation(mod, states, nmax):
    for a in states:
        pa = mod.state_parity(a)
        for b in states:
            pb = mod.state_parity(b)
            for c in states:
                hi = nmax if nmax is not None else floor(
                    mod.state_spin(a) + mod.state_spin(b)
                    + mod.state_spin(c))
                for n in range(0, hi + 1):
                    lhs = mod.field_mode(a, n, mod.nop(b, c))
                    rhs = mod.nop(mod.field_mode(a, n, b), c)
                    vadd(rhs, mod.nop(b, mod.field_mode(a, n, c)),
                         (-1) ** ((pa + 1) * pb))
                    yield (n, a, b, c), lhs, rhs


def _naive_jacobi(mod, states, nmax):
    for a, b, c in product(states, repeat=3):
        pa, pb = mod.state_parity(a), mod.state_parity(b)
        for n, m in product(range(nmax + 1), repeat=2):
            lhs = mod.field_mode(a, n, mod.field_mode(b, m, c))
            rhs = {}
            vadd(rhs, mod.field_mode(b, m, mod.field_mode(a, n, c)),
                 (-1) ** ((pa + 1) * (pb + 1)))
            for l in range(n + 1):
                vadd(rhs, mod.field_mode(mod.field_mode(a, l, b),
                                         m + n - l, c),
                     (-1) ** (pa + 1) * engine.binom(n, l))
            yield (n, m, a, b, c), lhs, rhs


def _naive_composite(mod, states, kmax, nmax, tay):
    # k! (a_(-k-1)b)_(t) v = sum over the two blocks of (d^k a)(z) b(z)
    for a, b in product(states, repeat=2):
        pa, pb = mod.state_parity(a), mod.state_parity(b)
        da = a
        for k in range(kmax + 1):
            if k:
                da = mod.translate(da)
            sa = mod.state_spin(da) if da else 0
            for v in states:
                sv, sb = mod.state_spin(v), mod.state_spin(b)
                for t in range(-(tay + 1), nmax + 1):
                    lhs = {}
                    vadd(lhs, mod.field_mode(mod.field_mode(a, -k - 1, b),
                                             t, v), factorial(k))
                    rhs = {}
                    if t < 0:
                        for n in range(t, 0):
                            vadd(rhs, mod.field_mode(
                                da, n, mod.field_mode(b, t - n - 1, v)))
                    else:
                        for n in range(ceil(t - sv - sb), 0):
                            vadd(rhs, mod.field_mode(
                                da, n, mod.field_mode(b, t - n - 1, v)),
                                (-1) ** pa)
                        for n in range(ceil(t - sv - sa), 0):
                            vadd(rhs, mod.field_mode(
                                b, n, mod.field_mode(da, t - n - 1, v)),
                                (-1) ** ((pa + 1) * pb))
                    yield (k, t, a, b, v), lhs, rhs


def _naive_commutative(mod, states, tay):
    for a, b, v in product(states, repeat=3):
        kos = (-1) ** (mod.state_parity(a) * mod.state_parity(b))
        for m, l in product(range(-(tay + 1), 0), repeat=2):
            rhs = {}
            vadd(rhs, mod.field_mode(b, l, mod.field_mode(a, m, v)), kos)
            yield (m, l, a, b), \
                mod.field_mode(a, m, mod.field_mode(b, l, v)), rhs


_TABLED = (
    ("descent-derivation", engine.check_descent_derivation,
     _naive_derivation, (None,)),
    ("descent-jacobi", engine.check_descent_jacobi, _naive_jacobi, (2,)),
    ("composite-fields", engine.check_composite_fields, _naive_composite,
     (2, 2, 1)),
    ("commutative-half", engine.check_commutative_half, _naive_commutative,
     (2,)),
)


def _table_samples(mod):
    """The vacuum, the generators, a product and a derivative."""
    states = default_samples(mod, max_word=1)
    a, b = states[1], states[-1]
    return states + [mod.nop(a, b), mod.translate(a)]


@pytest.mark.parametrize("pres", [
    _edited(sl2(), {("mu_e", "mu_f", 0): 2}),
    _edited(virasoro(), {("Gamma", "Gamma", 1): None})],
    ids=["sl2-doubled", "vir-dropped"])
def test_tabled_checks_match_naive_instances(pres):
    """Every instance of each tabled check, failing ones and the ones
    after them included, equals its naive recomputation."""
    M = PBWModule(pres, spin_cap=3, word_cap=2)
    states = _table_samples(M)
    for name, check, naive, args in _TABLED:
        got = list(check.__wrapped__(M, states, *args))
        want = list(naive(M, states, *args))
        assert len(got) == len(want), name
        for (w1, l1, r1), (w2, l2, r2) in zip(got, want):
            assert w1 == w2 and veq(l1, l2) and veq(r1, r2), (name, w2)
        if name == "descent-jacobi":
            bad = [i for i, (_, l, r) in enumerate(want) if not veq(l, r)]
            assert bad and bad[0] < len(want) - 1


class _DerivativeSkewedModule(PBWModule):
    """A broken module: field_mode doubles every term it computes on a
    vkey holding a derivative mode (some n < -1)."""

    def field_mode(self, astate, t, vstate):
        out = {}
        for vkey, c in vstate.items():
            vadd(out, super().field_mode(astate, t, {vkey: c}),
                 2 if any(n < -1 for _, n in vkey) else 1)
        return out


def test_verifier_detects_broken_field_mode():
    """The checks no OPE fault breaks fail, with a witness, on a
    field_mode that mis-scales derivative keys."""
    E, H, F, V = "mu_e_(-1)|0>", "mu_h_(-1)|0>", "mu_f_(-1)|0>", "|0>"
    M = _DerivativeSkewedModule(sl2(), spin_cap=3, word_cap=2)
    assert verify_axioms(M, checks=[
        "zero-mode-derivation", "descent-derivation", "composite-fields",
        "poisson-split"]) == [
        ("zero-mode-derivation", False, (0, E, H, "mu_e_(-2)|0>")),
        ("descent-derivation", False, (1, E, V, "mu_h_(-2)|0>")),
        ("composite-fields", False, (0, -1, V, V, "mu_e_(-2)|0>")),
        ("poisson-split", False, ("commutative-half", -1, -3, V, E))]
    # without the vacuum the first failures come later
    states = default_samples(M)[1:]
    assert check_composite_fields(M, states) == (False, (0, -3, E, E, H))
    assert engine.check_descent_derivation(M, states) == \
        (False, (1, E, E, "mu_f_(-2)|0>"))
    assert engine.check_commutative_half(M, states) == \
        (False, (-4, -1, E, E))


# field_mode calls of each tabled check on sl2 at spin 3, word 2, with
# the _table_samples states: (before the tables, with them)
_FIELD_MODE_CALLS = {
    "descent-derivation": (5832, 3144),
    "descent-jacobi": (15552, 6588),
    "composite-fields": (16140, 7602),
    "commutative-half": (7776, 3996),
}


def test_tabled_checks_field_mode_calls():
    """A call-count guard, no timing: each tabled check makes at most the
    field_mode calls it made when the tables went in."""
    for name, check, _, args in _TABLED:
        M = PBWModule(sl2(), spin_cap=3, word_cap=2)
        states = _table_samples(M)
        calls = []
        field_mode = M.field_mode

        def counted(a, t, v):
            calls.append(t)
            return field_mode(a, t, v)

        M.field_mode = counted
        assert check(M, states, *args) == (True, None), name
        assert len(calls) <= _FIELD_MODE_CALLS[name][1], (name, len(calls))


def test_vacuum_module_simplicity_probe():
    M = PBWModule(Presentation("fc", list(fc_gens()), fc_table()),
                  spin_cap=3, word_cap=3, flavor_window=3,
                  specialize={"K": 1})
    ok, wit = simplicity_probe(M, spin_cap=2)
    assert ok, wit


# ------------------------------------------------- deformation layer

def _chiral_pair():
    # flavorless: the quadratic superpotential does not preserve the
    # field/antifield charge, only spin and cohomological degree
    X = GeneratorInfo("X", Grading(1, Fraction(1, 2), 1))
    psi = GeneratorInfo("psi", Grading(0, Fraction(1, 2), 1))
    return Presentation("chiral", [X, psi], fc_table())


def test_superpotential_differential():
    M = PBWModule(_chiral_pair(), spin_cap=2, word_cap=6,
                  specialize={"K": 1})
    X = M.gen_state("X")
    w = M.nop(X, X)
    rep = superpotential_check(M, w)
    assert rep["grading"]
    assert rep["self-bracket-exact"]
    d = differential_map(M, w)
    ok, wit = check_square_zero(M, d)
    assert ok, wit
    # translation does not square to zero; the witness is the bare key
    V = PBWModule(virasoro(), spin_cap=4, word_cap=3)
    assert check_square_zero(V, V.translate) == (False, ((0, -1),))


def _sympy_cell_dim(M, d, cell, cells):
    """Independent cohomology dimension of one cell via sympy ranks."""
    from sympy import Matrix, Rational

    def mat(src, dst):
        if not src or not dst:
            return Matrix.zeros(max(len(dst), 1), max(len(src), 1))
        rows = []
        for k in src:
            rows.append([Rational(q) for q in
                         state_coords(d({k: Scalar.one()}), dst)])
        return Matrix(rows).T

    spin, deg, fl = cell
    keys = cells[cell]
    nxt = cells.get((spin, deg + 1, fl), [])
    prv = cells.get((spin, deg - 1, fl), [])
    rank_out = mat(keys, nxt).rank() if nxt else 0
    rank_in = mat(prv, keys).rank() if prv else 0
    return len(keys) - rank_out - rank_in


def test_dg_cohomology_against_sympy_ranks():
    M = PBWModule(_chiral_pair(), spin_cap=2, word_cap=6,
                  specialize={"K": 1})
    w = M.nop(M.gen_state("X"), M.gen_state("X"))
    d = differential_map(M, w)
    coh = dg_cohomology(M, d, spin_cap=2)
    cells = {}
    for k, g in M.basis():
        if g.spin <= 2:
            cells.setdefault((g.spin, g.cohdeg, g.flavor), []).append(k)
    for cell, (dim, reps) in coh.items():
        assert dim == _sympy_cell_dim(M, d, cell, cells), cell
        assert len(reps) == dim
        for r in reps:
            assert not d(r), cell
    # the representatives must not be coboundaries: spot check via the
    # translation-image machinery on the same exactness question
    st = M.nop(M.gen_state("X"), M.gen_state("psi"))
    dd = d(st)
    if dd:
        ok, _ = in_translation_image(M, dd)
        assert isinstance(ok, bool)
