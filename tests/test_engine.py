"""Module realization tests.

The mode action is checked against independent Fock-space oracles first
(polynomial differentiation for the weight-one pair, Grassmann/polynomial
differentiation for the field-antifield pair), then the structure suite
runs on all builtin presentations.
"""

import gc
import os
import random
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, factorial, floor

import pytest

from raviolo.scalars import (Scalar, Grading, KAPPA_PARAM, XI_PARAM,
                             as_vector, rational_of, twist, vadd, veq)
from raviolo.modes import GeneratorInfo, OpeTable, FieldExpr, vac_induce
from raviolo.catalog import fc, sl2, virasoro, heisenberg
from raviolo.series import BiDist
from raviolo import catalog, cli, engine
from raviolo.engine import (
    IDENTITIES, Presentation, PresentationError, PBWModule, verify_axioms,
    default_samples, check_locality, check_associativity,
    check_composite_fields, superpotential_check, differential_map,
    check_square_zero, dg_cohomology, cell_basis, state_coords,
    ghost_extension, brst_charge,
)
from raviolo.linalg import Echelon, column_kernel, rational_coords

from test_modes import (fc_gens, fc_table, h_gens, h_table, vir_gen,
                        vir_table, sl2_gens, sl2_table, ALL_PRESENTATIONS,
                        K, KAP, XI, key_grading_reference)


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
    twisted akey coefficient over the product of k!, k = -n - 1 for each
    factor (gi, n) (reference form)."""
    out = {}
    for akey, ca in a.items():
        den = 1
        for _, n in akey:
            den *= factorial(-n - 1)
        vadd(out, mod.mono_mode(akey, t, v),
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


def test_key_info_matches_the_grading_path():
    # the key record and key_grading sum ints; the reference adds one
    # Fraction-valued Grading per mode on top of the cyclic vector's.
    # The modules exercise every part of the sum: a half-integer spin,
    # flavor on some generators only (sl2's currents, its ghosts), a
    # cyclic vector of nonzero flavor (over the weight-one pair), and
    # long keys (the chiral pair at word 12)
    mods = [PBWModule(pres, spin_cap=4, word_cap=3)
            for pres in (fc(Fraction(1, 2)), sl2(), virasoro())]
    mods.append(PBWModule(sl2(), spin_cap=3, word_cap=4, flavor_window=2))
    mods.append(PBWModule(heisenberg(), spin_cap=4, word_cap=3,
                          cyclic_grading=Grading(0, 0, 0, (2,))))
    mods.append(PBWModule(
        ghost_extension(sl2(), [g.name for g in sl2().gens]),
        spin_cap=2, word_cap=4))
    mods.append(_chiral_complex(5, 12)[0])
    longest = 0
    for mod in mods:
        cyc, D = mod.cyclic_grading, mod._spin_den
        keys = [k for k, _ in mod.basis()]
        assert any(n < -1 for k in keys for _, n in k)
        for key in keys:
            kg = key_grading_reference(mod, key)
            got = mod.key_grading(key)
            assert got == kg and type(got.spin) is Fraction, \
                (mod.pres.name, key)
            den = 1
            for _, n in key:
                den *= factorial(-n - 1)
            p, s, inv_den = mod._key_info(key)
            assert p == kg.tot, (mod.pres.name, key)
            assert s == (kg.spin - cyc.spin) * D, (mod.pres.name, key)
            assert (1 if inv_den is None else inv_den) == \
                Fraction(1, den), (mod.pres.name, key)
            longest = max(longest, len(key))
    assert longest >= 8
    # a rational coefficient keeps the key's grading; an odd degree-1
    # parameter adds to it
    mod = PBWModule(heisenberg(), spin_cap=3, word_cap=3)
    key = ((0, -2),)
    assert mod.state_grading({key: 3}) is mod.key_grading(key)
    assert mod.state_grading({key: XI}) == key_grading_reference(mod, key) \
        + Grading(XI_PARAM.cohdeg, 0, XI_PARAM.parity)


def test_h_locality_resolves_to_delta():
    M = PBWModule(Presentation("h", list(h_gens()), h_table()),
                  spin_cap=6, word_cap=4)
    b, nu = M.gen_state("b"), M.gen_state("nu")
    assert M.ope_singular(b, nu) == {1: {(): K}}
    for cond, ok, wit in check_locality(M, b, nu, M.vacuum(), tay=3):
        assert ok, (cond, wit)


def test_sl2_locality_on_a_non_vacuum_state():
    # against mu_e_(-7)|0> the commutator's g has polar entries deeper
    # than the Taylor window, and the valid sl2 still passes every
    # condition
    M = PBWModule(sl2(), spin_cap=11, word_cap=2, flavor_window=4)
    v = M.act("mu_e", -7, M.vacuum())
    assert check_locality(M, M.gen_state("mu_e"), M.gen_state("mu_f"), v,
                          tay=2) == [("order-ab", True, None),
                                     ("order-ba", True, None),
                                     ("commutator-delta", True, None)]


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
    # (-5, -1) has z-Taylor depth 4, beyond ztr = 3; each trailing key
    # has its own least index
    keys = [(0, -1), (-5, -1), (-2, 2), (-3, 0), (1, -4)]
    for order in (keys, keys[::-1]):
        assert BiDist({k: 1 for k in order}, 3, 3).first_within() == \
            {(): (-3, 0)}
        stacked = {k + (key,): 1 for key, ks in (("a", order),
                                                 ("b", keys[:2]))
                   for k in ks}
        assert BiDist(stacked, 3, 3).first_within() == \
            {("a",): (-3, 0), ("b",): (0, -1)}


def test_delta_failure_compares_every_key_of_the_singular_products():
    """A singular product at a pbw key where the commutator vanishes is
    compared too: the commutator there decomposes with every g^(n) = 0,
    which differs from the product's mode."""
    w = engine.PairWindow(lo=-3, pol=9, N=3, T=7, dminus=17, L=5, amax=2,
                          tdepth=5)
    key = ((0, -2),)
    assert engine._delta_failure({}, {(0, -1, key): 1}, w) == \
        ("coefficient", key, 0, -1)
    # a key of the commutator still comes first when it is less
    comm = {(0, -1, ()): 1}
    assert engine._delta_failure(comm, {(0, -1, key): 1}, w) == \
        ("decompose", (), ("vanishing", (0, -5)))
    # outside the compared window l' <= pol nothing is compared
    assert engine._delta_failure({}, {(0, w.pol + 1, key): 1}, w) is None


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
            M, states):
        if not any(a is x for x in factors) or \
                not any(b is x for x in factors):
            continue
        want = _oracle_composite(oracle, k, t, a, b, _rational_state(v),
                                 M.state_parity(a), M.state_parity(b))
        assert _rational_state(lhs) == want, (k, t, a, b, v)
        assert _rational_state(rhs) == want, (k, t, a, b, v)
        checked += 1
    # k = 0, 1, 2 and t = -3, ..., 2
    assert checked == len(factors) ** 2 * 3 * len(states) * 6


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


def _tabled_derivation(mod, states, nmax):
    """Every descent-derivation instance ((n, a, b, c), lhs, rhs) as the
    run table computes it, in the check's order, none skipped."""
    P = engine._Products(mod, states)
    for t in product(range(P.n), repeat=3):
        hi = nmax if nmax is not None else \
            sum(P.spin[i] for i in t) // mod._spin_den
        for n in range(hi + 1):
            yield ((n,) + tuple(P.xs[i] for i in t),) + P.derivation(n, *t)


# (name, check, its instances, naive form, the check's bounds, the naive
# form's bounds)
_TABLED = (
    ("descent-derivation", engine.check_descent_derivation,
     _tabled_derivation, _naive_derivation, (None,), (None,)),
    ("descent-jacobi", engine._jacobi_walk, engine._jacobi_walk.__wrapped__,
     _naive_jacobi, (), (engine.JACOBI_NMAX,)),
    ("composite-fields", engine.check_composite_fields,
     engine.check_composite_fields.__wrapped__, _naive_composite, (),
     (2, 2, 2)),
    ("commutative-half", engine.check_commutative_half,
     engine.check_commutative_half.__wrapped__, _naive_commutative, (2,),
     (2,)),
)


def _table_samples(mod):
    """The vacuum, the generators, a product and a derivative."""
    states = default_samples(mod, max_word=1)
    a, b = states[1], states[-1]
    return states + [mod.nop(a, b), mod.translate(a)]


@pytest.mark.parametrize("name", ["sl2-doubled", "vir-dropped",
                                  "derivative-skewed"])
def test_tabled_checks_match_naive_instances(name):
    """Every instance of each tabled check, failing ones and the ones
    after them included, equals its naive recomputation."""
    M = _SHARING[name]()
    states = _table_samples(M)
    failing = set()
    for label, _, instances, naive, args, naive_args in _TABLED:
        got = list(instances(M, states, *args))
        want = list(naive(M, states, *naive_args))
        assert len(got) == len(want), label
        for (w1, l1, r1), (w2, l2, r2) in zip(got, want):
            assert w1 == w2 and veq(l1, l2) and veq(r1, r2), (label, w2)
        bad = [i for i, (_, l, r) in enumerate(want) if not veq(l, r)]
        if bad and bad[0] < len(want) - 1:
            failing.add(label)
    # the OPE faults break Jacobi, the skewed field_mode the derivation
    assert "descent-jacobi" in failing
    assert ("descent-derivation" in failing) == (name == "derivative-skewed")


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
# the _table_samples states and the _TABLED bounds: when the tables went
# in, and for Jacobi (n, m <= 3) and composite fields (t >= -3), which
# ran at smaller bounds then, at the one-table-per-run code
_FIELD_MODE_CALLS = {
    "descent-derivation": 3144,
    "descent-jacobi": 2808,
    "composite-fields": 9624,
    "commutative-half": 3996,
}


def _counted_field_mode(M):
    """The list of mode indices M.field_mode is called with from now."""
    calls = []
    field_mode = M.field_mode

    def counted(a, t, v):
        calls.append(t)
        return field_mode(a, t, v)

    M.field_mode = counted
    return calls


def test_tabled_checks_field_mode_calls():
    """A call-count guard, no timing: each tabled check makes at most the
    field_mode calls it made when the tables went in."""
    for name, check, _, _, args, _ in _TABLED:
        M = PBWModule(sl2(), spin_cap=3, word_cap=2)
        states = _table_samples(M)
        calls = _counted_field_mode(M)
        assert check(M, states, *args) == (True, None), name
        assert len(calls) <= _FIELD_MODE_CALLS[name], (name, len(calls))


# --------------------------------------------- one product table per run
#
# verify_axioms builds one product table and every check reads it, so a
# check reuses the products, derivation records, descent-jacobi row and
# operator orders of the checks before it.  Sharing must change no row.

_SHARING = {
    "sl2-doubled": lambda: PBWModule(
        _edited(sl2(), {("mu_e", "mu_f", 0): 2}), spin_cap=3, word_cap=2),
    "vir-dropped": lambda: PBWModule(
        _edited(virasoro(), {("Gamma", "Gamma", 1): None}), spin_cap=3,
        word_cap=2),
    "derivative-skewed": lambda: _DerivativeSkewedModule(
        sl2(), spin_cap=3, word_cap=2),
}


def _rows_alone(make, tay):
    """The verify_axioms rows, each check run alone on a fresh module
    with the plain sample list."""
    out = []
    for name, fn_name, form in engine._SUITE:
        M = make()
        states = _table_samples(M)
        check = getattr(engine, fn_name)
        if form == "states":
            out.append((name,) + check(M, states))
        elif form == "tay":
            out.append((name,) + check(M, states, tay=tay))
        else:
            pairs = [s for s in states
                     if len(s) == 1 and len(next(iter(s))) == 1]
            failed = [(name + "/" + cond, False,
                       (M.state_str(a), M.state_str(b), wit))
                      for a in pairs for b in pairs
                      for cond, ok, wit in check(M, a, b, M.vacuum(), tay)
                      if not ok]
            out.extend(failed or [(name, True, None)])
    return out


@pytest.mark.parametrize("name", list(_SHARING))
def test_shared_table_changes_no_row(name):
    """Every suite row equals the row of its check run alone; after a
    failing descent-jacobi, poisson-split's lie half reads the
    descent-jacobi row and reports its witness as a commutator."""
    M = _SHARING[name]()
    rows = verify_axioms(M, _table_samples(M), tay=2)
    assert rows == _rows_alone(_SHARING[name], 2)
    row = {r[0]: r for r in rows}
    assert not row["descent-jacobi"][1] and not row["poisson-split"][1]
    if name != "derivative-skewed":
        assert row["poisson-split"][2][:2] == ("lie-half", "commutator")


# field_mode calls of a failing check_descent_jacobi called alone with the
# _table_samples states, when each check built its own tables (366 and
# 130 with the run table, which skips products of a zero state)
_FAILING_JACOBI_CALLS = {"sl2-doubled": 2904, "vir-dropped": 1213}


def test_failing_jacobi_stays_lazy():
    """The Jacobi instances are walked one at a time: a failing
    descent-jacobi stops at its first failing instance and makes no more
    field_mode calls than before the table."""
    for name, before in _FAILING_JACOBI_CALLS.items():
        M = _SHARING[name]()
        states = _table_samples(M)
        calls = _counted_field_mode(M)
        assert not engine.check_descent_jacobi(M, states)[0]
        assert len(calls) <= before, (name, len(calls))


def test_poisson_split_reads_the_jacobi_row(monkeypatch):
    """Once descent-jacobi has run on a table, poisson-split makes no
    Jacobi comparison: every run walks the Jacobi instances once, and on
    a passing table a suite with descent-jacobi makes no more veq calls
    than the same suite without it."""
    counts = {"veq": 0, "_jacobi_walk": 0}
    for name in counts:
        def counted(*args, _fn=getattr(engine, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(engine, name, counted)

    def run(call, *args, **kwargs):
        M = PBWModule(sl2(), spin_cap=3, word_cap=2)
        counts.update(veq=0, _jacobi_walk=0)
        out = call(M, _table_samples(M), *args, **kwargs)
        assert counts["_jacobi_walk"] == 1, (call.__name__, args, kwargs)
        return out, counts["veq"]

    every = [name for name in IDENTITIES if name != "descent-jacobi"]
    rows, with_jacobi = run(verify_axioms)
    assert all(ok for _, ok, _ in rows)
    assert run(verify_axioms, checks=every)[1] == with_jacobi
    alone = run(engine.check_poisson_split, tay=2)
    assert alone[0] == (True, None)
    assert run(verify_axioms, checks=["poisson-split"])[1] == alone[1]
    assert run(verify_axioms, checks=["descent-jacobi",
                                      "poisson-split"])[1] == alone[1]


def _counting(monkeypatch, owner, name):
    """Count the calls of owner.name from now: returns the call list."""
    calls, fn = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name", list(_SHARING))
def test_derivation_rows_match_naive_rows(name, monkeypatch):
    """Each derivation row, at the zero-mode bound, the spin sum and
    JACOBI_NMAX, is the identity_check row over the naive instances,
    whether each runs on its own table or all three share one, in either
    order.  Alone, a row computes each instance once and stops at its
    first failing instance."""
    naive = engine.identity_check(_naive_derivation)
    bounds = (0, None, engine.JACOBI_NMAX)
    M = _SHARING[name]()
    states = _table_samples(M)
    want = [naive(M, states, nmax) for nmax in bounds]
    calls = _counting(monkeypatch, engine._Products, "derivation")
    for nmax, row in zip(bounds, want):
        del calls[:]
        assert engine.check_descent_derivation(M, states, nmax) == row
        inst = list(_naive_derivation(M, states, nmax))
        bad = [i for i, (_, l, r) in enumerate(inst) if not veq(l, r)]
        assert len(calls) == (bad[0] + 1 if bad else len(inst)), nmax
    for order in (bounds, bounds[::-1]):
        P = engine._Products(M, states)
        del calls[:]
        for nmax in order:
            row = want[bounds.index(nmax)]
            assert engine.check_descent_derivation(M, P, nmax) == row
        assert len(calls) == len({c[1:] for c in calls}), order


def test_zero_mode_derivation_adds_no_comparison(monkeypatch):
    """On a passing table the zero-mode row reads the instances
    descent-derivation compares: a suite with zero-mode-derivation makes
    no more veq calls than the same suite without it."""
    calls = _counting(monkeypatch, engine, "veq")

    def run(checks):
        M = PBWModule(sl2(), spin_cap=3, word_cap=2)
        del calls[:]
        rows = verify_axioms(M, _table_samples(M), checks=checks)
        assert all(ok for _, ok, _ in rows)
        return len(calls)

    every = [name for name in IDENTITIES if name != "zero-mode-derivation"]
    assert run(None) == run(every)


def test_suite_keeps_no_jacobi_or_derivation_instance():
    # the run table keeps the descent-jacobi row and one derivation record
    # per triple, not their instances; kept until verify_axioms returned,
    # the 3,456 Jacobi instances raised a warm run's peak above start from
    # about 359 KB to 600 KB, and the derivation instances from about
    # 248 KB to 368 KB (a first run fills the module's memos, so only the
    # run table counts)
    M = PBWModule(sl2(), spin_cap=3, word_cap=2)
    want = verify_axioms(M, _table_samples(M), tay=1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = verify_axioms(M, _table_samples(M), tay=1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 300_000, peak


# field_mode calls of one verify_axioms per preset at the axiom-suite
# bench window (spin 4, word 3, tay 1, fc flavor window 2, the vacuum and
# the generators as samples and the generators as pairs): (each check
# with its own tables, one table per run)
_SUITE_FIELD_MODE_CALLS = {
    "fc": (5860, 1794),
    "heisenberg": (6211, 1915),
    "virasoro": (2198, 793),
    "sl2": (14489, 4965),
}


def test_suite_field_mode_calls():
    """A call-count guard, no timing: one suite run makes at most the
    field_mode calls it made when the run table went in."""
    for name, (_, now) in _SUITE_FIELD_MODE_CALLS.items():
        M = PBWModule(getattr(catalog, name)(), spin_cap=4, word_cap=3,
                      flavor_window=2 if name == "fc" else None)
        gens = [M.gen_state(g.name) for g in M.gens]
        states = default_samples(M, max_word=1)
        calls = _counted_field_mode(M)
        rows = verify_axioms(M, states, tay=1, deep_states=gens)
        assert all(ok for _, ok, _ in rows), name
        assert len(calls) <= now, (name, len(calls))


def test_suite_run_leaves_no_attribute_on_the_module():
    """The run table is freed with the call: nothing is hung on mod."""
    M = PBWModule(sl2(), spin_cap=3, word_cap=2)
    before = sorted(vars(M))
    verify_axioms(M, tay=1)
    assert sorted(vars(M)) == before


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
    # translation does not square to zero
    V = PBWModule(virasoro(), spin_cap=4, word_cap=3)
    assert check_square_zero(V, V.translate) == (False, ("Gamma_(-1)|0>",))
    # the generator images w_(0)x are vacuum-algebra states, which a
    # module with a cyclic rule does not hold
    F = catalog.fock(Fraction(3, 2), spin_cap=3, word_cap=3)
    with pytest.raises(ValueError, match="vacuum module"):
        differential_map(F, F.gen_state("nu"))


def _chiral_complex(spin_cap, word_cap):
    """The chiral pair at K = 1 with d = W_(0), W = :XX:."""
    M = PBWModule(_chiral_pair(), spin_cap=spin_cap, word_cap=word_cap,
                  specialize={"K": 1})
    return M, differential_map(M, M.nop(M.gen_state("X"), M.gen_state("X")))


def _gauged_chiral():
    """fc(1/2) gauged by the U(1) that rotates it: ghosts c (deg 1,
    spin 0) and bg (deg 0, spin 1) with bg c ~ 1, and d = Q_(0) for
    Q = :c J:, J = :X psi: the moment map; K = 1, spin 2, word 6,
    flavor window 2."""
    pres = fc(Fraction(1, 2)).extend(
        [GeneratorInfo("c", Grading(1, 0, 0)),
         GeneratorInfo("bg", Grading(0, 1, 0))],
        {("bg", "c", 0): FieldExpr.const(1),
         ("c", "bg", 0): FieldExpr.const(1)})
    M = PBWModule(pres, spin_cap=2, word_cap=6, flavor_window=2,
                  specialize={"K": 1})
    J = M.nop(M.gen_state("X"), M.gen_state("psi"))
    return M, differential_map(M, M.nop(M.gen_state("c"), J))


def _cells(M, spin_cap):
    cells = {}
    for k, g in M.basis():
        if g.spin <= spin_cap:
            cells.setdefault((g.spin, g.cohdeg, g.flavor), []).append(k)
    return cells


def _sympy_cell_ranks(M, d, cell, cells, reps):
    """Independent ranks of one cell via sympy: (dim H, rank of the
    incoming image, rank of the incoming image with reps beside it)."""
    from sympy import Matrix, Rational

    def rank(states, dst):
        if not states or not dst:
            return 0
        return Matrix([[Rational(q) for q in state_coords(s, dst)]
                       for s in states]).rank()

    spin, deg, fl = cell
    keys = cells[cell]
    nxt = cells.get((spin, deg + 1, fl), [])
    prv = cells.get((spin, deg - 1, fl), [])
    images = [d({k: Scalar.one()}) for k in prv]
    rank_out = rank([d({k: Scalar.one()}) for k in keys], nxt)
    rank_in = rank(images, keys)
    return len(keys) - rank_out - rank_in, rank_in, rank(images + reps, keys)


def test_dg_cohomology_against_sympy_ranks():
    # the chiral pair has no cell where both H and the incoming image are
    # nonzero; the gauged chiral has four, where the representatives
    # must be independent modulo coboundaries
    for (M, d), mixed in [(_chiral_complex(2, 6), 0), (_gauged_chiral(), 4)]:
        coh = dg_cohomology(M, d, spin_cap=2)
        cells = _cells(M, 2)
        assert set(coh) == set(cells)
        seen = 0
        for cell, (dim, reps) in coh.items():
            h, rank_in, rank_with_reps = _sympy_cell_ranks(M, d, cell, cells,
                                                           reps)
            assert dim == h, cell
            assert len(reps) == dim
            for r in reps:
                assert not d(r), cell
            assert rank_with_reps == rank_in + dim, cell
            seen += bool(dim and rank_in)
        assert seen == mixed


def _dg_cohomology_per_cell(mod, d, spin_cap):
    """Reference: each cell's kernel by column_kernel and its incoming
    image by a second Echelon of the previous cell's images."""
    cells = _cells(mod, spin_cap)

    def images(src_keys, dst_keys):
        index = {k: i for i, k in enumerate(dst_keys)}
        return [rational_coords(d({k: 1}), index) for k in src_keys]

    out = {}
    for (spin, deg, fl), keys in sorted(cells.items()):
        nxt = cells.get((spin, deg + 1, fl), [])
        prv = cells.get((spin, deg - 1, fl), [])
        _, kern = column_kernel(images(keys, nxt))
        img = Echelon()
        for k, v in zip(prv, images(prv, keys)):
            img.add(v, k)
        dim = len(kern) - len(img.rows)
        reps = []
        for j, vec in enumerate(kern):
            if img.add(vec, j) is None and len(reps) < dim:
                reps.append(as_vector({keys[i]: q for i, q in vec.items()}))
        out[(spin, deg, fl)] = (dim, reps)
    return out


def _sl2_brst_complex(monkeypatch, spin, word):
    """The sl2 BRST complex as `rav brst` builds it from the sl2 document
    (one ghost pair per current, K = 1, kappa = 0), with d = Q_(0)."""
    path = os.path.join(_EXAMPLES, "sl2.rav")
    M, q = _brst_module_and_charge(monkeypatch, path, spin, word)
    return M, differential_map(M, q)


def test_dg_cohomology_matches_per_cell_reference(monkeypatch):
    # the bench window of the chiral pair, the gauged chiral and
    # criterion 10's sl2 BRST complex.  Ranks decide every dimension, so
    # Echelon.add runs only in the cells with H != 0: once per basis key
    # and incoming image there, and once per kernel vector
    complexes = [("chiral", _chiral_complex(5, 12), (2, 347)),
                 ("gauged", _gauged_chiral(), (49, 126)),
                 ("sl2-brst", _sl2_brst_complex(monkeypatch, 2, 14),
                  (5, 1131))]
    calls = []
    add = Echelon.add

    def counted(self, vec, tag):
        calls.append(tag)
        return add(self, vec, tag)
    monkeypatch.setattr(Echelon, "add", counted)
    dims = {}
    for name, (M, d), counts in complexes:
        calls.clear()
        got = dg_cohomology(M, d, M.spin_cap)
        n_got = len(calls)
        calls.clear()
        want = _dg_cohomology_per_cell(M, d, M.spin_cap)
        assert got == want, name
        assert (n_got, len(calls)) == counts, name
        dims[name] = [dim for _, (dim, _) in sorted(got.items()) if dim]
    assert dims == {"chiral": [1], "gauged": [1, 1, 1, 1, 2, 2],
                    "sl2-brst": [1, 1]}


def test_dg_cohomology_below_the_module_cap():
    # a cap below the module's: the chiral pair has spins in (1/2)Z, so
    # the cells are keyed by 2*spin against floor(2*cap)
    M, d = _chiral_complex(3, 8)
    full = dg_cohomology(M, d, M.spin_cap)
    assert any(spin.denominator == 2 for spin, _, _ in full)
    for cap in (2, Fraction(5, 2)):
        got = dg_cohomology(M, d, cap)
        want = [(cell, h) for cell, h in full.items() if cell[0] <= cap]
        assert list(got.items()) == want, cap
        assert len(want) < len(full), cap


def test_sl2_brst_cohomology_is_h_of_sl2(monkeypatch):
    # H^*(sl2) = Lambda[x_3]: C at spin 0 in degrees 0 and 3, zero in
    # every other cell, read off the Poincare polynomial prod_e
    # (1 + t^(2e+1)) over the exponents e of sl2 (the single exponent 1).
    # At spin <= 3 the word cap 6 completes every cell: word 7 adds no key
    M, d = _sl2_brst_complex(monkeypatch, 3, 6)
    assert len(vac_induce(M.gens, 3, 7, M.flavor_window)) == len(M.basis())
    poincare = {0: 1}
    for e in (1,):
        step = Counter()
        for deg, c in poincare.items():
            step[deg] += c
            step[deg + 2 * e + 1] += c
        poincare = step
    coh = dg_cohomology(M, d, M.spin_cap)
    assert len(coh) > 1
    got = {(spin, deg): dim for (spin, deg, _), (dim, _) in coh.items()
           if dim}
    assert got == {(0, deg): c for deg, c in poincare.items()}


def _euler_characteristics(dims):
    """{(spin, flavor): sum over deg of (-1)^deg n} of {(spin, deg,
    flavor): n}."""
    out = {}
    for (spin, deg, fl), n in dims.items():
        out[(spin, fl)] = out.get((spin, fl), 0) + (-1) ** deg * n
    return out


def test_dg_cohomology_euler_poincare(monkeypatch):
    # per (spin, flavor) the signed sum of the cohomology dimensions is
    # the signed sum of the cell sizes: criterion 7's complex, the bench's
    # chiral window, the gauged chiral, and the complexes `rav
    # cohomology` and `rav brst` build.  The cells are counted from
    # basis(), not by catalog.character, which signs by totalized parity
    # where a dg cell merges intrinsic parities.  The identity holds for
    # any d, so it checks the cells' bookkeeping, not the elimination.
    cli_mod, w = _recorded_differential(monkeypatch, [
        "cohomology", os.path.join(_EXAMPLES, "chiral.rav"),
        "--spin", "2", "--word", "6"])
    for M, d in (_chiral_complex(2, 6), _chiral_complex(5, 12),
                 _gauged_chiral(), (cli_mod, differential_map(cli_mod, w)),
                 _sl2_brst_complex(monkeypatch, 2, 14)):
        coh = dg_cohomology(M, d, M.spin_cap)
        sizes = Counter((g.spin, g.cohdeg, g.flavor) for _, g in M.basis()
                        if g.spin <= M.spin_cap)
        assert _euler_characteristics(
            {cell: dim for cell, (dim, _) in coh.items()}) == \
            _euler_characteristics(sizes), M.pres.name


def test_dg_cohomology_reads_spins_off_the_basis():
    # the cells take each key's scaled spin from its basis grading, so
    # the key record's memo keeps only the keys the differential read
    # (4 of the 143 on the bench's chiral window)
    M, d = _chiral_complex(5, 12)
    assert check_square_zero(M, d) == (True, None)
    before = len(M._key_memo)
    assert before < len(M.basis())
    dg_cohomology(M, d, M.spin_cap)
    assert len(M._key_memo) == before


def test_dg_cohomology_releases_each_image_echelon():
    # each cell's outgoing columns have one reader, the next cell, which
    # drops them; kept to the end, they raise the peak above the start
    # from about 25 KB to 48 KB on the bench's chiral window (a first
    # call fills the map's table, so only the elimination counts)
    M, d = _chiral_complex(5, 12)
    want = dg_cohomology(M, d, M.spin_cap)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = dg_cohomology(M, d, M.spin_cap)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 40_000, peak


def test_differential_map_frees_its_module_without_the_collector():
    # the map is no reference cycle: with the cyclic collector off, the
    # module dies with the last reference to it and to the map
    gc.disable()
    try:
        M, d = _chiral_complex(2, 6)
        assert check_square_zero(M, d) == (True, None)
        dead = weakref.ref(M)
        del M, d
        assert dead() is None
    finally:
        gc.enable()


# ------------------------------------------------- the derivation rule

def _derivation_rule_mismatches(mod, w, twice=False):
    """Keys where differential_map(mod, w) differs from field_mode(w, 0,
    .): every basis key and every key of the basis keys' images, and with
    twice also d(d(k)) on the basis keys, whose coefficients carry the
    structure parameters when they are left symbolic."""
    d = differential_map(mod, w)
    keys = [k for k, _ in mod.basis()]
    seen = set(keys)
    for k in keys[:]:
        for k2 in d({k: 1}):
            if k2 not in seen:
                seen.add(k2)
                keys.append(k2)
    bad = [k for k in keys
           if not veq(d({k: 1}), mod.field_mode(w, 0, {k: 1}))]
    if twice:
        bad += [("twice", k) for k, _ in mod.basis()
                if not veq(d(d({k: 1})), mod.field_mode(
                    w, 0, mod.field_mode(w, 0, {k: 1})))]
    return bad


def _recorded_differential(monkeypatch, argv):
    """The module and odd state whose differential the `rav` command argv
    builds (its one call of differential_map)."""
    seen = []

    def recording(mod, w):
        seen.append((mod, w))
        return differential_map(mod, w)
    monkeypatch.setattr(cli, "differential_map", recording)
    cli.main(argv)
    (mod, w), = seen
    return mod, w


def _brst_module_and_charge(monkeypatch, path, spin=2, word=3):
    """The module and charge `rav brst path --spin S --word W` builds."""
    return _recorded_differential(
        monkeypatch, ["brst", path, "--spin", str(spin), "--word", str(word)])


_CORPUS = os.path.join(os.path.dirname(__file__), "..", "bench", "corpus")
_EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples", "dsl")


def test_brst_charge_with_a_halved_structure_term_fails_square_zero():
    # sl2's ghost extension at (spin 2, word 3), K = 1, kappa = 0, as
    # `rav brst` builds it: the canonical charge squares to zero, and
    # with the (e, f) structure term halved it fails on mu_e
    names = ["mu_" + a for a in catalog.SL2_NAMES]
    M = PBWModule(ghost_extension(sl2(), names), spin_cap=2, word_cap=3,
                  specialize={"K": 1, "kappa": 0})
    structure = {("mu_" + a, "mu_" + b): {"mu_" + c: v
                                          for c, v in f.items()}
                 for (a, b), f in catalog.SL2_F.items()}
    pairing = {("mu_" + a, "mu_" + b): v
               for (a, b), v in catalog.SL2_KILLING.items()}

    def square_zero(structure):
        q = brst_charge(M, names, structure, pairing)
        return check_square_zero(M, differential_map(M, q))
    assert square_zero(structure) == (True, None)
    halved = dict(structure)
    halved[("mu_e", "mu_f")] = {
        c: Fraction(1, 2) * v for c, v in structure[("mu_e", "mu_f")].items()}
    assert square_zero(halved) == (False, ("mu_e_(-1)|0>",))


@pytest.mark.parametrize("doc", ["sl2.rav", "notjacobi.rav"])
def test_derivation_rule_on_brst_charges(monkeypatch, doc):
    mod, q = _brst_module_and_charge(monkeypatch, os.path.join(_CORPUS, doc))
    assert q and _derivation_rule_mismatches(mod, q) == []
    if doc == "sl2.rav":
        # K and kappa left symbolic: the images carry the odd kappa
        sym = PBWModule(mod.pres, spin_cap=2, word_cap=3)
        assert _derivation_rule_mismatches(sym, q, twice=True) == []


def test_derivation_rule_on_superpotential_and_ghost_charge():
    M = PBWModule(_chiral_pair(), spin_cap=2, word_cap=6,
                  specialize={"K": 1})
    X = M.gen_state("X")
    assert _derivation_rule_mismatches(M, M.nop(X, X), twice=True) == []
    # criterion 7's charge on the ghost-extended charged pair, at a
    # smaller window
    ext = fc(Fraction(1, 2), 1).extend(
        [GeneratorInfo("c", Grading(1, 0, 0)),
         GeneratorInfo("bg", Grading(0, 1, 0))],
        {("bg", "c", 0): FieldExpr.const(1),
         ("c", "bg", 0): FieldExpr.const(1)})
    B = PBWModule(ext, spin_cap=2, word_cap=4, flavor_window=2,
                  specialize={"K": 1})
    Q = B.nop(B.gen_state("c"),
              B.nop(B.gen_state("psi"), B.gen_state("X")))
    assert _derivation_rule_mismatches(B, Q, twice=True) == []


@pytest.mark.parametrize("pres", [fc(), heisenberg(), virasoro(), sl2()],
                         ids=["fc", "h", "vir", "sl2"])
def test_derivation_rule_on_generator_zero_modes(pres):
    # even operators for sl2, odd ones elsewhere: a sign (-1)^|x| on the
    # second term of the rule fails on sl2
    M = PBWModule(pres, spin_cap=4, word_cap=3, flavor_window=2)
    for g in pres.gens:
        assert _derivation_rule_mismatches(M, M.gen_state(g.name)) == [], \
            g.name
