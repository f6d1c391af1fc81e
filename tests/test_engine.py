"""Module realization tests.

The mode action is checked against independent Fock-space oracles first
(polynomial differentiation for the weight-one pair, Grassmann/polynomial
differentiation for the field-antifield pair), then the structure suite
runs on all builtin presentations.
"""

from fractions import Fraction
from itertools import product

import pytest

from raviolo.scalars import Scalar, Grading, KAPPA_PARAM, XI_PARAM
from raviolo.modes import GeneratorInfo, OpeTable, FieldExpr
from raviolo.catalog import sl2, virasoro, heisenberg
from raviolo.engine import (
    IDENTITIES, Presentation, PresentationError, PBWModule, verify_axioms,
    default_samples, check_locality,
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
        q = c.rational_value()
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
        ("locality/order-ba", (E, F, (-2, 1))),
        ("locality/commutator-delta", (E, F, fail)),
        ("locality/order-ba", (F, E, (-2, 1))),
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
        ("locality/order-ba", (G, G, (-2, 1))),
        ("locality/commutator-delta", (G, G, (
            "decompose", ((0, -5),), ("omega-replacement", (3, (0, 0)))))),
        ("associativity/expand-z-near-0", (G, G, (-2, 0))),
        ("poisson-split", ("lie-half", "commutator", 1, 0, G, G))]
    B, NU = "b_(-1)|0>", "nu_(-1)|0>"
    fail = ("decompose", (), ("omega-replacement", (0, (0, 1))))
    assert _failed_identities(_edited(heisenberg(), {
        ("b", "nu", 1): -1})) == [
        ("skew-symmetry", (1, B, NU)),
        ("locality/order-ba", (B, NU, (-1, 1))),
        ("locality/commutator-delta", (B, NU, fail)),
        ("locality/order-ba", (NU, B, (-1, 1))),
        ("locality/commutator-delta", (NU, B, fail)),
        ("associativity/expand-z-near-0", (B, NU, (-2, 2))),
        ("associativity/expand-z-near-0", (NU, B, (-2, 2)))]


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
