"""Preset algebras, modules over them, and their graded characters.

Characters are compared against independent shifted-Pochhammer
expansions; the current-algebra and module facts are checked against
hand values.
"""

from fractions import Fraction

import pytest

from raviolo.engine import (
    PBWModule, verify_axioms, conformal_check, primary_check,
)
from raviolo.scalars import rational_of, vadd, vscale, vsub, veq
from raviolo.catalog import (
    fc, heisenberg, virasoro, sl2, current, fc_multi, stress_tensor,
    fock, highest_weight_kernel, LatticeModule, check_lattice_relations,
    QSeries, character, lattice_character, pochhammer_expand,
    morphism_image, check_morphism,
)


# ------------------------------------------------------ presets

def test_presets_pass_axiom_suite():
    for pres in (heisenberg(), virasoro()):
        M = PBWModule(pres, spin_cap=4, word_cap=3)
        for name, ok, wit in verify_axioms(M):
            assert ok, (pres.name, name, wit)


def test_current_rejects_bad_form():
    names = ["a", "b"]
    f = {("a", "b"): {"a": 1}, ("b", "a"): {"a": -1}}
    try:
        current(names, f, {("a", "b"): 1, ("b", "a"): 2})
    except ValueError as e:
        assert "symmetric" in str(e)
    else:
        assert False, "asymmetric form accepted"
    try:
        current(names, f, {("a", "a"): 1})
    except ValueError as e:
        assert "invariant" in str(e)
    else:
        assert False, "non-invariant form accepted"


# ------------------------------------------------------ stress tensors

def test_stress_tensors_are_conformal():
    H = PBWModule(heisenberg(), spin_cap=4, word_cap=3,
                  specialize={"K": 1})
    T = stress_tensor(H, "heisenberg")
    ok, wit = conformal_check(H, T)
    assert ok, wit
    assert conformal_check(H, vscale(T, 2)) == \
        (False, ("zero-mode", "b_(-1)|0>"))
    for g in ("b", "nu"):
        rep = primary_check(H, T, H.gen_state(g))
        assert rep["weight-ok"] and rep["higher-ok"], (g, rep)

    V = PBWModule(virasoro(), spin_cap=5, word_cap=3)
    ok, wit = conformal_check(V, stress_tensor(V, "virasoro"))
    assert ok, wit

    F = PBWModule(fc(1, 0), spin_cap=3, word_cap=3, specialize={"K": 1})
    Tf = stress_tensor(F, "fc", s=1)
    ok, wit = conformal_check(F, Tf)
    assert ok, wit
    rep = primary_check(F, Tf, F.gen_state("X"))
    assert rep["weight-ok"] and rep["higher-ok"], rep


# ------------------------------------------------------ gl(2) currents

def test_gl2_currents_close_at_level_zero():
    M = PBWModule(fc_multi(2), spin_cap=3, word_cap=4, flavor_window=3,
                  specialize={"K": 1})
    X = {i: M.gen_state("X%d" % i) for i in (1, 2)}
    P = {i: M.gen_state("psi%d" % i) for i in (1, 2)}
    J = {(i, j): M.nop(P[j], X[i]) for i in (1, 2) for j in (1, 2)}
    for (i, j) in J:
        for (k, l) in J:
            sing = M.ope_singular(J[i, j], J[k, l])
            assert all(n == 0 for n in sing), (i, j, k, l, sing)
            expect = {}
            if k == j:
                vadd(expect, J[i, l])
            if i == l:
                vadd(expect, J[k, j], Fraction(-1))
            got = sing.get(0, {})
            assert veq(got, expect), (i, j, k, l)
    # the pairs transform in the standard representation
    for (i, j) in J:
        for k in (1, 2):
            got = M.field_mode(J[i, j], 0, X[k])
            expect = X[i] if k == j else {}
            assert veq(got, expect), (i, j, k)


# ------------------------------------------------------ Fock modules

def test_fock_highest_weight_structure():
    lam = Fraction(3, 2)
    Fk = fock(lam, spin_cap=3)
    # the annihilation kernel is spanned by the cyclic vector alone
    ker = highest_weight_kernel(Fk, 3)
    assert len(ker) == 1
    (key, c), = ker[0].items()
    assert key == ()
    # with K left symbolic the conditions are not over Q: refused, where
    # reading them as 0 would put b_(-1)|0> in the kernel
    with pytest.raises(ValueError, match="non-rational"):
        highest_weight_kernel(
            PBWModule(heisenberg(), spin_cap=2, word_cap=3), 2)
    # zero mode eigenvalue and conformal data of the cyclic vector
    assert veq(Fk.act("nu", 0, Fk.vacuum()), vscale(Fk.vacuum(), lam))
    T = stress_tensor(Fk, "heisenberg")
    assert Fk.field_mode(T, 1, Fk.vacuum()) == {}
    g0 = Fk.field_mode(T, 0, Fk.vacuum())
    assert veq(g0, vscale(Fk.act("b", -1, Fk.vacuum()), -lam))
    # on excited states the stress zero mode is translation plus the
    # cyclic-vector correction
    st = Fk.act("nu", -2, Fk.vacuum())
    rhs = Fk.translate(st)
    vadd(rhs, Fk.act("b", -1, st), -lam)
    assert veq(Fk.field_mode(T, 0, st), rhs)


def test_fock_zero_matches_vacuum_module():
    from raviolo.scalars import ONE
    F0 = fock(0, spin_cap=3)
    H = PBWModule(heisenberg(), spin_cap=3, word_cap=6,
                  specialize={"K": 1})
    for k, g in H.basis():
        for name in ("b", "nu"):
            for n in range(-2, 3):
                assert F0.act(name, n, {k: ONE}) == \
                    H.act(name, n, {k: ONE}), (k, name, n)


# ------------------------------------------------------ lattice module

def test_lattice_defining_relations():
    lat = LatticeModule(window=4, spin_cap=4, word_cap=6)
    ok, wit = check_lattice_relations(lat, mrange=3, spin_cap=3, tay=3)
    assert ok, wit


def test_lattice_shift_and_translation():
    lat = LatticeModule(window=3, spin_cap=3, word_cap=6)
    for m1 in (-2, 0, 2):
        for m2 in (-1, 1):
            sector, st = lat.vertex_mode(m1, -1, lat.vacuum(m2))
            assert sector == m1 + m2
            assert st == {(): st[()]} and rational_of(st[()]) == 1
            # every nonnegative mode kills the bare sector vector
            for t in range(0, 3):
                assert lat.vertex_mode(m1, t, lat.vacuum(m2))[1] == {}
    # translation is the heisenberg stress zero mode sector-wise
    for m in (-1, 0, 2):
        mod = lat.sectors[m]
        T = stress_tensor(mod, "heisenberg")
        for mst in lat.samples(m, 2):
            assert veq(mod.field_mode(T, 0, mst[1]),
                       lat.translate(mst)[1]), (m, mst)
    # sector weight under the charge zero mode
    for m in (-2, 1, 3):
        assert veq(lat.act("nu", 0, lat.vacuum(m))[1],
                   vscale(lat.vacuum(m)[1], Fraction(m)))


# ------------------------------------------------------ characters

def test_virasoro_character_is_shifted_pochhammer():
    M = PBWModule(virasoro(), spin_cap=8, word_cap=4)
    ch = character(M, order=9)
    oracle = pochhammer_expand([((), 1, 2)], order=9)
    assert ch == oracle
    assert [ch.coeff(n) for n in range(9)] == \
        [1, 0, -1, -1, -1, 0, 0, 1, 1]


def test_fc_character_is_pochhammer_ratio():
    M = PBWModule(fc(0, 0), spin_cap=3, word_cap=8, flavor_window=3,
                  specialize={"K": 1})
    ch = character(M, order=4, fug_names=("y",), fug_window=3)
    oracle = pochhammer_expand(
        [((("y", -1),), 1, 1), ((("y", 1),), -1, 0)],
        order=4, fug_window=3)
    assert ch == oracle


def test_character_rejects_window_missing_a_fractional_spin():
    # spins step by 1/2: order 5 counts spin 9/2, beyond spin_cap 4
    M = PBWModule(fc(Fraction(1, 2)), spin_cap=4)
    with pytest.raises(ValueError):
        character(M, order=5)
    character(PBWModule(fc(Fraction(1, 2)), spin_cap=5, word_cap=2),
              order=5)


def test_sl2_character_is_triple_product():
    M = PBWModule(sl2(), spin_cap=3, word_cap=6)
    ch = character(M, order=4, fug_names=("s",), fug_window=8)
    oracle = pochhammer_expand(
        [((("s", 2),), 1, 1), ((), 1, 1), ((("s", -2),), 1, 1)],
        order=4, fug_window=8)
    assert ch == oracle


def test_lattice_character_counts_sectors_only():
    lat = LatticeModule(window=3, spin_cap=4, word_cap=6)
    ch = lattice_character(lat, order=5)
    expect = QSeries({}, order=5)
    for m in range(-3, 4):
        expect.add_term(0, ((("x", m),) if m else ()), 1)
    assert ch == expect


def test_qseries_printing():
    qs = pochhammer_expand([((), 1, 2)], order=6)
    assert str(qs) == "1 - q^2 - q^3 - q^4 + O(q^6)"


# ------------------------------------------------------ morphisms

def test_weight_one_pair_embeds_in_field_pair():
    H = PBWModule(heisenberg(), spin_cap=3, word_cap=4)
    F = PBWModule(fc(0, 0), spin_cap=3, word_cap=6, flavor_window=4)
    gm = {0: vscale(F.translate(F.gen_state("X")), Fraction(-1)),
          1: F.gen_state("psi")}
    ok, wit = check_morphism(H, F, gm)
    assert ok, wit
    assert check_morphism(H, F, {0: gm[0], 1: vscale(gm[1], 2)}) == \
        (False, ("nu", 1, "b_(-1)|0>"))
    F1 = PBWModule(fc(1, 0), spin_cap=3, word_cap=6, flavor_window=4)
    gm1 = {0: F1.gen_state("X"),
           1: F1.translate(F1.gen_state("psi"))}
    ok, wit = check_morphism(H, F1, gm1)
    assert ok, wit
    # the image of the stress state stays conformal
    img = morphism_image(F1, gm1,
                         stress_tensor(H, "heisenberg"))
    assert img, "stress state maps to zero"
