"""Preset algebras, modules over them, and their graded characters.

Characters are compared against independent shifted-Pochhammer
expansions; the current-algebra and module facts are checked against
hand values.
"""

import inspect
from collections import Counter
from fractions import Fraction

import pytest

from raviolo import catalog, cli, engine
from raviolo.engine import PBWModule, verify_axioms, conformal_check
from raviolo.scalars import (Scalar, XI_PARAM, rational_of, vadd, vscale,
                             vsub, veq)
from raviolo.catalog import (
    fc, heisenberg, virasoro, sl2, current, fc_multi, stress_tensor,
    fock, highest_weight_kernel, LatticeModule, check_lattice_relations,
    LATTICE_TAY, QSeries, character, lattice_character, pochhammer_expand,
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
    # the generators are primary: T_(n) kills them for n >= 2 (their
    # weight, n = 1, is part of conformal_check)
    for g in ("b", "nu"):
        for n in range(2, 5):
            assert not H.field_mode(T, n, H.gen_state(g)), (g, n)

    V = PBWModule(virasoro(), spin_cap=5, word_cap=3)
    ok, wit = conformal_check(V, V.gen_state("Gamma"))
    assert ok, wit

    F = PBWModule(fc(1, 0), spin_cap=3, word_cap=3, specialize={"K": 1})
    Tf = stress_tensor(F, "fc", s=1)
    ok, wit = conformal_check(F, Tf)
    assert ok, wit
    for n in range(2, 5):
        assert not F.field_mode(Tf, n, F.gen_state("X")), n


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

def _fock_sectors(window, spin_cap, word_cap, charge=lambda m: m):
    """The per-sector oracle of a lattice window: each sector m its own
    Fock module, with nu_(0) eigenvalue charge(m)."""
    return {m: fock(charge(m), spin_cap, word_cap)
            for m in range(-window, window + 1)}


def test_lattice_defining_relations():
    lat = LatticeModule(window=4, spin_cap=4, word_cap=6)
    ok, wit = check_lattice_relations(lat, mrange=3, spin_cap=3)
    assert ok, wit


def test_lattice_shift_and_sector_weight():
    lat = LatticeModule(window=3, spin_cap=3, word_cap=6)

    def bare(m):
        return (m, lat.fock.vacuum())
    for m1 in (-2, 0, 2):
        for m2 in (-1, 1):
            sector, st = lat.vertex_mode(m1, -1, bare(m2))
            assert sector == m1 + m2
            assert st == {(): st[()]} and rational_of(st[()]) == 1
            # every nonnegative mode kills the bare sector vector
            for t in range(0, 3):
                assert lat.vertex_mode(m1, t, bare(m2))[1] == {}
    # sector weight under the charge zero mode
    for m in (-2, 1, 3):
        assert veq(lat.act("nu", 0, bare(m))[1],
                   vscale(bare(m)[1], Fraction(m)))


def _direct_vertex_mode(sectors, m1, t, mst, strength=None):
    """V^{m1}_t on a whole state, evaluated in the state's own sector
    module (sectors[m2], from _fock_sectors): the creation exponential
    exp(-strength sum_j z^j b_(-j)/j) expanded on the state p by p, with
    one p-range bound by the state's largest key spin (strength defaults
    to the weight m1)."""
    strength = m1 if strength is None else strength
    m2, st = mst
    if not st:
        return (m1 + m2, {})
    mod = sectors[m2]

    def exp_part(state, p):
        parts = [state]
        for n in range(1, p + 1):
            acc = {}
            for j in range(1, n + 1):
                vadd(acc, mod.act("b", -j, parts[n - j]), -strength)
            parts.append(vscale(acc, Fraction(1, n)))
        return parts[p]

    if t < 0:
        return (m1 + m2, exp_part(st, -t - 1))
    out = {}
    if m1:
        spin = max(sum(-n for _, n in key) for key in st)
        for p in range(0, spin - t):
            q = t + p + 1
            vadd(out, exp_part(mod.act("b", q, st), p), Fraction(-m1, q))
    return (m1 + m2, out)


def test_lattice_vertex_modes_match_direct_evaluation():
    win = 2
    lat = LatticeModule(window=win, spin_cap=3, word_cap=4)
    sectors = _fock_sectors(win, 3, 4)
    for m2, mod in sectors.items():
        states = _lattice_test_states(mod, 3)
        assert any(len({sum(-n for _, n in k) for k in st}) > 1
                   for st in states)
        for m1 in range(-win - m2, win - m2 + 1):
            for t in range(-4, 4):
                for st in states:
                    got = lat.vertex_mode(m1, t, (m2, st))
                    want = _direct_vertex_mode(sectors, m1, t, (m2, st))
                    assert got[0] == want[0] and veq(got[1], want[1]), \
                        (m1, t, m2, st)


def test_lattice_b_modes_act_as_in_sector_zero():
    # the shared vertex tables read b modes through the one fock(0)
    # module; each sector's own Fock module must agree with it
    lat = LatticeModule(window=3, spin_cap=4, word_cap=6)
    for m, mod in _fock_sectors(3, 4, 6).items():
        for k, _ in mod.basis():
            for n in range(-6, 7):
                assert mod.act("b", n, {k: 1}) == \
                    lat.fock.act("b", n, {k: 1}), (m, k, n)


def _lattice_test_states(mod, spin_cap=None):
    """Each basis key of a sector (within the spin cap), plus three-key
    states of mixed spins whose coefficients include the odd parameter
    xi, which feels the parity of a mode."""
    xi = Scalar.param(XI_PARAM)
    coeffs = (1, -2, Fraction(1, 3), xi, 1 + xi)
    keys = [k for k, g in mod.basis()
            if spin_cap is None or g.spin <= spin_cap]
    return [{k: 1} for k in keys] + [
        {k: c for k, c in zip(keys[i:i + 3], coeffs[i % 3:])}
        for i in range(0, len(keys) - 2, 2)]


def test_lattice_act_matches_each_sector():
    # act reads both generators through the lattice's one Fock module,
    # fock(0), and adds the sector only at nu_(0); each sector's own Fock
    # module is the oracle.  So every b mode acts on each basis key of
    # sector m as on sector 0, which the shared vertex tables rely on
    lat = LatticeModule(window=3, spin_cap=4, word_cap=6)
    for m, mod in _fock_sectors(3, 4, 6).items():
        for st in _lattice_test_states(mod):
            for name in ("b", "nu"):
                for n in range(-6, 7):
                    assert lat.act(name, n, (m, st)) == \
                        (m, mod.act(name, n, st)), (m, st, name, n)


class _SignFlippedLattice(LatticeModule):
    """Every t >= 0 vertex mode negated."""

    def vertex_mode(self, m1, t, mst):
        sector, out = super().vertex_mode(m1, t, mst)
        return (sector, vscale(out, -1) if t >= 0 else out)


def test_lattice_builds_one_fock_module(monkeypatch, capsys):
    # every sector is the same Fock space, so `rav lattice --order 1
    # --spin 1 --word 2` builds one PBW module and enumerates its basis
    # once
    built, induced = [], []
    init, induce = PBWModule.__init__, engine.vac_induce

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counted_induce(*args):
        induced.append(args)
        return induce(*args)
    monkeypatch.setattr(PBWModule, "__init__", counted_init)
    monkeypatch.setattr(engine, "vac_induce", counted_induce)
    assert cli.main(["lattice", "--order", "1", "--spin", "1",
                     "--word", "2"]) == 0
    assert "defining-relations" in capsys.readouterr().out
    assert len(built) == 1 and len(induced) == 1
    # the module is one Fock module plus the window and its tables
    lat = LatticeModule(window=3, spin_cap=2, word_cap=2)
    assert set(vars(lat)) == {"window", "fock", "_exp", "_vertex"}
    assert list(inspect.signature(fock).parameters) == \
        ["lam", "spin_cap", "word_cap"]


class _WrongStrengthLattice(LatticeModule):
    """The creation exponential built with twice the weight, evaluated
    in per-sector Fock modules."""

    def __init__(self, window, spin_cap, word_cap):
        super().__init__(window, spin_cap, word_cap)
        self.oracle = _fock_sectors(window, spin_cap, word_cap)

    def vertex_mode(self, m1, t, mst):
        return _direct_vertex_mode(self.oracle, m1, t, mst,
                                   strength=2 * m1)


@pytest.mark.parametrize("cls, prefix", [
    (_SignFlippedLattice, ("nu-delta", -2, -4, 0, -1)),
    (_WrongStrengthLattice, ("nu-delta", -2, 1, -4, -1)),
])
def test_lattice_relations_fail_on_broken_vertex_modes(cls, prefix):
    # the window of `rav lattice --order 1 --spin 1 --word 2`; the
    # witness ends with the sample state, so the instance can be re-run
    lat = cls(window=3, spin_cap=2, word_cap=2)
    ok, wit = check_lattice_relations(lat, mrange=2, spin_cap=1)
    assert not ok
    assert wit == prefix + ("|0>",)
    assert check_lattice_relations(
        LatticeModule(window=3, spin_cap=2, word_cap=2),
        mrange=2, spin_cap=1) == (True, None)


def _lattice_rows_per_sector(lat, sectors, mrange, spin_cap):
    """Reference: the rows of check_lattice_relations with every row
    evaluated in its own sector, b-commute rows included, and every
    sample key, spin, label and b and nu mode read through that sector's
    own Fock module (sectors[m], from _fock_sectors); lat gives only the
    vertex modes."""
    def act(name, n, mst):
        return (mst[0], sectors[mst[0]].act(name, n, mst[1]))

    def samples(m2):
        mod = sectors[m2]
        for k, g in mod.basis():
            if g.spin <= spin_cap:
                yield ((m2, {k: 1}), int(mod.state_spin({k: 1})),
                       mod.state_str({k: 1}))

    win = lat.window
    for m in range(-mrange, mrange + 1):
        for m2 in range(-win + abs(m), win - abs(m) + 1):
            for mst, spin, label in samples(m2):
                ls = range(-(LATTICE_TAY + 1), spin + 2)
                b_on = {l: act("b", l, mst) for l in ls}
                nu_on = {l: act("nu", l, mst) for l in ls}
                for t in range(-(LATTICE_TAY + 1), spin + 1):
                    pv = 1 if t >= 0 else 0
                    base = lat.vertex_mode(m, t, mst)
                    for l in ls:
                        ks = -1 if (l >= 0 and pv) else 1
                        lhs = vsub(act("b", l, base)[1],
                                   vscale(lat.vertex_mode(
                                       m, t, b_on[l])[1], ks))
                        yield ("b-commute", m, l, t, m2, label), lhs, {}
                        ks = -1 if (l < 0 and pv) else 1
                        lhs = vsub(act("nu", l, base)[1],
                                   vscale(lat.vertex_mode(
                                       m, t, nu_on[l])[1], ks))
                        comb = l + t + 1
                        if l < 0 and t < 0:
                            expect = {}
                        elif comb <= 0 or (l >= 0 and t >= 0):
                            sgn = -m if (l < 0 and t >= 0) else m
                            expect = vscale(
                                lat.vertex_mode(m, l + t, mst)[1], sgn)
                        else:
                            expect = {}
                        yield (("nu-delta", m, l, t, m2, label), lhs,
                               expect)
    for m2 in range(-win + 1, win):
        for mst, spin, label in samples(m2):
            for t in range(-(LATTICE_TAY + 1), spin + 1):
                rhs = {}
                if t < 0:
                    for n in range(t, 0):
                        inner = lat.vertex_deriv_mode(-1, t - n - 1, mst)
                        vadd(rhs, lat.vertex_mode(1, n, inner)[1])
                else:
                    for n in range(t - spin - 1, 0):
                        inner = lat.vertex_deriv_mode(-1, t - n - 1, mst)
                        vadd(rhs, lat.vertex_mode(1, n, inner)[1], -1)
                    for n in range(t - spin, 0):
                        inner = lat.vertex_mode(1, t - n - 1, mst)
                        vadd(rhs, lat.vertex_deriv_mode(-1, n, inner)[1],
                             -1)
                yield (("nop-b", t, m2, label), act("b", t, mst)[1],
                       rhs)


class _FlippedVertexKey(LatticeModule):
    """One V^{m1}_t|key> table entry negated: (-1, -2, |0>)."""

    def _vertex_key(self, m1, t, key):
        out = super()._vertex_key(m1, t, key)
        return vscale(out, -1) if (m1, t, key) == (-1, -2, ()) else out


class _FlippedExpPart(LatticeModule):
    """One E_p|key> table entry negated: strength -2, b_(-1)|0>, p = 2."""

    def _exp_part(self, strength, key, p):
        out = super()._exp_part(strength, key, p)
        return vscale(out, -1) if (strength, key, p) == (-2, ((0, -1),), 2) \
            else out


class _ChargedSectors(LatticeModule):
    """Every mode read through its sector's own Fock module, sector m
    built with nu_(0) eigenvalue charge(m) instead of m."""

    @staticmethod
    def charge(m):
        return m

    def __init__(self, window, spin_cap, word_cap):
        super().__init__(window, spin_cap, word_cap)
        self.charged = _fock_sectors(window, spin_cap, word_cap,
                                     self.charge)

    def act(self, name, n, mst):
        m, st = mst
        return (m, self.charged[m].act(name, n, st))


class _DoubledCharge(_ChargedSectors):
    """nu_(0) acts by 2m on sector m."""

    @staticmethod
    def charge(m):
        return 2 * m


class _SectorOneCharge(_ChargedSectors):
    """nu_(0) acts by 2m on sector 1 only: no uniform shift of the
    weights, so the l = 0 nu-delta rows differ from sector to sector."""

    @staticmethod
    def charge(m):
        return 2 if m == 1 else m


def test_lattice_relations_fail_on_a_wrong_sector_charge():
    # the window of `rav lattice --order 1 --spin 1 --word 2`: nu_(0)
    # reads the sector only in the l = 0 nu-delta rows
    for cls, m2 in ((_DoubledCharge, -1), (_SectorOneCharge, 1)):
        lat = cls(window=3, spin_cap=2, word_cap=2)
        assert check_lattice_relations(lat, mrange=2, spin_cap=1) == \
            (False, ("nu-delta", -2, 0, -4, m2, "|0>"))


@pytest.mark.parametrize("cls, first", [
    (LatticeModule, None),
    (_FlippedVertexKey, ("nu-delta", -1, 1, -3, -2, "|0>")),
    (_FlippedExpPart, ("b-commute", -2, -1, -3, -1, "|0>")),
    (_DoubledCharge, ("nu-delta", -2, 0, -4, -1, "|0>")),
    (_SectorOneCharge, ("nu-delta", -2, 0, -4, 1, "|0>")),
])
def test_lattice_rows_match_per_sector_reference(cls, first):
    # the window of `rav lattice --order 1 --spin 1 --word 2`, then a
    # wider one; the sector-free rows are shared across sectors, so every
    # row, and the first failing one, must be the per-sector loop's.  A
    # charged subclass's reference sectors carry its charge
    rows = check_lattice_relations.__wrapped__
    charge = getattr(cls, "charge", lambda m: m)
    for window, cap, word, mrange, spin in [(3, 2, 2, 2, 1),
                                            (3, 4, 4, 2, 3)]:
        got = list(rows(cls(window, cap, word), mrange, spin))
        want = list(_lattice_rows_per_sector(
            cls(window, cap, word),
            _fock_sectors(window, cap, word, charge), mrange, spin))
        assert len(got) == len(want)
        for (wg, lg, rg), (ww, lw, rw) in zip(got, want):
            assert wg == ww and veq(lg, lw) and veq(rg, rw), ww
        bad = next((w for w, lhs, rhs in want if not veq(lhs, rhs)), None)
        if window == 3 and spin == 1:
            assert bad == first
        assert check_lattice_relations(cls(window, cap, word), mrange,
                                       spin) == (bad is None, bad)


def test_lattice_b_commute_rows_computed_once_per_weight(monkeypatch):
    # at the CLI window each sample key meets 5 weights m across 23
    # (m, sector) pairs; its b-commute rows and its nu-delta rows with
    # l != 0 are computed once per m, and so are the nu-delta right sides
    # V^m_(l+t); its nop-b rows, met in 5 sectors, are computed once
    calls, nop_calls, mode_calls = Counter(), Counter(), Counter()
    nu_outside = Counter()  # nu modes acting outside _sector_free_rows
    inside = []
    sector_free = catalog._sector_free_rows
    nop_b = catalog._nop_b_rows
    vertex_mode = LatticeModule.vertex_mode
    act = LatticeModule.act

    def counted(lat, m, mst, ts, ls):
        calls[tuple(mst[1])] += 1
        inside.append(True)
        try:
            return sector_free(lat, m, mst, ts, ls)
        finally:
            inside.pop()

    def counted_nop(lat, mst, spin):
        nop_calls[tuple(mst[1])] += 1
        return nop_b(lat, mst, spin)

    def counted_mode(lat, m1, t, mst):
        mode_calls[m1] += 1
        return vertex_mode(lat, m1, t, mst)

    def counted_act(lat, name, n, mst):
        if name == "nu" and not inside:
            nu_outside[n] += 1
        return act(lat, name, n, mst)
    monkeypatch.setattr(catalog, "_sector_free_rows", counted)
    monkeypatch.setattr(catalog, "_nop_b_rows", counted_nop)
    monkeypatch.setattr(LatticeModule, "vertex_mode", counted_mode)
    monkeypatch.setattr(LatticeModule, "act", counted_act)
    lat = LatticeModule(window=3, spin_cap=2, word_cap=2)
    rows = Counter((w[0], w[2], w[3], w[5]) for w, _, _ in
                   check_lattice_relations.__wrapped__(lat, 2, 1)
                   if w[0] != "nop-b")
    assert set(rows.values()) == {23}
    assert len(calls) == 3 and set(calls.values()) == {5}
    assert len(nop_calls) == 3 and set(nop_calls.values()) == {1}
    # only nu_(0) reads the sector: on each of the 23 x 3 samples and on
    # its V^m_t for every t (5 at spin 0, 6 at spin 1)
    assert nu_outside == {0: 23 * ((1 + 5) + 2 * (1 + 6))}
    assert sum(mode_calls.values()) <= 1631


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

