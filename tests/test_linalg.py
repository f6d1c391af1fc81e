import random
from fractions import Fraction

import pytest
import sympy

from raviolo.linalg import (CoordinateError, column_kernel, rank, rref,
                            kernel_basis, solve, in_span)
from raviolo.catalog import fc
from raviolo.dgmodel import (AElement, a_mul, d_poly, is_exact,
                             monomial_basis, omega_class)
from raviolo import engine
from raviolo.engine import (PBWModule, Presentation, cell_basis,
                            in_translation_image, state_coords)
from raviolo.modes import GeneratorInfo
from raviolo.scalars import Grading


def _rand_matrix(rng, m, n):
    """Dense or mostly zero; with three or more rows, often rank-deficient
    (the last row a combination of the first two)."""
    density = rng.choice((1.0, 0.5, 0.2))
    a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
          if rng.random() < density else Fraction(0) for _ in range(n)]
         for _ in range(m)]
    if m > 2 and rng.random() < 0.5:
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        a[-1] = [x + c * y for x, y in zip(a[0], a[1])]
    return a


def _sparse(vec):
    return {i: x for i, x in enumerate(vec) if x}


def _columns(a, n):
    """The n columns of the dense matrix a as sparse vectors."""
    return [_sparse([row[j] for row in a]) for j in range(n)]


def _dense(vec, n):
    return [vec.get(i, 0) for i in range(n)]


def _in_index_order(vec):
    return list(vec) == sorted(vec) and all(vec.values())


def test_rank_against_sympy():
    rng = random.Random(7)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _rand_matrix(rng, m, n)
        r = sympy.Matrix(a).rank()
        assert len(rref(a)[1]) == r
        # the untagged rank, on columns and on rows, leaves them as given
        cols, rows = _columns(a, n), [_sparse(row) for row in a]
        assert rank(cols) == rank(rows) == r
        assert cols == _columns(a, n) and rows == [_sparse(x) for x in a]
    assert rank([]) == rank([{}, {}]) == 0


def test_kernel_against_sympy():
    rng = random.Random(11)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _rand_matrix(rng, m, n)
        ker = kernel_basis(_columns(a, n))
        assert all(_in_index_order(v) for v in ker)
        # the canonical basis: x[j] = 1 on one free column, 0 on the others
        assert [_dense(v, n) for v in ker] == \
            [list(v) for v in sympy.Matrix(a).nullspace()]
        for v in ker:
            for row in a:
                assert sum(row[j] * x for j, x in v.items()) == 0
    assert kernel_basis([]) == []
    assert kernel_basis([{}, {0: 1}]) == [{0: 1}]


def _sympy_solution(a, rhs):
    """gauss_jordan_solve's solution with every free parameter 0, or None
    if the system is inconsistent."""
    try:
        sol, params = sympy.Matrix(a).gauss_jordan_solve(sympy.Matrix(rhs))
    except ValueError:
        return None
    return [Fraction(int(q.p), int(q.q))
            for q in sol.subs({t: 0 for t in params})]


def test_solve_consistent():
    rng = random.Random(13)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _rand_matrix(rng, m, n)
        x0 = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        rhs = [sum(r[j] * x0[j] for j in range(n)) for r in a]
        ech = column_kernel(_columns(a, n))[0]
        x = solve(ech, _sparse(rhs))
        assert x is not None and _in_index_order(x)
        assert _dense(x, n) == _sympy_solution(a, rhs)  # free vars 0
        for r, b in zip(a, rhs):
            assert sum(r[j] * q for j, q in x.items()) == b
        # a question leaves the echelon as it was
        assert solve(ech, _sparse(rhs)) == x


def test_solve_inconsistent():
    ech = column_kernel([{0: Fraction(1), 1: Fraction(1)}, {}])[0]
    assert solve(ech, {0: Fraction(1), 1: Fraction(2)}) is None
    assert solve(column_kernel([])[0], {0: 1}) is None
    assert solve(column_kernel([])[0], {}) == {}


def test_in_span():
    v1 = {0: Fraction(1), 2: Fraction(1)}
    v2 = {1: Fraction(1), 2: Fraction(1)}
    assert in_span([v1, v2], {0: Fraction(1), 1: Fraction(1),
                              2: Fraction(2)})
    assert not in_span([v1, v2], {2: Fraction(1)})
    assert in_span([], {})
    assert not in_span([], {0: Fraction(1)})


def test_rref_idempotent():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    r1, p1 = rref(a)
    r2, p2 = rref(r1)
    assert r1 == r2 and p1 == p2


# ---------------------------------------- callers against the oracle


def _oracle_primitive(image, src_keys, dst_keys, target):
    """{source key: coefficient} of the sympy solution of
    sum_k x_k image({k: 1}) = target with free parameters 0, in source
    order, zeros dropped; None if there is none."""
    cols = [state_coords(image({k: 1}), dst_keys) for k in src_keys]
    a = [[c[i] for c in cols] for i in range(len(dst_keys))]
    x = _sympy_solution(a, state_coords(target, dst_keys))
    return None if x is None else {k: q for k, q in zip(src_keys, x) if q}


def _chiral(spin_cap=5, word_cap=12):
    # the chiral weight pair at K = 1
    half = Fraction(1, 2)
    pres = Presentation("chiral", [GeneratorInfo("X", Grading(1, half, 1)),
                                   GeneratorInfo("psi", Grading(0, half, 1))],
                        fc().table)
    return PBWModule(pres, spin_cap=spin_cap, word_cap=word_cap,
                     specialize={"K": 1})


def test_translation_primitives_match_sympy():
    # targets are every spin-4 state, T of each, and T of one combination
    # of each spin-4 cell
    mod = _chiral()
    cells = {}
    for k, g in mod.basis():
        if g.spin == 4:
            cells.setdefault(g, []).append(k)
    states = [{k: 1} for keys in cells.values() for k in keys]
    combos = [{k: Fraction(j + 1, 3) for j, k in enumerate(keys)}
              for keys in cells.values()]
    targets = states + [mod.translate(st) for st in states + combos]
    checked = misses = 0
    for target in targets:
        g = mod.state_grading(target)
        skeys = cell_basis(mod, Grading(g.cohdeg, g.spin - 1, g.parity,
                                        g.flavor))
        if not skeys:
            continue
        want = _oracle_primitive(mod.translate, skeys, cell_basis(mod, g),
                                 target)
        ok, prim = in_translation_image(mod, target)
        checked += 1
        if want is None:
            assert (ok, prim) == (False, None), target
            misses += 1
        else:
            assert ok and list(prim.items()) == list(want.items()), target
    assert checked > 40 and misses


def test_exactness_primitives_match_sympy():
    z = AElement.gen("z")
    for m in range(5):
        cap = m + 4
        target = (a_mul(z, omega_class(m + 1)) - omega_class(m)).odd
        basis = monomial_basis(cap)
        want = _oracle_primitive(d_poly, basis, basis, target)
        assert want is not None
        assert list(is_exact(target, cap).items()) == list(want.items()), m
    # lam^0 omega is not exact
    assert is_exact({(0, 0, 0): 1}, 4) is None
    assert _oracle_primitive(d_poly, monomial_basis(4), monomial_basis(4),
                             {(0, 0, 0): 1}) is None


def test_one_elimination_per_translation_cell(monkeypatch):
    # the benchmark's questions: T of every spin-4 state of the chiral
    # module at (spin 5, word 12) lies in one of 9 cells, and each cell's
    # translates are eliminated on the first question about it
    eliminated = []

    def counted(cols):
        eliminated.append(len(cols))
        return column_kernel(cols)
    monkeypatch.setattr(engine, "column_kernel", counted)
    mod = _chiral()
    targets = [mod.translate({k: 1}) for k, g in mod.basis() if g.spin == 4]
    cells = {mod.state_grading(t) for t in targets}
    assert (len(targets), len(cells)) == (22, 9)
    first = [in_translation_image(mod, t) for t in targets]
    assert len(eliminated) == 9 and len(mod._images) == 9
    assert all(ok for ok, _ in first)
    # asked again, the cells interleaved in the other order: the stored
    # echelons answer alike and no question eliminates again
    for t, want in reversed(list(zip(targets, first))):
        ok, prim = in_translation_image(mod, t)
        assert ok == want[0] and list(prim.items()) == list(want[1].items())
    assert len(eliminated) == 9
    # T of a spin-5 state leaves the window (spin 6 is not enumerated):
    # each ask raises and stores nothing
    top = mod.translate({next(k for k, g in mod.basis() if g.spin == 5): 1})
    for _ in range(2):
        with pytest.raises(CoordinateError):
            in_translation_image(mod, top)
    assert len(eliminated) == 9 and len(mod._images) == 9


def test_translation_target_outside_the_window_stores_nothing():
    # at word 2 the cell of X_(-1) psi_(-2) psi_(-1) holds X_(-3) alone:
    # the translate T X_(-2) stays in the window, the word-3 target
    # leaves it
    mod = _chiral(spin_cap=5, word_cap=2)
    target = {((0, -1), (1, -2), (1, -1)): 1}
    g = mod.state_grading(target)
    assert cell_basis(mod, g) == [((0, -3),)]
    for _ in range(2):
        with pytest.raises(CoordinateError, match="leaves the enumerated"):
            in_translation_image(mod, target)
    assert mod._images == {}
