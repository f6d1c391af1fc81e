import random
from fractions import Fraction

import sympy

from raviolo.linalg import rref, kernel_basis, solve, in_span


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


def test_rank_against_sympy():
    rng = random.Random(7)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _rand_matrix(rng, m, n)
        assert len(rref(a)[1]) == sympy.Matrix(a).rank()


def test_kernel_against_sympy():
    rng = random.Random(11)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _rand_matrix(rng, m, n)
        ker = kernel_basis(a)
        # the canonical basis: x[j] = 1 on one free column, 0 on the others
        assert ker == [list(v) for v in sympy.Matrix(a).nullspace()]
        for v in ker:
            for row in a:
                assert sum(x * y for x, y in zip(row, v)) == 0


def test_solve_consistent():
    rng = random.Random(13)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _rand_matrix(rng, m, n)
        x0 = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        rhs = [sum(r[j] * x0[j] for j in range(n)) for r in a]
        x = solve(a, rhs)
        assert x is not None
        sol, params = sympy.Matrix(a).gauss_jordan_solve(sympy.Matrix(rhs))
        assert x == list(sol.subs({t: 0 for t in params}))  # free vars 0
        for r, b in zip(a, rhs):
            assert sum(u * v for u, v in zip(r, x)) == b


def test_solve_inconsistent():
    a = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert solve(a, [Fraction(1), Fraction(2)]) is None


def test_in_span():
    v1 = [Fraction(1), Fraction(0), Fraction(1)]
    v2 = [Fraction(0), Fraction(1), Fraction(1)]
    assert in_span([v1, v2], [Fraction(1), Fraction(1), Fraction(2)])
    assert not in_span([v1, v2], [Fraction(0), Fraction(0), Fraction(1)])
    assert in_span([], [Fraction(0)])
    assert not in_span([], [Fraction(1)])


def test_rref_idempotent():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    r1, p1 = rref(a)
    r2, p2 = rref(r1)
    assert r1 == r2 and p1 == p2
