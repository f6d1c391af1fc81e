"""Exact linear algebra over Q (fractions.Fraction) on one kernel.

Every elimination in the package goes through `Echelon`, one incremental
sparse echelon basis: vectors are {column: Fraction} dicts without zero
entries, each stored row has its least column as pivot, is scaled to 1
there and is zero in every other row's pivot column, so the stored rows
are the reduced row echelon form of everything added.  Each row also
carries its combination of the tagged vectors that were added, which
answers dependency and solution questions without a second elimination.

`rref`, `kernel_basis`, `solve` and `in_span` take dense lists and read
their answers off such a basis; a caller with one question uses them,
and a caller with many questions against one span holds an `Echelon`.
Sizes are desk scale, exactness is the point.
"""

from fractions import Fraction

from .scalars import rational_of


def _axpy(out, c, vec):
    """out += c * vec in place, dropping the entries that cancel."""
    for k, v in vec.items():
        s = out.get(k, 0) + c * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)


class Echelon:
    """Reduced echelon basis of the sparse vectors added so far."""

    def __init__(self):
        self.rows = {}  # pivot column -> (row, combination of tags)

    def reduce(self, vec):
        """(residual, combination): vec minus the residual is the sum of
        combination[tag] times the vector added under tag, and the
        residual is zero in every pivot column."""
        res, comb = {k: v for k, v in vec.items() if v}, {}
        for p, c in vec.items():
            if p in self.rows:
                row, rcomb = self.rows[p]
                _axpy(res, -c, row)
                _axpy(comb, c, rcomb)
        return res, comb

    def add(self, vec, tag):
        """Add vec under tag.  Returns None if vec was independent of the
        vectors before it, else its combination of their tags."""
        res, comb = self.reduce(vec)
        if not res:
            return comb
        p = min(res)
        inv = 1 / Fraction(res[p])
        row = {k: inv * v for k, v in res.items()}
        rcomb = {t: -inv * v for t, v in comb.items()}
        rcomb[tag] = inv
        for other, ocomb in self.rows.values():
            c = other.get(p)
            if c:
                _axpy(other, -c, row)
                _axpy(ocomb, -c, rcomb)
        self.rows[p] = (row, rcomb)
        return None


def column_kernel(columns):
    """(echelon, kernel) of the matrix whose columns are the given sparse
    vectors: the echelon basis holds the columns tagged by position, and
    the kernel has, for each column j dependent on the ones before it,
    e_j minus that combination, with its entries in index order."""
    ech = Echelon()
    kernel = []
    for j, col in enumerate(columns):
        dep = ech.add(col, j)
        if dep is not None:
            dep = {i: -q for i, q in dep.items()}
            dep[j] = Fraction(1)
            kernel.append(dict(sorted(dep.items())))
    return ech, kernel


def _sparse(vec):
    """The nonzero entries of a dense vector, as {index: Fraction}."""
    return {i: Fraction(x) for i, x in enumerate(vec) if x}


class CoordinateError(ValueError):
    """A state has no rational coordinates over the given keys."""


def rational_coords(state, index):
    """Sparse coordinates of a state over the keys of index;
    CoordinateError if a coefficient is not rational or a key is not
    indexed."""
    out = {}
    for k, c in state.items():
        q = rational_of(c)
        if q is None:
            raise CoordinateError("non-rational coefficient %s" % c)
        if k not in index:
            raise CoordinateError("state leaves the enumerated window: %r"
                                  % (k,))
        if q:
            out[index[k]] = q
    return out


def dense_coords(state, index):
    """rational_coords as a dense list of len(index) rationals."""
    v = [Fraction(0)] * len(index)
    for i, q in rational_coords(state, index).items():
        v[i] = q
    return v


def _row_echelon(mat):
    ech = Echelon()
    for i, r in enumerate(mat):
        ech.add(_sparse(r), i)
    return ech


def rref(mat):
    """Row-reduce a copy of mat; returns (rows, pivot_columns)."""
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = sorted(_row_echelon(mat).rows.items())
    rows = [[Fraction(0)] * ncols for _ in mat]
    for dense, (_, (row, _)) in zip(rows, pivots):
        for j, v in row.items():
            dense[j] = v
    return rows, [p for p, _ in pivots]


def kernel_basis(mat):
    """Basis of the right kernel {x : mat @ x = 0}: one vector per
    non-pivot column j, with x[j] = 1 and x[p] = -rref[p][j] on the
    pivot columns (column_kernel of the columns, made dense)."""
    if not mat:
        return []
    ncols = len(mat[0])
    _, kernel = column_kernel([_sparse(col) for col in zip(*mat)])
    return [[v.get(j, Fraction(0)) for j in range(ncols)] for v in kernel]


def solve(mat, rhs):
    """One solution x of mat @ x = rhs, or None if inconsistent; every
    free variable is 0."""
    if not mat:
        return None if any(v != 0 for v in rhs) else []
    ncols = len(mat[0])
    rows, pivots = rref([list(r) + [v] for r, v in zip(mat, rhs)])
    if ncols in pivots:
        return None  # pivot in the augmented column
    x = [Fraction(0)] * ncols
    for row, p in zip(rows, pivots):
        x[p] = row[ncols]
    return x


def in_span(vectors, vec):
    """Is vec in the span of the given vectors (all same length)?"""
    res, _ = _row_echelon(vectors).reduce(_sparse(vec))
    return not res
