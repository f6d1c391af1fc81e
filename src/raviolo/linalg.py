"""Exact linear algebra on one kernel.

Eliminations run on vectors of the scalars layer ({column: coefficient}
dicts, canonical rational entries, no zeros) and sum through vadd/vscale
like every other vector; a pivot inverse is the one ring operation
beyond that primitive.  `Echelon` is the incremental basis: each stored
row has its least column as pivot, is scaled to 1 there and is zero in
every other row's pivot column (the reduced row echelon form of all
added), and carries its combination of the tagged vectors added, which
answers dependency and solution questions without a second elimination.
`rank` answers only a dimension, by the same pivots without tags or
back-reduction, so a caller that needs no kernel pays for none.

`kernel_basis` and `in_span` take sparse vectors, such as the
coordinates `rational_coords` returns, and read their answers off such a
basis; a caller with one question uses them.  A caller with many
questions against one span holds an `Echelon` (`column_kernel` builds
one from columns) and asks each with `solve`, one reduction.  `rref` is
the one function on dense lists.  Sizes are desk scale, exactness is
the point.
"""

from fractions import Fraction

from .scalars import as_vector, rational_of, vadd, vscale


class Echelon:
    """Reduced echelon basis of the sparse vectors added so far."""

    def __init__(self):
        self.rows = {}  # pivot column -> (row, combination of tags)

    def reduce(self, vec):
        """(residual, combination): vec minus the residual is the sum of
        combination[tag] times the vector added under tag, and the
        residual is zero in every pivot column."""
        res, comb = as_vector(vec), {}
        for p, c in vec.items():
            if p in self.rows:
                row, rcomb = self.rows[p]
                vadd(res, row, -c)
                vadd(comb, rcomb, c)
        return res, comb

    def add(self, vec, tag):
        """Add vec under tag.  Returns None if vec was independent of the
        vectors before it, else its combination of their tags."""
        res, comb = self.reduce(vec)
        if not res:
            return comb
        p = min(res)
        inv = 1 / Fraction(res[p])
        row = vscale(res, inv)
        rcomb = vadd(vscale(comb, -inv), {tag: inv})
        for other, ocomb in self.rows.values():
            c = other.get(p)
            if c:
                vadd(other, row, -c)
                vadd(ocomb, rcomb, -c)
        self.rows[p] = (row, rcomb)
        return None


def rank(vectors):
    """Rank of sparse vectors: semi-echelon, untagged, no back-reduction."""
    rows = {}
    for vec in vectors:
        res = as_vector(vec)
        while res and (p := min(res)) in rows:
            vadd(res, rows[p], -res[p])
        if res:
            rows[p] = vscale(res, 1 / Fraction(res[p]))
    return len(rows)


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
            dep = vscale(dep, -1)
            dep[j] = 1
            kernel.append(dict(sorted(dep.items())))
    return ech, kernel


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


def rref(mat):
    """Row-reduce a copy of the dense matrix mat; returns (rows,
    pivot_columns)."""
    if not mat:
        return [], []
    ncols = len(mat[0])
    ech, _ = column_kernel([{j: Fraction(x) for j, x in enumerate(r) if x}
                            for r in mat])
    pivots = sorted(ech.rows.items())
    rows = [[Fraction(0)] * ncols for _ in mat]
    for dense, (_, (row, _)) in zip(rows, pivots):
        for j, v in row.items():
            dense[j] = v
    return rows, [p for p, _ in pivots]


def kernel_basis(columns):
    """Basis of {x : sum_j x_j columns[j] = 0}, as sparse vectors: one per
    column j dependent on the ones before it, with x_j = 1."""
    return column_kernel(columns)[1]


def solve(ech, target):
    """One solution {j: x_j} (index order, zeros dropped) of
    sum_j x_j columns[j] = target, where ech is column_kernel(columns)'s
    echelon, or None if target is not in their span; every free
    variable is 0, so only the leftmost independent columns are used.
    The echelon is not changed."""
    res, comb = ech.reduce(target)
    return None if res else dict(sorted(comb.items()))


def in_span(vectors, vec):
    """Is the sparse vector vec in the span of the given ones?"""
    return not column_kernel(vectors)[0].reduce(vec)[0]
