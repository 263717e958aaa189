"""Exact linear algebra over Q and Z.

Every exact rational system (matrix inverses, Sylvester's test, and the
homogeneity constraints basis_homopol solves as one kernel over all monomials
of the degree) goes through gauss_jordan, which works on sparse rows, one
{column: Fraction} dict per row.  The constraint systems have hundreds of
columns but at most three nonzeros per row, so dict rows skip nearly all the
work a dense row would do, and every intermediate value stays exact.
Determinants of integer matrices use fraction-free Bareiss elimination.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm


def frac_matrix(rows):
    """Copy a nested sequence into a list-of-lists of Fractions."""
    return [[Fraction(x) for x in row] for row in rows]


def identity_frac(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    oi[j] += x * bt[j]
    return out


def gauss_jordan(rows, ncols):
    """Reduce sparse Fraction rows in place to reduced row echelon form in columns < ncols.

    Each row is a {column: Fraction} dict holding no zeros; columns >= ncols
    (an augmented matrix) ride along.  Columns are taken left to right and the
    first remaining row with a nonzero entry becomes the pivot row.  Returns
    (pivots, swaps): pivots lists (column, value) for each pivot in order,
    value being the entry divided out of its row, and swaps counts the row
    exchanges.  Stops once every row holds a pivot.  An index from each
    column to the positions of the rows that hold it finds the pivot row and
    the rows to clear without scanning the others.
    """
    holders = defaultdict(set)
    for r, row in enumerate(rows):
        for c in row:
            if c < ncols:
                holders[c].add(r)
    pivots = []
    swaps = 0
    rank = 0
    for col in range(ncols):
        below = [r for r in holders[col] if r >= rank]
        if not below:
            continue
        piv = min(below)
        if piv != rank:
            a, b = rows[rank].keys(), rows[piv].keys()
            for c in a - b:
                if c < ncols:
                    holders[c].remove(rank)
                    holders[c].add(piv)
            for c in b - a:
                if c < ncols:
                    holders[c].remove(piv)
                    holders[c].add(rank)
            rows[rank], rows[piv] = rows[piv], rows[rank]
            swaps += 1
        pv = rows[rank][col]
        prow = rows[rank] = {c: x / pv for c, x in rows[rank].items()}
        for r in [r for r in holders[col] if r != rank]:
            row = rows[r]
            f = row[col]
            for c, x in prow.items():
                if c in row:
                    v = row[c] - f * x
                    if v:
                        row[c] = v
                    else:
                        del row[c]
                        if c < ncols:
                            holders[c].discard(r)
                else:
                    row[c] = -f * x
                    if c < ncols:
                        holders[c].add(r)
        pivots.append((col, pv))
        rank += 1
        if rank == len(rows):
            break
    return pivots, swaps


def _sparse_rows(m):
    """The rows of a dense matrix as {column: Fraction} dicts without zeros."""
    return [{j: Fraction(x) for j, x in enumerate(row) if x} for row in m]


def mat_inverse(m):
    """Exact inverse of a square rational matrix via Gauss-Jordan.

    Raises ValueError if the matrix is singular.
    """
    n = len(m)
    aug = _sparse_rows(m)
    for i, row in enumerate(aug):
        row[n + i] = Fraction(1)
    if len(gauss_jordan(aug, n)[0]) < n:
        raise ValueError("matrix is singular over Q")
    return [[row.get(n + j, Fraction(0)) for j in range(n)] for row in aug]


def is_positive_definite(m) -> bool:
    """Sylvester's criterion for a symmetric rational matrix, from one elimination.

    Without row exchanges the k-th pivot is the ratio of the k-th and
    (k-1)-th leading principal minors, so every minor is positive exactly
    when the elimination needs no exchange and every pivot is positive.
    """
    rows = _sparse_rows(m)
    pivots, swaps = gauss_jordan(rows, len(rows))
    return swaps == 0 and len(pivots) == len(rows) and all(v > 0 for _, v in pivots)


def det_bareiss(m) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = None
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    swap = r
                    break
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rational_kernel(rows, ncols):
    """Basis of the right kernel of a sparse rational matrix.

    rows: iterable of {col: coeff} dicts.  Returns a list of length-ncols
    Fraction vectors in reduced echelon parametrization, scaled to primitive
    integer vectors with positive leading entry.  Deterministic.
    """
    reduced = [r for r in ({c: Fraction(x) for c, x in row.items() if x} for row in rows) if r]
    pivots = [col for col, _ in gauss_jordan(reduced, ncols)[0]]
    pivot_set = set(pivots)
    zero = Fraction(0)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = {fc: Fraction(1)}
        for row, pc in zip(reduced, pivots):
            if fc in row:
                v[pc] = -row[fc]
        # v has the entry 1, so clearing the denominators by their lcm
        # already leaves a primitive integer vector
        den = lcm(*(x.denominator for x in v.values()))
        if v[min(v)] < 0:
            den = -den
        vec = [zero] * ncols
        for c, x in v.items():
            vec[c] = Fraction(x.numerator * (den // x.denominator))
        basis.append(vec)
    return basis
