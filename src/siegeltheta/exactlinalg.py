"""Exact linear algebra over Q and Z.

Every exact elimination (matrix inverses, determinants, Sylvester's test
with its solve, and the echelon form of the minor products that
basis_homopol reduces) goes through gauss_jordan, which works on sparse
rows, one {column: value} dict per row.  Rows of hundreds of columns with a
few nonzeros each skip nearly all the work a dense row would do, and every
intermediate value stays exact.  A determinant is the signed product of the
pivots.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import prod


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
    """Reduce sparse rational rows in place to reduced row echelon form in columns < ncols.

    Each row is a {column: int or Fraction} dict holding no zeros; columns >=
    ncols (an augmented matrix) ride along.  A pivot other than 1 is divided
    out as a Fraction, so every value stays exact.  Columns are taken left to
    right and the first remaining row with a nonzero entry becomes the pivot
    row.  Returns (pivots, swaps): pivots lists (column, value) for each pivot
    in order, value being the entry divided out of its row, and swaps counts
    the row exchanges.  Stops once every row holds a pivot.  An index from
    each column to the positions of the rows that hold it finds the pivot row
    and the rows to clear without scanning the others.
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
        if pv != 1:
            pv = Fraction(pv)
            rows[rank] = {c: x / pv for c, x in rows[rank].items()}
        prow = rows[rank]
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


def _solve(m, b):
    """gauss_jordan on [m | b], m square: its (pivots, swaps) and the block right of m after."""
    n, k = len(m), len(b[0]) if b else 0
    aug = [{j: Fraction(x) for j, x in enumerate((*row, *brow)) if x} for row, brow in zip(m, b)]
    pivots, swaps = gauss_jordan(aug, n)
    zero = Fraction(0)
    return pivots, swaps, [[row.get(j, zero) for j in range(n, n + k)] for row in aug]


def mat_inverse(m):
    """Exact inverse of a square rational matrix; ValueError if it is singular."""
    n = len(m)
    pivots, _, inv = _solve(m, [[int(i == j) for j in range(n)] for i in range(n)])
    if len(pivots) < n:
        raise ValueError("matrix is singular over Q")
    return inv


def _definite(pivots, swaps, n) -> int:
    """Sylvester's test from an elimination of a symmetric n x n matrix: 1, -1 or 0.

    Without row exchanges the k-th pivot is the ratio of the k-th and
    (k-1)-th leading principal minors, so the matrix is positive definite
    exactly when the elimination needs no exchange and every pivot is
    positive (1), and negative definite, its negation positive definite,
    when every pivot is negative instead (-1); otherwise 0.
    """
    if swaps or len(pivots) < n:
        return 0
    if all(v > 0 for _, v in pivots):
        return 1
    return -1 if all(v < 0 for _, v in pivots) else 0


def posdef_solve(m, b):
    """M^-1 B for a symmetric rational M that is positive definite, None when it is not.

    One elimination of [M | B] is also Sylvester's test (_definite).
    """
    pivots, swaps, x = _solve(m, b)
    return x if _definite(pivots, swaps, len(m)) == 1 else None


def det_definite(m) -> tuple:
    """(det, definite) of a square rational matrix m from one elimination.

    det is the signed product of the pivots, and for a symmetric m definite
    is 1 or -1 when Sylvester's test proves it positive or negative
    definite, 0 otherwise (_definite).
    """
    pivots, swaps, _ = _solve(m, [()] * len(m))
    if len(pivots) < len(m):
        return Fraction(0), 0
    return prod((v for _, v in pivots), start=Fraction((-1) ** swaps)), _definite(pivots, swaps, len(m))
