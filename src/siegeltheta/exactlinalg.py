"""Exact dense linear algebra over Q and Z.

Everything here operates on small matrices (Gram matrices, projector factors
and the homogeneity constraint systems, which basis_homopol solves one
row-degree block at a time, a few dozen columns each), so plain Fraction
arithmetic with Gaussian elimination is fast enough and keeps every
intermediate value exact.
"""

from __future__ import annotations

from fractions import Fraction


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
    """Reduce Fraction rows in place to reduced row echelon form in the first ncols columns.

    Rows may be longer than ncols (an augmented matrix); the extra columns
    ride along.  Returns (pivots, swaps): pivots lists (column, value) for
    each pivot in order, value being the entry divided out of its row, and
    swaps counts the row exchanges.  Stops once every row holds a pivot.
    """
    pivots = []
    swaps = 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            swaps += 1
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append((col, pv))
        rank += 1
        if rank == len(rows):
            break
    return pivots, swaps


def mat_inverse(m):
    """Exact inverse of a square Fraction matrix via Gauss-Jordan.

    Raises ValueError if the matrix is singular.
    """
    n = len(m)
    aug = [[Fraction(x) for x in row] + unit for row, unit in zip(m, identity_frac(n))]
    if len(gauss_jordan(aug, n)[0]) < n:
        raise ValueError("matrix is singular over Q")
    return [row[n:] for row in aug]


def is_positive_definite(m) -> bool:
    """Sylvester's criterion for a symmetric rational matrix, from one elimination.

    Without row exchanges the k-th pivot is the ratio of the k-th and
    (k-1)-th leading principal minors, so every minor is positive exactly
    when the elimination needs no exchange and every pivot is positive.
    """
    rows = frac_matrix(m)
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
    dense = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows if r]
    pivots = [col for col, _ in gauss_jordan(dense, ncols)[0]]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -dense[r][fc]
        basis.append(_primitive(v))
    return basis


def _primitive(v):
    """Scale a rational vector to a primitive integer vector, first nonzero entry > 0."""
    from math import gcd, lcm

    den = 1
    for x in v:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return [Fraction(x) for x in ints]


def smith_normal_form(a):
    """Smith normal form with transforms: returns (d, u, v) with u a v = d.

    a is a square integer matrix; u and v are unimodular integer matrices and
    d is diagonal with d[i] | d[i+1] and d[i] >= 0.  Classic elementary-ops
    algorithm; fine for the small Gram matrices handled here.
    """
    m = [[int(x) for x in row] for row in a]
    n = len(m)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def add_row(src, dst, f):
        for j in range(n):
            m[dst][j] += f * m[src][j]
            u[dst][j] += f * u[src][j]

    def add_col(src, dst, f):
        for r in range(n):
            m[r][dst] += f * m[r][src]
            v[r][dst] += f * v[r][src]

    for t in range(n):
        while True:
            # locate the smallest nonzero entry of the trailing block
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break  # trailing block is zero
            bi, bj = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            done = True
            for i in range(t + 1, n):
                q = m[i][t] // m[t][t]
                if q:
                    add_row(t, i, -q)
                if m[i][t]:
                    done = False
            for j in range(t + 1, n):
                q = m[t][j] // m[t][t]
                if q:
                    add_col(t, j, -q)
                if m[t][j]:
                    done = False
            if not done:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if m[i][j] % m[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)

    for t in range(n):
        if m[t][t] < 0:
            for j in range(n):
                m[t][j] = -m[t][j]
                u[t][j] = -u[t][j]
    d = [m[i][i] for i in range(n)]
    return d, u, v
