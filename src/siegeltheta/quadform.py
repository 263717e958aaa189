"""Integral quadratic forms: signature decomposition, cosets, lattice enumeration.

A form is a symmetric invertible integer matrix A.  decompose() produces the
normalized eigen-split A = A+ + A- with majorant M = A+ - A- (the matrix
absolute value of A).  When M is rational the split is upgraded to exact
arithmetic, which is what makes the symbolic zero-residual checks on the
fixture forms possible.

coset_reps() enumerates A^-1 Z^(m x n) / Z^(m x n) column-wise from the Smith
normal form of A.  lattice_blocks() enumerates an ellipsoid q(v + c) <= R^2
around a real center, pruning on the Cholesky factorization of the Gram
matrix over a chunked numpy frontier of partial vectors (the level-by-level
ellipsoid enumeration of Deconinck et al., "Computing Riemann theta
functions", Math. Comp. 73 (2004), run depth first chunk by chunk so memory
stays bounded), in a deterministic order; lattice_points() refilters its
output exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import ResourceCapError
from .exactlinalg import (det_bareiss, frac_matrix, identity_frac, is_positive_definite, mat_inverse,
                          mat_mul, smith_normal_form)

# ==== form basics ===========================================================


def as_form_array(A) -> np.ndarray:
    a = np.asarray(A)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("a quadratic form must be a square matrix")
    ai = np.rint(np.asarray(a, dtype=float)).astype(np.int64)
    if not np.array_equal(np.asarray(a, dtype=float), ai.astype(float)):
        raise ValueError("a quadratic form must have integer entries")
    if not np.array_equal(ai, ai.T):
        raise ValueError("a quadratic form must be symmetric")
    return ai


def form_det(A) -> int:
    return det_bareiss(as_form_array(A).tolist())


class QuadForm:
    """A symmetric invertible integer matrix with cached invariants."""

    def __init__(self, A):
        self.A = as_form_array(A)
        self.m = self.A.shape[0]
        self.det = int(det_bareiss(self.A.tolist()))
        if self.det == 0:
            raise ValueError("form is degenerate")
        eigs = np.linalg.eigvalsh(self.A.astype(float))
        self.r = int(np.sum(eigs > 0))
        self.s = int(np.sum(eigs < 0))


# ==== eigen decomposition ===================================================


class QuadFormDecomposition:
    """Normalized split of an invertible symmetric integer form.

    Float fields always exist; exact (a dict of Fraction matrices) exists
    exactly when the matrix absolute value of A is rational, and is None
    otherwise.  proj_plus / proj_minus satisfy U = U+ + U- with
    tr(U+-^T A U+-) = tr(U^T A+- U).
    """

    def __init__(self, form, r, s, aplus, aminus, M, exact=None):
        self.form = form
        self.r = r
        self.s = s
        self.aplus = aplus
        self.aminus = aminus
        self.M = M
        # exact: dict with keys aplus, aminus, M, proj_plus, proj_minus
        self.exact = exact

    @property
    def A(self):
        return self.form.A

    @property
    def m(self):
        return self.form.m

    def has_exact_split(self) -> bool:
        return self.exact is not None

    def proj_plus_matrix(self):
        return self.exact["proj_plus"] if self.exact else (np.linalg.inv(self.M) @ self.aplus).tolist()

    def proj_minus_matrix(self):
        if self.exact:
            return self.exact["proj_minus"]
        return (-(np.linalg.inv(self.M) @ self.aminus)).tolist()

    def fraction_matrix(self, name: str):
        """M, aminus, proj_plus or proj_minus as a list of Fraction rows.

        Exact when the matrix absolute value of A is rational.  Otherwise the
        exact image of the float matrix, with M and A- symmetrised: the float
        eigen-split leaves them symmetric only to a few ulps, and a Gaussian
        factor built from A- must be exactly symmetric.
        """
        if self.exact is not None:
            return self.exact[name]
        if name == "proj_plus":
            return frac_matrix(self.proj_plus_matrix())
        if name == "proj_minus":
            return frac_matrix(self.proj_minus_matrix())
        mat = {"M": self.M, "aminus": self.aminus}[name]
        return frac_matrix(((mat + mat.T) / 2.0).tolist())


def _rationalize_matrix(Mf: np.ndarray, max_den: int = 10**6):
    return [[Fraction(x).limit_denominator(max_den) for x in row] for row in Mf.tolist()]


def decompose(A) -> QuadFormDecomposition:
    """Eigen-normalized decomposition of a symmetric invertible integer form.

    A+ (A-) restricts the form to the positive (negative) eigenspace; the
    majorant M = A+ - A- is positive definite and is computed as
    (S^-1)^T S^-1, where the columns of S are the eigenvectors scaled by
    abs(eigenvalue)^(-1/2).
    """
    form = A if isinstance(A, QuadForm) else QuadForm(A)
    a = form.A.astype(float)
    eigvals, eigvecs = np.linalg.eigh(a)
    if np.any(np.abs(eigvals) < 1e-9):
        raise ValueError("form is numerically singular")
    order = np.argsort(-eigvals)  # positives first, descending
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    r, s = form.r, form.s
    S = eigvecs / np.sqrt(np.abs(eigvals))
    Sinv = np.linalg.inv(S)
    aplus = eigvecs[:, :r] @ np.diag(eigvals[:r]) @ eigvecs[:, :r].T
    aminus = eigvecs[:, r:] @ np.diag(eigvals[r:]) @ eigvecs[:, r:].T
    M = Sinv.T @ Sinv

    exact = _try_exact_split(form)
    return QuadFormDecomposition(form, r, s, aplus, aminus, M, exact)


def _try_exact_split(form: QuadForm):
    """Exact A = A+ + A- split whenever the matrix absolute value is rational.

    The candidate for M = (A^2)^(1/2) is obtained by rationalizing the float
    result and then verified exactly: M^2 == A^2, M symmetric, M positive
    definite.  All fixture forms used by the exact-mode checks pass this.
    """
    a = form.A.astype(float)
    eigvals, eigvecs = np.linalg.eigh(a)
    Mf = eigvecs @ np.diag(np.abs(eigvals)) @ eigvecs.T
    Mf = (Mf + Mf.T) / 2
    Mrat = _rationalize_matrix(Mf)
    m = form.m
    for i in range(m):
        for j in range(i):
            if Mrat[i][j] != Mrat[j][i]:
                return None
    A2 = (form.A @ form.A).tolist()
    M2 = mat_mul(Mrat, Mrat)
    for i in range(m):
        for j in range(m):
            if M2[i][j] != A2[i][j]:
                return None
    if not is_positive_definite(Mrat):
        return None
    arat = frac_matrix(form.A.tolist())
    aplus = [[(arat[i][j] + Mrat[i][j]) / 2 for j in range(m)] for i in range(m)]
    aminus = [[(arat[i][j] - Mrat[i][j]) / 2 for j in range(m)] for i in range(m)]
    minv = mat_inverse(Mrat)
    proj_plus = mat_mul(minv, aplus)
    proj_minus = [[-x for x in row] for row in mat_mul(minv, aminus)]
    # projector sanity, exact
    ident = identity_frac(m)
    psum = [[proj_plus[i][j] + proj_minus[i][j] for j in range(m)] for i in range(m)]
    if psum != ident:
        return None
    return {
        "M": Mrat,
        "aplus": aplus,
        "aminus": aminus,
        "proj_plus": proj_plus,
        "proj_minus": proj_minus,
    }


# ==== cosets ================================================================


class CosetRep:
    """One representative J of A^-1 Z^(m x n) / Z^(m x n), entries in [0, 1)."""

    __slots__ = ("J",)

    def __init__(self, J):
        self.J = tuple(tuple(Fraction(x) for x in row) for row in J)

    @property
    def m(self):
        return len(self.J)

    @property
    def n(self):
        return len(self.J[0])

    def __eq__(self, other):
        return isinstance(other, CosetRep) and self.J == other.J

    def __hash__(self):
        return hash(self.J)

    def __repr__(self):
        return "CosetRep(%s)" % (self.J,)


def coset_column_reps(A):
    """Representatives of A^-1 Z^m / Z^m as Fraction column vectors in [0,1)."""
    a = as_form_array(A)
    m = a.shape[0]
    d, u, v = smith_normal_form(a.tolist())
    if any(x == 0 for x in d):
        raise ValueError("form is degenerate")
    cols = []
    for ks in itertools.product(*(range(di) for di in d)):
        w = [Fraction(k, di) for k, di in zip(ks, d)]
        col = [sum(Fraction(v[i][j]) * w[j] for j in range(m)) % 1 for i in range(m)]
        cols.append(tuple(col))
    return cols


def coset_reps(A, n: int, cap: int = 100_000):
    """All m x n matrices J with columns in A^-1 Z^m / Z^m, abs(det A)^n of them."""
    if n < 1:
        raise ValueError("genus n must be positive, got %d" % n)
    a = as_form_array(A)
    count = abs(form_det(a)) ** n
    if count > cap:
        raise ResourceCapError("coset count %d exceeds the cap %d" % (count, cap))
    cols = coset_column_reps(a)
    reps = []
    for combo in itertools.product(cols, repeat=n):
        J = [[combo[j][i] for j in range(n)] for i in range(a.shape[0])]
        reps.append(CosetRep(J))
    return reps


# ==== lattice enumeration ===================================================


def _cholesky_data(G: np.ndarray):
    """Pivots d_i and mixing coefficients mu from G = L L^T.

    q(x) = sum_i d_i (x_i + sum_{j>i} mu[i][j] x_j)^2 with d_i = L[i,i]^2 and
    mu[i][j] = L[j,i] / L[i,i].
    """
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Gram matrix is not positive definite") from exc
    d = np.diag(L) ** 2
    mu = (L / np.diag(L)).T  # mu[i, j] = L[j, i] / L[i, i], used for j > i
    return d, mu


# Interior rows expanded per frontier step.  The frontier holds at most one
# chunk of this many rows per level, each row N int64 coordinates and at most
# N float shifts: under 7 MB even for the 20-dimensional ellipsoids of h2+e8
# in genus 2, and it stays allocated while the caller sums a block.  On the
# grid benchmark (2-vCPU host, two runs each) 256 rows read wall_s 1.02-1.15 s
# and peak RSS 53.0-53.8 MB, 1024 rows 0.72-0.76 s and 54.1-54.6 MB, and 8192
# rows 0.64-0.65 s but 60.3-60.8 MB, 15% above the 52.8 MB of a depth-first
# recursion: past 1024 rows memory grows faster than speed.
_FRONTIER_ROWS = 1024


def lattice_blocks(G, center, R2: float, point_cap=None, block_size: int = 8192):
    """Yield (k, N) int64 arrays of all v in Z^N with q(v + center) <= R2.

    The search runs from the last coordinate down to the first over a
    frontier of partial vectors held in numpy arrays: a chunk of rows at one
    level is expanded at once into all children whose partial q stays within
    the bound, at most _FRONTIER_ROWS children per step (more only when one
    parent alone has more).  Unexpanded parents wait on a stack below their
    children, so the frontier holds at most one chunk per level and peak
    memory is O(N^2 _FRONTIER_ROWS + N block_size) whatever the number of
    points.  Candidate rows pass a final filter through the quadratic form
    itself with a small slack above R2, so boundary points are never lost to
    rounding in the per-level interval bounds; a handful of just-outside
    points may be admitted (harmless for tail-certified sums; lattice_points
    refilters exactly).  Rows come in blocks of about block_size, in a
    deterministic order: ascending in each coordinate, last coordinate
    outermost.  Each interval is cast to int64 and allocated whole, so a
    bound beyond 2^52 or one interval of more than point_cap candidates
    raises ResourceCapError before that.
    """
    G = np.asarray(G, dtype=float)
    c = np.asarray(center, dtype=float).reshape(-1)
    N = G.shape[0]
    if G.shape != (N, N) or c.shape != (N,):
        raise ValueError("Gram/center shape mismatch")
    if R2 < 0:
        return
    d, mu = _cholesky_data(G)
    slack = 1e-9 * (1.0 + abs(R2))
    # bounds at level l lie within the ellipsoid's projection |c_l| + sqrt((R2 + slack)
    # (G^-1)_ll), plus 1; an interval holds at most 2 sqrt((R2 + slack) / d_l) + 2 points
    reach = np.abs(c) + np.sqrt((R2 + slack) * np.diag(np.linalg.inv(G))) + 1.0
    if not np.all(reach < 2.0**52):
        raise ResourceCapError("an enumeration bound of %.3g is beyond 2^52" % float(np.max(reach)))
    wide = point_cap is not None and bool(np.any(2.0 * np.sqrt((R2 + slack) / d) + 2.0 > point_cap))

    buffer = []
    buffered = 0
    count = 0

    def q_values(rows: np.ndarray) -> np.ndarray:
        # two einsum passes: half the time of one three-operand einsum, and
        # unlike x @ G no BLAS call, whose first use adds buffers to the RSS
        x = rows + c
        return np.einsum("ij,ij->i", np.einsum("ij,jk->ik", x, G), x)

    def flush():
        nonlocal buffer, buffered, count
        if not buffer:
            return None
        rows = np.concatenate(buffer, axis=0)
        buffer = []
        buffered = 0
        keep = rows[q_values(rows) <= R2 + slack]
        if keep.shape[0]:
            count += keep.shape[0]
            if point_cap is not None and count > point_cap:
                raise ResourceCapError(
                    "lattice enumeration exceeded the %d point cap" % point_cap
                )
            return keep
        return None

    # A chunk at level l: fixed coordinates V (entries below l are zero), the
    # shifts S[:, i] = sum_{j>l} mu[i, j] (V[:, j] + c[j]) for i <= l,
    # accumulated from the outermost level inwards, and the partial q so far.
    stack = [(N - 1, np.zeros((1, N), dtype=np.int64), np.zeros((1, N)), np.zeros(1))]
    while stack:
        level, V, S, used = stack.pop()
        half = np.sqrt(((R2 - used) + slack) / d[level])
        mid = c[level] + S[:, level]
        lo = np.ceil(-mid - half - 1e-12).astype(np.int64)
        hi = np.floor(-mid + half + 1e-12).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0)
        if wide and counts.max() > point_cap:
            raise ResourceCapError("one enumeration interval holds %d candidates, above the %d point cap"
                                   % (counts.max(), point_cap))
        ends = np.cumsum(counts)
        # Expand the longest prefix of parents with at most _FRONTIER_ROWS
        # children (always at least one parent); the rest go back on the stack
        # beneath the children so that the depth-first order is kept.
        take = max(1, int(np.searchsorted(ends, _FRONTIER_ROWS, side="right")))
        if take < V.shape[0]:
            stack.append((level, V[take:], S[take:], used[take:]))
            counts, ends = counts[:take], ends[:take]
        total = int(ends[-1])
        if total == 0:
            continue
        parent = np.repeat(np.arange(take), counts)
        vals = np.arange(total) + np.repeat(lo[:take] - (ends - counts), counts)
        rows = V[parent]
        rows[:, level] = vals
        if level > 0:
            x = vals + c[level]
            y = x + S[parent, level]
            child_used = used[parent] + d[level] * y * y
            child_S = S[parent, :level] + mu[:level, level] * x[:, None]
            live = (R2 - child_used) + slack >= 0
            if live.any():
                stack.append((level - 1, rows[live], child_S[live], child_used[live]))
            continue
        # Leaves: one run per parent.  A block is cut after the run that
        # brings the buffer to block_size.
        run_ends = ends[counts > 0]
        start = 0
        while start < total:
            i = int(np.searchsorted(run_ends, start + max(block_size - buffered, 1)))
            stop = total if i == run_ends.shape[0] else int(run_ends[i])
            buffer.append(rows[start:stop])
            buffered += stop - start
            if i < run_ends.shape[0]:
                out = flush()
                if out is not None:
                    yield out
            start = stop
    out = flush()
    if out is not None:
        yield out


def lattice_points(G, center, R2, point_cap=None):
    """Stream of integer vectors v with (v + center)^T G (v + center) <= R2.

    The block enumeration prunes in floating point with a little slack; each
    candidate is refiltered here in exact rational arithmetic, so the emitted
    set is exact whenever G, center, and R2 are exactly representable
    (integers, Fractions, or dyadic floats).  Boundary ties q = R2 are kept.
    """
    Gmat = np.asarray(G)
    N = Gmat.shape[0]
    cvals = center.tolist() if isinstance(center, np.ndarray) else list(center)
    Gf = [[Fraction(x) for x in row] for row in Gmat.tolist()]
    cf = [Fraction(x) for x in cvals]
    R2f = Fraction(R2)
    for block in lattice_blocks(Gmat, [float(x) for x in cf], float(R2f), point_cap=point_cap):
        for row in block:
            x = [cf[i] + int(row[i]) for i in range(N)]
            q = sum(Gf[i][j] * x[i] * x[j] for i in range(N) for j in range(N) if x[i] and x[j])
            if q <= R2f:
                yield row.copy()


# ==== named fixtures ========================================================

# Gram matrix of the E8 root lattice in a simple-root basis (even, unimodular,
# positive definite; chain 1-3-4-5-6-7-8 with node 2 attached to node 4).
_E8 = [
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]

_H2 = [[0, 1], [1, 0]]

FIXTURES = ("e8", "h2", "h2+e8", "diag:2,-2")


def named_form(name: str) -> np.ndarray:
    """Resolve a fixture name: e8, h2, h2+e8, or diag:a,b,... patterns."""
    key = name.strip().lower()
    if key == "e8":
        return np.array(_E8, dtype=np.int64)
    if key == "h2":
        return np.array(_H2, dtype=np.int64)
    if key == "h2+e8":
        out = np.zeros((10, 10), dtype=np.int64)
        out[:2, :2] = _H2
        out[2:, 2:] = _E8
        return out
    if key.startswith("diag:"):
        try:
            entries = [int(x) for x in key[5:].split(",")]
        except ValueError as exc:
            raise ValueError("bad diagonal fixture %r" % name) from exc
        if not entries or any(x == 0 for x in entries):
            raise ValueError("diagonal fixture needs nonzero entries")
        return np.diag(np.array(entries, dtype=np.int64))
    raise ValueError("unknown form fixture %r (known: %s, diag:a,b,...)" % (name, ", ".join(FIXTURES[:3])))
