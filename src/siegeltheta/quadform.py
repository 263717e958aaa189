"""Integral quadratic forms: signature decomposition, cosets, lattice enumeration.

A form is a symmetric invertible integer matrix A.  decompose() produces the
normalized eigen-split A = A+ + A- with majorant M = A+ - A- (the matrix
absolute value of A).  When M is rational the split is upgraded to exact
arithmetic, which is what makes the symbolic zero-residual checks on the
fixture forms possible.

coset_reps() enumerates A^-1 Z^(m x n) / Z^(m x n) column-wise, as the group
the columns of A^-1 generate mod 1.  lattice_blocks() enumerates an ellipsoid
q(v + c) <= R^2 around a real center, pruning on the Cholesky factorization
of the Gram matrix over a chunked numpy frontier of partial vectors (the
level-by-level ellipsoid enumeration of Deconinck et al., "Computing Riemann
theta functions", Math. Comp. 73 (2004), run depth first chunk by chunk so
memory stays bounded), in a deterministic order.  Each point comes with its
q carried down the Cholesky recurrence and, given a stack of complex
quadratic forms, each form's value carried the same way (the series' term
phase); with half=True and 2 center integral it emits one point of each
pair {x, -x}, which the series sum as one term pair; lattice_points()
refilters its output exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import ResourceCapError
from .exactlinalg import frac_matrix, mat_det, mat_inverse, mat_mul, posdef_solve

# ==== form basics ===========================================================


def as_form_array(A) -> np.ndarray:
    """A as a symmetric int64 matrix; an entry that int64 or float64 would change is refused."""
    a = np.asarray(A, dtype=object)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError("a quadratic form must be a nonempty square matrix")
    for x in a.flat:
        try:
            held = int(x) == x and -2**63 <= x < 2**63 and float(x) == x
        except (TypeError, ValueError, OverflowError):
            held = False
        if not held:
            raise ValueError("a quadratic form must have integer entries that int64 and float64 "
                             "hold exactly, got %r" % (x,))
    ai = a.astype(np.int64)
    if not np.array_equal(ai, ai.T):
        raise ValueError("a quadratic form must be symmetric")
    return ai


class QuadForm:
    """A symmetric invertible integer matrix with cached invariants, its one eigh among them."""

    def __init__(self, A):
        self.A = as_form_array(A)
        self.m = self.A.shape[0]
        self.det = int(mat_det(self.A.tolist()))
        if self.det == 0:
            raise ValueError("form is degenerate")
        self.eigvals, self.eigvecs = np.linalg.eigh(self.A.astype(float))
        self.r = int(np.sum(self.eigvals > 0))
        self.s = int(np.sum(self.eigvals < 0))


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


def decompose(A) -> QuadFormDecomposition:
    """Eigen-normalized decomposition of a symmetric invertible integer form.

    A+ (A-) restricts the form to the positive (negative) eigenspace; the
    majorant M = A+ - A- is positive definite and is computed as
    (S^-1)^T S^-1, where the columns of S are the eigenvectors scaled by
    abs(eigenvalue)^(-1/2).  The eigenpairs are the form's own; the exact
    split, when there is one, is rationalised from this M.
    """
    form = A if isinstance(A, QuadForm) else QuadForm(A)
    if np.any(np.abs(form.eigvals) < 1e-9):
        raise ValueError("form is numerically singular")
    order = np.argsort(-form.eigvals)  # positives first, descending
    eigvals, eigvecs = form.eigvals[order], form.eigvecs[:, order]
    r, s = form.r, form.s
    S = eigvecs / np.sqrt(np.abs(eigvals))
    Sinv = np.linalg.inv(S)
    aplus = eigvecs[:, :r] @ np.diag(eigvals[:r]) @ eigvecs[:, :r].T
    aminus = eigvecs[:, r:] @ np.diag(eigvals[r:]) @ eigvecs[:, r:].T
    M = Sinv.T @ Sinv
    return QuadFormDecomposition(form, r, s, aplus, aminus, M, _try_exact_split(form, M))


def _try_exact_split(form: QuadForm, M: np.ndarray):
    """Exact A = A+ + A- split whenever the matrix absolute value is rational.

    The candidate for |A| is decompose's float M, symmetrised and rationalised.
    It is |A| exactly when M^2 == A^2 and M is positive definite: one
    elimination of [M | A] is Sylvester's test and leaves the sign S = M^-1 A,
    so A+- = (A +- M)/2 and the projectors are (I +- S)/2.  All fixture forms
    used by the exact-mode checks pass this.
    """
    Mrat = [[Fraction(x).limit_denominator(10**6) for x in row] for row in ((M + M.T) / 2).tolist()]
    a = form.A.astype(object)  # Python ints: A^2 stays exact past the int64 range
    if mat_mul(Mrat, Mrat) != (a @ a).tolist():
        return None
    a = a.tolist()
    sign = posdef_solve(Mrat, a)
    if sign is None:
        return None
    return {
        "M": Mrat,
        "aplus": [[(x + y) / 2 for x, y in zip(ra, rm)] for ra, rm in zip(a, Mrat)],
        "aminus": [[(x - y) / 2 for x, y in zip(ra, rm)] for ra, rm in zip(a, Mrat)],
        "proj_plus": [[(int(i == j) + x) / 2 for j, x in enumerate(row)] for i, row in enumerate(sign)],
        "proj_minus": [[(int(i == j) - x) / 2 for j, x in enumerate(row)] for i, row in enumerate(sign)],
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
    """A^-1 Z^m / Z^m as sorted Fraction column vectors in [0,1).

    The columns of A^-1 mod 1 generate the group; sums of them are added
    until no new vector appears.
    """
    inv = mat_inverse(as_form_array(A).tolist())
    gens = {tuple(row[j] % 1 for row in inv) for j in range(len(inv))}
    group = {tuple(Fraction(0) for _ in inv)}
    frontier = set(group)
    while frontier:
        sums = {tuple((a + b) % 1 for a, b in zip(x, g)) for x in frontier for g in gens}
        frontier = sums - group
        group |= frontier
    return sorted(group)


def coset_reps(A, n: int, cap: int = 100_000):
    """All m x n matrices J with columns in A^-1 Z^m / Z^m, abs(det A)^n of them."""
    if n < 1:
        raise ValueError("genus n must be positive, got %d" % n)
    form = QuadForm(A)
    count = abs(form.det) ** n
    if count > cap:
        raise ResourceCapError("coset count %d exceeds the cap %d" % (count, cap))
    cols = coset_column_reps(form.A)
    reps = []
    for combo in itertools.product(cols, repeat=n):
        J = [[combo[j][i] for j in range(n)] for i in range(form.m)]
        reps.append(CosetRep(J))
    return reps


# ==== lattice enumeration ===================================================


def _cholesky_data(G: np.ndarray, L=None):
    """Pivots d_i and mixing coefficients mu from G = L L^T, L factorised here when None.

    q(x) = sum_i d_i (x_i + sum_{j>i} mu[i][j] x_j)^2 with d_i = L[i,i]^2 and
    mu[i][j] = L[j,i] / L[i,i].
    """
    if L is None:
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise ValueError("Gram matrix is not positive definite") from exc
    d = np.diag(L) ** 2
    mu = (L / np.diag(L)).T  # mu[i, j] = L[j, i] / L[i, i], used for j > i
    return d, mu


class Block:
    """One block of lattice_blocks: rows, their carried q and tau.

    rows is a (k, N) int64 array of integer vectors v, q the float q(v +
    center) that the Cholesky recurrence carried down to each row, and tau
    the carried value tau(v + center) of each phase form, complex of shape
    (forms, k), or None when the enumeration carried none.  len(block) is k.
    """

    __slots__ = ("rows", "q", "tau")

    def __init__(self, rows: np.ndarray, q: np.ndarray, tau):
        self.rows = rows
        self.q = q
        self.tau = tau

    def __len__(self) -> int:
        return self.rows.shape[0]


# Interior rows expanded per frontier step.  The frontier holds at most one
# chunk of this many rows per level, each row N int64 coordinates, at most
# N float shifts per carried form and its partial values: under 10 MB even
# for the 20-dimensional ellipsoids of h2+e8 in genus 2, and it stays
# allocated while the caller sums a block.  On the grid benchmark (2-vCPU
# host, two runs each, before the phase was carried) 256 rows read wall_s
# 1.02-1.15 s and peak RSS 53.0-53.8 MB, 1024 rows 0.72-0.76 s and
# 54.1-54.6 MB, and 8192 rows 0.64-0.65 s but 60.3-60.8 MB, 15% above the
# 52.8 MB of a depth-first recursion: past 1024 rows memory grows faster
# than speed.
_FRONTIER_ROWS = 1024


def enumeration_slack(R2: float) -> float:
    """The slack above R2 of lattice_blocks: it keeps a row whose carried q is at most R2 + this."""
    return 1e-9 * (1.0 + abs(R2))


def lattice_blocks(G, center, R2: float, point_cap=None, block_size: int = 8192,
                   half: bool = False, phase=None, chol=None):
    """Yield all v in Z^N with q(v + center) <= R2 as Blocks, each row with its carried q.

    The search runs from the last coordinate down to the first over a
    frontier of partial vectors held in numpy arrays: a chunk of rows at one
    level is expanded at once into all children whose partial q stays within
    the bound, at most _FRONTIER_ROWS children per step, or block_size if
    that is more at the last level (more only when one parent alone has
    more).  Unexpanded parents wait on a stack below their
    children, so the frontier holds at most one chunk per level and peak
    memory is O(N^2 _FRONTIER_ROWS + N block_size) whatever the number of
    points.  Each row carries q(x), x = v + center, down the Cholesky
    recurrence q = sum_l d_l (x_l + S_l)^2, the shift S_l = sum_{j>l}
    mu[l, j] x_j updated as each outer coordinate is fixed.  Rows pass a
    final filter on that carried q with a small slack above R2
    (enumeration_slack), so boundary points are never lost to rounding; a
    handful of just-outside points may be admitted (harmless for
    tail-certified sums; lattice_points refilters exactly).  Rows come in
    blocks of about block_size, in a deterministic order: ascending in each
    coordinate, last coordinate outermost.  Each interval is cast to int64
    and allocated whole, so a bound beyond 2^52 or one interval of more than
    point_cap candidates raises ResourceCapError before that.

    phase = (B, ell), k complex symmetric forms B of shape (k, N, N) and ell
    of shape (k, N) or None (zero), makes every row carry each tau(x) = x^T
    B x / 2 + ell^T x the same way, into Block.tau of shape (k, rows):
    level l adds x_l (B_ll x_l / 2 + T_l), the shift T_l = ell_l +
    sum_{j>l} B[l, j] x_j.  The real and imaginary parts of each form are
    separate float recurrences, so q and tau of a row are bitwise
    independent of _FRONTIER_ROWS, block_size and the other forms.  tau is
    a sum of at most N(N + 3)/2 products, so it is within a few N ulps of
    x^T |B| x / 2 + |ell|^T |x| of the exact value.

    chol, the lower Cholesky factor of G, spares the walk factorising G
    itself; the caller vouches that it is one.

    With half, 2 center must be integral (ValueError otherwise), so that
    the ellipsoid is closed under x -> -x, x = v + center; then exactly one
    x of each pair {x, -x} is emitted, the one whose last nonzero coordinate
    is positive, and the origin x = 0 once.  A partial vector whose fixed
    coordinates of x are all zero is "on axis" and takes x_l >= 0 at its
    level.  The order is the full order restricted to those rows, so the
    origin, when the center is integral, is the first row emitted.
    point_cap then counts the points of the full ellipsoid, two for each
    row emitted besides the origin.
    """
    G = np.asarray(G, dtype=float)
    c = np.asarray(center, dtype=float).reshape(-1)
    N = G.shape[0]
    if G.shape != (N, N) or c.shape != (N,):
        raise ValueError("Gram/center shape mismatch")
    if half and np.any(2.0 * c != np.round(2.0 * c)):
        raise ValueError("a half-space enumeration needs 2 center integral")
    if R2 < 0:
        return
    d, mu = _cholesky_data(G, chol)
    # coef[i, l] is what x_l adds to the shifts of level i < l: mu[i, l] to
    # S and, with a phase, Re and Im B[i, l] of each form to its T;
    # hdiag[l, 1:] holds Re and Im B_ll / 2 of each form
    if phase is None:
        coef = mu[:, :, None]
        shift0 = np.zeros((1, N, 1))
    else:
        B, ell = phase
        B = np.asarray(B, dtype=complex)
        ell = np.zeros(B.shape[:-1]) if ell is None else np.asarray(ell, dtype=complex)
        if B.ndim != 3 or B.shape[1:] != (N, N) or ell.shape != B.shape[:-1]:
            raise ValueError("phase form shape mismatch: need a (k, N, N) stack")
        # the recurrences in order: q, then Re and Im of each form
        coef, shift0 = np.zeros((N, N, 1 + 2 * len(B))), np.zeros((1, N, 1 + 2 * len(B)))
        coef[..., 0] = mu
        coef[..., 1::2], coef[..., 2::2] = B.real.transpose(1, 2, 0), B.imag.transpose(1, 2, 0)
        shift0[0, :, 1::2], shift0[0, :, 2::2] = ell.real.T, ell.imag.T
    w = coef.shape[2]
    hdiag = 0.5 * np.diagonal(coef).T
    slack = enumeration_slack(R2)
    # bounds at level l lie within the ellipsoid's projection |c_l| + sqrt((R2 + slack)
    # (G^-1)_ll), plus 1; an interval holds at most 2 sqrt((R2 + slack) / d_l) + 2 points
    reach = np.abs(c) + np.sqrt((R2 + slack) * np.diag(np.linalg.inv(G))) + 1.0
    if not np.all(reach < 2.0**52):
        raise ResourceCapError("an enumeration bound of %.3g is beyond 2^52" % float(np.max(reach)))
    # with half, an on-axis row at level l takes x_l = v_l + c_l >= 0
    axis_lo = np.ceil(-c).astype(np.int64)
    origin = int(half and not np.any(c % 1.0))
    wide = point_cap is not None and bool(np.any(2.0 * np.sqrt((R2 + slack) / d) + 2.0 > point_cap))

    buffer = []
    buffered = 0
    count = 0

    def flush():
        nonlocal buffer, buffered, count
        if not buffer:
            return None
        rows = np.concatenate([part[0] for part in buffer], axis=0)
        P = np.concatenate([part[1] for part in buffer], axis=1)
        buffer = []
        buffered = 0
        keep = P[0] <= R2 + slack
        kept = int(np.count_nonzero(keep))
        if not kept:
            return None
        count += kept
        if point_cap is not None and (2 * count - origin if half else count) > point_cap:
            raise ResourceCapError("lattice enumeration exceeded the %d point cap" % point_cap)
        if kept < keep.shape[0]:
            rows, P = rows[keep], P[:, keep]
        tau = None
        if phase is not None:
            tau = np.empty((w // 2, kept), dtype=complex)
            tau.real, tau.imag = P[1::2], P[2::2]
        return Block(rows, P[0], tau)

    def chunk(level, V, F, P, axis):
        """A frontier chunk with each row's interval of x_level: lo and the count."""
        # a row just past R2 + slack gets an empty or one-point interval, not a nan
        width = np.sqrt(np.maximum((R2 - P[0]) + slack, 0.0) / d[level])
        mid = c[level] + F[:, level, 0]
        lo = np.ceil(-mid - width - 1e-12).astype(np.int64)
        hi = np.floor(-mid + width + 1e-12).astype(np.int64)
        if half:
            lo = np.where(axis, np.maximum(lo, axis_lo[level]), lo)
        counts = np.maximum(hi - lo + 1, 0)
        if wide and counts.max() > point_cap:
            raise ResourceCapError("one enumeration interval holds %d candidates, above the %d point cap"
                                   % (counts.max(), point_cap))
        return level, V, F, P, axis, lo, counts

    # A chunk at level l: fixed coordinates V (entries below l are zero), the
    # shifts F[:, i] for i <= l (F[:, i, 0] = S_i and, with a phase,
    # F[:, i, 1:] = Re, Im T_i), accumulated from the outermost level inwards,
    # the partial values P, one row each (P[0] = q and, with a phase,
    # P[1:] = Re, Im tau), the on-axis flags (all False without half) and the
    # intervals, computed once per row.
    stack = [chunk(N - 1, np.zeros((1, N), dtype=np.int64), shift0, np.zeros((w, 1)), np.full(1, half))]
    while stack:
        level, V, F, P, axis, lo, counts = stack.pop()
        ends = np.cumsum(counts)
        # Expand the longest prefix of parents with at most _FRONTIER_ROWS
        # children (always at least one parent); the rest go back on the stack
        # beneath the children so that the depth-first order is kept.  Leaves
        # are not stacked, so the last level takes up to a block of them.
        limit = _FRONTIER_ROWS if level else max(_FRONTIER_ROWS, block_size)
        take = max(1, int(np.searchsorted(ends, limit, side="right")))
        if take < V.shape[0]:
            stack.append((level, V[take:], F[take:], P[:, take:], axis[take:], lo[take:], counts[take:]))
            lo, counts, ends = lo[:take], counts[:take], ends[:take]
        total = int(ends[-1])
        if total == 0:
            continue
        vals = np.arange(total) + np.repeat(lo - (ends - counts), counts)
        x = vals + c[level]
        # The children of a parent are consecutive, so np.repeat copies the
        # parents' values to them: several times faster than fancy indexing.
        y = x + np.repeat(F[:take, level, 0], counts)
        P = np.repeat(P[:, :take], counts, axis=1)
        P[0] += d[level] * y * y
        for i in range(1, w):
            P[i] += x * (hdiag[level, i] * x + np.repeat(F[:take, level, i], counts))
        if level > 0:
            up = np.repeat(np.arange(take), counts)
            rows = np.take(V[:take], up, axis=0)
            rows[:, level] = vals
            F = np.take(F[:take], up, axis=0)[:, :level] + coef[:level, level] * x[:, None, None]
            stack.append(chunk(level - 1, rows, F, P, axis[up] & (x == 0.0)))
            continue
        rows = np.repeat(V[:take], counts, axis=0)
        rows[:, 0] = vals
        # Leaves: one run per parent.  A block is cut after the run that
        # brings the buffer to block_size.
        run_ends = ends[counts > 0]
        start = 0
        while start < total:
            i = int(np.searchsorted(run_ends, start + max(block_size - buffered, 1)))
            stop = total if i == run_ends.shape[0] else int(run_ends[i])
            buffer.append((rows[start:stop], P[:, start:stop]))
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
        for row in block.rows:
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
        return as_form_array(np.diag(np.array(entries, dtype=object)))
    raise ValueError("unknown form fixture %r (known: %s, diag:a,b,...)" % (name, ", ".join(FIXTURES[:3])))
