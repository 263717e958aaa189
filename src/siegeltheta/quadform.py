"""Integral quadratic forms: signature decomposition, cosets, lattice enumeration.

A form is a symmetric invertible integer matrix A.  QuadForm finds its
orthogonal blocks (the connected components of its nonzero pattern) and
eliminates each once in Fractions: the pivots give the exact determinant and
prove a block positive or negative definite by Sylvester's test.
decompose() produces the normalized eigen-split A = A+ + A- with majorant
M = A+ - A- (the matrix absolute value of A) from the form's one eigh, and
an exact split too whenever M is rational, which is what makes the symbolic
zero-residual checks possible.  The exact split is made block by block: a
definite block is its own majorant up to sign, and only an indefinite block
rationalises its rows of the float M and checks them.

coset_reps() lists A^-1 Z^(m x n) / Z^(m x n) as matrices J, m rows of
Fractions each.  lattice_blocks() enumerates an ellipsoid q(v + c) <= R^2
around a real center, pruning on the Cholesky factorization of the Gram
matrix over a chunked numpy frontier of partial vectors (the level-by-level
ellipsoid enumeration of Deconinck et al., "Computing Riemann theta
functions", Math. Comp. 73 (2004), run depth first chunk by chunk so memory
stays bounded), in a deterministic order.  Each point comes with its q
carried down the Cholesky recurrence and the value of each form of a stack
of complex quadratic forms carried the same way (the series' term phase; an
empty stack by default); with half=True and 2 center integral it emits one
point of each pair {x, -x}, which the series sum as one term pair;
lattice_points() refilters its output exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import ResourceCapError
from .exactlinalg import det_definite, frac_matrix, mat_inverse, mat_mul, posdef_solve

# ==== form basics ===========================================================


def held_integer(x) -> bool:
    """Whether x is an integer that int64 and float64 both hold exactly."""
    try:
        return int(x) == x and -2**63 <= x < 2**63 and float(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


def as_form_array(A) -> np.ndarray:
    """A as a symmetric int64 matrix; an entry that int64 or float64 would change is refused."""
    a = np.asarray(A, dtype=object)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError("a quadratic form must be a nonempty square matrix")
    for x in a.flat:
        if not held_integer(x):
            raise ValueError("a quadratic form must have integer entries that int64 and float64 "
                             "hold exactly, got %r" % (x,))
    ai = a.astype(np.int64)
    if not np.array_equal(ai, ai.T):
        raise ValueError("a quadratic form must be symmetric")
    return ai


def _orthogonal_blocks(rows) -> list:
    """The orthogonal summands of a symmetric matrix, as rows: the components of its nonzero pattern.

    Each block is a sorted list of indices, the blocks in the order of their
    least index; the matrix is zero between two blocks, so up to a
    permutation it is the direct sum of its restrictions to the blocks.
    O(m^2).
    """
    seen = [False] * len(rows)
    blocks = []
    for start in range(len(rows)):
        if seen[start]:
            continue
        seen[start] = True
        block, todo = [], [start]
        while todo:
            i = todo.pop()
            block.append(i)
            for j, x in enumerate(rows[i]):
                if x and not seen[j]:
                    seen[j] = True
                    todo.append(j)
        blocks.append(sorted(block))
    return blocks


class QuadForm:
    """A symmetric invertible integer matrix with cached invariants, its one eigh among them.

    blocks are its orthogonal summands (_orthogonal_blocks), each eliminated
    once in Fractions: the pivots give the exact det, the product over the
    blocks, and definite[k] is 1 or -1 when Sylvester's test proves block k
    positive or negative definite, 0 when it is indefinite.
    """

    def __init__(self, A):
        self.A = as_form_array(A)
        self.m = self.A.shape[0]
        a = self.A.tolist()
        self.blocks = _orthogonal_blocks(a)
        det, self.definite = 1, []
        for block in self.blocks:
            d, sign = det_definite([[a[i][j] for j in block] for i in block])
            det *= d
            self.definite.append(sign)
        self.det = int(det)
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
    abs(eigenvalue)^(-1/2).  The eigenpairs are the form's own.  The exact
    split, when there is one, is built block by block on the form's
    orthogonal summands (_try_exact_split): only an indefinite block reads
    this float M.  A form with an eigenvalue below 1e-9 in absolute value, or
    whose float signature contradicts the one QuadForm's pivots prove, is
    refused as numerically singular.
    """
    form = A if isinstance(A, QuadForm) else QuadForm(A)
    if np.any(np.abs(form.eigvals) < 1e-9):
        raise ValueError("form is numerically singular")
    # the pivots prove the signature of a definite block, and an indefinite
    # block has both signs: a float signature below those counts is eigh
    # rounding on an ill-conditioned form
    least = [0, 0]
    for block, definite in zip(form.blocks, form.definite):
        if definite:
            least[definite < 0] += len(block)
        else:
            least[0] += 1
            least[1] += 1
    if form.r < least[0] or form.s < least[1]:
        raise ValueError("form is numerically singular: eigh gives the signature (%d, %d), exact "
                         "arithmetic at least (%d, %d)" % (form.r, form.s, *least))
    order = np.argsort(-form.eigvals)  # positives first, descending
    eigvals, eigvecs = form.eigvals[order], form.eigvecs[:, order]
    r, s = form.r, form.s
    S = eigvecs / np.sqrt(np.abs(eigvals))
    Sinv = np.linalg.inv(S)
    aplus = eigvecs[:, :r] @ np.diag(eigvals[:r]) @ eigvecs[:, :r].T
    aminus = eigvecs[:, r:] @ np.diag(eigvals[r:]) @ eigvecs[:, r:].T
    M = Sinv.T @ Sinv
    return QuadFormDecomposition(form, r, s, aplus, aminus, M, _try_exact_split(form, M))


_SPLIT = ("M", "aplus", "aminus", "proj_plus", "proj_minus")


def _try_exact_split(form: QuadForm, M: np.ndarray):
    """Exact A = A+ + A- split whenever the matrix absolute value is rational.

    |A| is the direct sum of the |A_B| of the orthogonal blocks B of A, so
    the split is made block by block and is 0 between blocks.  A block that
    QuadForm proved definite of sign e has |A_B| = e A_B, the sign e I, and
    A+ = A_B, A- = 0 and projectors I and 0 for e = 1, the reverse for
    e = -1.  An indefinite block takes its rows of decompose's float M,
    symmetrised and rationalised: that is |A_B| exactly when its square is
    A_B^2 and it is positive definite, and one elimination of [M_B | A_B] is
    Sylvester's test and leaves the sign S = M_B^-1 A_B, so A+- = (A_B +-
    M_B)/2 and the projectors are (I +- S)/2.  One block whose |A_B| is not
    rational leaves the whole form without a split (None).
    """
    zero, one = Fraction(0), Fraction(1)
    split = {name: [[zero] * form.m for _ in range(form.m)] for name in _SPLIT}
    a, Msym = form.A.tolist(), ((M + M.T) / 2).tolist()
    for block, definite in zip(form.blocks, form.definite):
        ab = [[Fraction(a[i][j]) for j in block] for i in block]
        nought = [[zero] * len(block) for _ in block]
        if definite:
            mb = ab if definite > 0 else [[-x for x in row] for row in ab]
            eye = [[one if i == j else zero for j in block] for i in block]
            parts = (mb, ab, nought, eye, nought) if definite > 0 else (mb, nought, ab, nought, eye)
        else:
            mb = [[Fraction(Msym[i][j]).limit_denominator(10**6) for j in block] for i in block]
            if mat_mul(mb, mb) != mat_mul(ab, ab):
                return None
            sign = posdef_solve(mb, ab)
            if sign is None:
                return None
            parts = (
                mb,
                [[(x + y) / 2 for x, y in zip(ra, rm)] for ra, rm in zip(ab, mb)],
                [[(x - y) / 2 for x, y in zip(ra, rm)] for ra, rm in zip(ab, mb)],
                [[(int(i == j) + x) / 2 for j, x in enumerate(row)] for i, row in enumerate(sign)],
                [[(int(i == j) - x) / 2 for j, x in enumerate(row)] for i, row in enumerate(sign)],
            )
        for name, part in zip(_SPLIT, parts):
            mat = split[name]
            for i, row in zip(block, part):
                out = mat[i]
                for j, x in zip(block, row):
                    out[j] = x
    return split


# ==== cosets ================================================================


def coset_reps(A, n: int, cap: int = 100_000):
    """A^-1 Z^(m x n) / Z^(m x n), abs(det A)^n matrices J, each m rows of Fractions in [0, 1).

    J runs over the n-tuples, first outermost, of the sorted columns of the
    group that the columns of A^-1 generate mod 1.
    """
    if n < 1:
        raise ValueError("genus n must be positive, got %d" % n)
    form = QuadForm(A)
    count = abs(form.det) ** n
    if count > cap:
        raise ResourceCapError("coset count %d exceeds the cap %d" % (count, cap))
    inv = mat_inverse(form.A.tolist())
    gens = {tuple(row[j] % 1 for row in inv) for j in range(form.m)}
    group, frontier = set(), {tuple(Fraction(0) for _ in inv)}
    while frontier:
        group |= frontier
        frontier = {tuple((a + b) % 1 for a, b in zip(x, g)) for x in frontier for g in gens} - group
    return [tuple(zip(*combo)) for combo in itertools.product(sorted(group), repeat=n)]


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
    (forms, k): (0, k) when the enumeration carried none.  len(block) is k.
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
    of shape (k, N) or None (zero), k = 0 for phase None, makes every row
    carry each tau(x) = x^T B x / 2 + ell^T x the same way, into Block.tau of
    shape (k, rows): level l adds x_l (B_ll x_l / 2 + T_l), the shift T_l =
    ell_l + sum_{j>l} B[l, j] x_j.  The real and imaginary parts of each form
    are separate float recurrences, so q and tau of a row are bitwise
    independent of _FRONTIER_ROWS, block_size and the other forms.  tau is a
    sum of at most N(N + 3)/2 products, so it is within a few N ulps of x^T
    |B| x / 2 + |ell|^T |x| of the exact value.

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
    # S and Re and Im B[i, l] of each form to its T; hdiag[l, 1:] holds Re
    # and Im B_ll / 2 of each form
    B, ell = (np.zeros((0, N, N)), None) if phase is None else phase
    B = np.asarray(B, dtype=complex)
    ell = np.zeros(B.shape[:-1]) if ell is None else np.asarray(ell, dtype=complex)
    if B.ndim != 3 or B.shape[1:] != (N, N) or ell.shape != B.shape[:-1]:
        raise ValueError("phase form shape mismatch: need a (k, N, N) stack")
    # the recurrences in order: q, then Re and Im of each form
    w = 1 + 2 * len(B)
    coef, shift0 = np.zeros((N, N, w)), np.zeros((1, N, w))
    coef[..., 0] = mu
    coef[..., 1::2], coef[..., 2::2] = B.real.transpose(1, 2, 0), B.imag.transpose(1, 2, 0)
    shift0[0, :, 1::2], shift0[0, :, 2::2] = ell.real.T, ell.imag.T
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
