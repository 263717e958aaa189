"""Siegel upper half-space points, symplectic action, branch-locked powers.

A point is Z = X + iY with X, Y real symmetric and Y positive definite.  The
group acts by Z -> (A Z + B)(C Z + D)^-1; the imaginary part transforms by
(C Zbar + D)^T Y' (C Z + D) = Y, which act() verifies numerically.

All fractional powers go through one branch convention: z^rho = exp(rho log z)
with the principal argument in (-pi, pi].  For matrices, det_power(W, rho) is
exp(rho * sum of principal logarithms of the eigenvalues of W); it fails
loudly when an eigenvalue touches the closed negative real axis, where the
principal branch is not continuous.
"""

from __future__ import annotations

import cmath

import numpy as np


def _sym_check(M: np.ndarray, what: str):
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("%s must be square" % what)
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.T)) > 1e-10 * scale:
        raise ValueError("%s must be symmetric" % what)


class SiegelPoint:
    """Z = X + iY with X, Y real symmetric and Y positive definite, all entries finite."""

    __slots__ = ("Z",)

    def __init__(self, Z):
        Z = np.asarray(Z, dtype=complex)
        if not np.all(np.isfinite(Z)):
            raise ValueError("point entries must be finite")
        _sym_check(Z, "Z")
        Y = Z.imag
        try:
            np.linalg.cholesky(Y)
        except np.linalg.LinAlgError as exc:
            raise ValueError("imaginary part must be positive definite") from exc
        self.Z = Z

    @classmethod
    def from_xy(cls, X, Y) -> "SiegelPoint":
        with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j, which __init__ refuses
            return cls(np.asarray(X, dtype=float) + 1j * np.asarray(Y, dtype=float))

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def X(self) -> np.ndarray:
        return self.Z.real.copy()

    @property
    def Y(self) -> np.ndarray:
        return self.Z.imag.copy()

    def translate(self, S) -> "SiegelPoint":
        S = np.asarray(S, dtype=float)
        return SiegelPoint(self.Z + S)

    def inverse_point(self) -> "SiegelPoint":
        """-Z^-1, again a Siegel point."""
        return SiegelPoint(-np.linalg.inv(self.Z))

    def __repr__(self):
        return "SiegelPoint(n=%d)" % self.n


class SymplecticMatrix:
    """Integer matrix M with M^T J M = J, checked in exact integer arithmetic."""

    __slots__ = ("M", "n")

    def __init__(self, M):
        rows = [[int(x) for x in row] for row in np.asarray(M).tolist()]
        size = len(rows)
        if size % 2 != 0 or any(len(r) != size for r in rows):
            raise ValueError("symplectic matrix must be square of even size")
        n = size // 2
        # J = [[0, I], [-I, 0]]; verify M^T J M == J exactly
        jm = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                acc = 0
                for k in range(n):
                    acc += rows[k][i] * rows[n + k][j] - rows[n + k][i] * rows[k][j]
                jm[i][j] = acc
        for i in range(size):
            for j in range(size):
                want = 1 if j == i + n else (-1 if i == j + n else 0)
                if jm[i][j] != want:
                    raise ValueError("matrix is not symplectic")
        self.M = np.array(rows, dtype=np.int64)
        self.n = n

    @classmethod
    def translation(cls, S) -> "SymplecticMatrix":
        S = np.asarray(S, dtype=np.int64)
        if not np.array_equal(S, S.T):
            raise ValueError("translation block must be symmetric")
        n = S.shape[0]
        top = np.hstack([np.eye(n, dtype=np.int64), S])
        bot = np.hstack([np.zeros((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)])
        return cls(np.vstack([top, bot]))

    @classmethod
    def inversion(cls, n: int) -> "SymplecticMatrix":
        top = np.hstack([np.zeros((n, n), dtype=np.int64), -np.eye(n, dtype=np.int64)])
        bot = np.hstack([np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64)])
        return cls(np.vstack([top, bot]))

    @property
    def blocks(self):
        n = self.n
        M = self.M
        return M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:]

    def __matmul__(self, other):
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        return SymplecticMatrix(self.M @ other.M)

    def __repr__(self):
        return "SymplecticMatrix(n=%d)" % self.n


def act(M: SymplecticMatrix, Z: SiegelPoint) -> SiegelPoint:
    """(A Z + B)(C Z + D)^-1 with the imaginary-part relation verified."""
    if M.n != Z.n:
        raise ValueError("size mismatch between the matrix and the point")
    A, B, C, D = (blk.astype(float) for blk in M.blocks)
    num = A @ Z.Z + B
    den = C @ Z.Z + D
    W = num @ np.linalg.inv(den)
    out = SiegelPoint((W + W.T) / 2)
    lhs = (C @ np.conj(Z.Z) + D).T @ out.Y @ (C @ Z.Z + D)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(Z.Y))))
    if np.max(np.abs(lhs.real - Z.Y)) > tol or np.max(np.abs(lhs.imag)) > tol:
        raise ValueError("imaginary-part relation violated beyond tolerance")
    return out


def sqrt_posdef(Y) -> np.ndarray:
    """Symmetric positive definite square root via the eigendecomposition."""
    Y = np.asarray(Y, dtype=float)
    _sym_check(Y, "Y")
    vals, vecs = np.linalg.eigh(Y)
    if np.any(vals <= 0):
        raise ValueError("matrix is not positive definite")
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


def det_power(W, rho: float) -> complex:
    """exp(rho * sum of principal logs of the eigenvalues of W).

    Agrees with det(W)^rho whenever the eigenvalue arguments do not wrap, and
    is the holomorphic continuation used by the transformation laws.  Raises
    if any eigenvalue lies on the closed negative real axis (including 0),
    where the principal branch jumps.
    """
    W = np.asarray(W, dtype=complex)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("need a square matrix")
    eigs = np.linalg.eigvals(W)
    total = 0j
    for lam in eigs:
        if abs(lam) == 0.0:
            raise ValueError("zero eigenvalue: fractional power undefined")
        if lam.real < 0 and abs(lam.imag) <= 1e-12 * abs(lam):
            raise ValueError(
                "eigenvalue %r on the negative real axis: branch undefined" % lam
            )
        total += cmath.log(lam)
    return cmath.exp(rho * total)


def random_siegel_point(n: int, rng) -> SiegelPoint:
    """A reproducible generic point: random symmetric X, well-conditioned Y."""
    Xh = rng.uniform(-0.5, 0.5, size=(n, n))
    X = (Xh + Xh.T) / 2
    Q = rng.normal(size=(n, n))
    Y = Q @ Q.T / n + 0.5 * np.eye(n)
    return SiegelPoint.from_xy(X, Y)
