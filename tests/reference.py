"""Reference numerics that the tests check the package against."""

from fractions import Fraction

import numpy as np

from siegeltheta.exactlinalg import mat_inverse, mat_mul


def sqrt_posdef(Y) -> np.ndarray:
    """The symmetric positive definite square root of Y, via its eigendecomposition."""
    vals, vecs = np.linalg.eigh(np.asarray(Y, dtype=float))
    if np.any(vals <= 0):
        raise ValueError("matrix is not positive definite")
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


def translation_data_chain(A, H, K, S):
    """(phase, K~) of the translation law Z -> Z + S as a chain of exact matrix products.

    phase = -tr(H^T A H S)/2 - tr(S0 1 A0 H)/2 and K~ = K + H S + A^-1 A0 1
    S0 / 2, with A0 and S0 the diagonal parts of A and S and 1 the all-ones
    matrix of the shape the product needs.
    """
    def mat(M):
        return [[Fraction(x) for x in row] for row in M]

    def transpose(M):
        return [list(col) for col in zip(*M)]

    def trace(M):
        return sum((M[i][i] for i in range(len(M))), Fraction(0))

    def diag_part(M):
        return [[M[i][i] if i == j else Fraction(0) for j in range(len(M))] for i in range(len(M))]

    def ones(rows, cols):
        return [[Fraction(1)] * cols for _ in range(rows)]

    A, H, K, S = mat(A), mat(H), mat(K), mat(S)
    m, n = len(A), len(S)
    phase = -trace(mat_mul(mat_mul(mat_mul(transpose(H), A), H), S)) / 2
    S0, A0 = diag_part(S), diag_part(A)
    phase -= trace(mat_mul(mat_mul(mat_mul(S0, ones(n, m)), A0), H)) / 2
    shift = mat_mul(mat_inverse(A), mat_mul(A0, mat_mul(ones(m, n), S0)))
    HS = mat_mul(H, S)
    return phase, [[K[a][j] + HS[a][j] + shift[a][j] / 2 for j in range(n)] for a in range(m)]
