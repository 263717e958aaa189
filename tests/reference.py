"""Reference numerics that the tests check the package against."""

import numpy as np


def sqrt_posdef(Y) -> np.ndarray:
    """The symmetric positive definite square root of Y, via its eigendecomposition."""
    vals, vecs = np.linalg.eigh(np.asarray(Y, dtype=float))
    if np.any(vals <= 0):
        raise ValueError("matrix is not positive definite")
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T
