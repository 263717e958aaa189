"""Reference values for the grid workload, each with an error bound.

These share no code with siegeltheta:

* ``e4``: the q-series 1 + 240 sum sigma_3(n) q^n, which equals the genus-1
  theta series of E8 with P = 1 and zero characteristics.  A genus-2 point
  with diagonal Z gives the product of two such values.
* ``box_theta``: the defining series of a P = 1 theta for a small form,
  summed in numpy over a box of integer offsets.  The split A = A+ + A-
  comes from numpy's eigendecomposition, not from the package.

Every function returns ``(value, bound)`` with |value - exact| <= bound up
to floating-point rounding.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

_ZETA3 = 1.2020569031595942


def _sigma3(n: int) -> int:
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** 3
            if d * d != n:
                total += (n // d) ** 3
        d += 1
    return total


def e4(z: complex):
    """Eisenstein E4(z) with a bound on the omitted tail of the q-series."""
    q = cmath.exp(2j * math.pi * z)
    r = abs(q)
    if r >= 0.5:
        raise ValueError("Im z too small for the q-series oracle")
    re, im = [1.0], [0.0]
    n = 0
    qn = 1.0 + 0.0j
    while True:
        n += 1
        qn *= q
        term = 240 * _sigma3(n) * qn
        re.append(term.real)
        im.append(term.imag)
        ratio = ((n + 2) / (n + 1)) ** 3 * r
        tail = 240 * _ZETA3 * (n + 1) ** 3 * r ** (n + 1) / (1.0 - ratio)
        if ratio < 1.0 and tail < 1e-18:
            return complex(math.fsum(re), math.fsum(im)), tail


def e4_product(Z: np.ndarray):
    """prod_j E4(Z_jj) for a diagonal Z, with a bound for the product."""
    if np.any(Z - np.diag(np.diag(Z))):
        raise ValueError("the E4 product needs a diagonal Z")
    value, bound = 1.0 + 0.0j, 0.0
    for zj in np.diag(Z):
        v, b = e4(complex(zj))
        bound = abs(value) * b + abs(v) * bound + bound * b
        value *= v
    return value, bound


def box_theta(A, H, K, Z: np.ndarray):
    """det(Y)^(s/2) sum_{U in H + Z^{m x n}} exp(2 pi tr(U^T A- U Y)) e(tr(U^T A U Z)/2 + tr(K^T A U)).

    H entries must lie in [-1/2, 1/2].  The box is wide enough that the
    omitted terms, each at most det(Y)^(s/2) exp(-pi lam |U|^2) with lam the
    product of the smallest |eigenvalue| of A and of Y, sum below 1e-30.
    """
    A = np.asarray(A, dtype=float)
    H = np.asarray(H, dtype=float)
    K = np.asarray(K, dtype=float)
    m, n = H.shape
    if np.max(np.abs(H)) > 0.5:
        raise ValueError("box oracle needs |H| <= 1/2")
    w, V = np.linalg.eigh(A)
    aminus = (V * np.minimum(w, 0.0)) @ V.T
    s = int(np.sum(w < 0))
    Y = Z.imag
    lam = float(np.min(np.abs(w)) * np.min(np.linalg.eigvalsh(Y)))
    pref = float(np.linalg.det(Y)) ** (s / 2.0)

    def one_dim(lo):
        # sum over integers k >= lo of exp(-pi lam (k - 1/2)^2), lo >= 1
        return math.fsum(math.exp(-math.pi * lam * (k - 0.5) ** 2) for k in range(lo, lo + 400))

    B = 1
    dim = m * n
    full = 1.0 + 2.0 * one_dim(1)
    while dim * 2.0 * one_dim(B + 1) * full ** (dim - 1) * pref > 1e-30:
        B += 1
    bound = dim * 2.0 * one_dim(B + 1) * full ** (dim - 1) * pref

    ks = np.array(list(itertools.product(range(-B, B + 1), repeat=dim)), dtype=float)
    U = ks.reshape(-1, m, n) + H
    AU = np.einsum("ab,xbj->xaj", A, U)
    quad = np.einsum("xaj,xak,kj->x", U, AU, Z)
    pair = np.einsum("aj,xaj->x", K, AU)
    gauss = np.einsum("xaj,ab,xbk,kj->x", U, aminus, U, Y)
    terms = np.exp(2.0 * math.pi * gauss) * np.exp(2j * math.pi * (quad / 2.0 + pair))
    value = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return pref * value, bound
