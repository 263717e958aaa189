"""Reference numerics that the tests check the package against."""

from fractions import Fraction

import numpy as np

from siegeltheta.exactlinalg import mat_inverse, mat_mul
from siegeltheta.polyalg import MatPoly
from siegeltheta.scalars import PI_ONE, PiScalar, as_pi_scalar


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


# ==== per-term exact operators ===============================================
#
# The operator calculus with one PiScalar operation per term and per step,
# each sum accumulated term by term.  polyalg runs the same operators on
# integer numerators; the tests hold the two equal, key order included
# where a float evaluation reads it.


def _inverse(A):
    return mat_inverse([[Fraction(x) for x in row] for row in A])


def _accumulate(terms, key, add):
    s = terms.get(key)
    s = add if s is None else s + add
    if s.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = s


def _poly(m, n, terms):
    out = MatPoly(m, n)
    out.terms = terms
    return out


def partial(f, i, j):
    """d/dU_ij."""
    idx = i * f.n + j
    terms = {}
    for e, c in f.terms.items():
        k = e[idx]
        if k:
            e2 = list(e)
            e2[idx] = k - 1
            terms[tuple(e2)] = c * k
    return _poly(f.m, f.n, terms)


def euler_entry(f, i, j):
    """E_ij f = sum_d U_di d/dU_dj f, by a direct monomial shuffle."""
    terms = {}
    for e, c in f.terms.items():
        for d in range(f.m):
            k = e[d * f.n + j]
            if k:
                e2 = list(e)
                e2[d * f.n + j] = k - 1
                e2[d * f.n + i] += 1
                _accumulate(terms, tuple(e2), c * k)
    return _poly(f.m, f.n, terms)


def laplace_entry(f, A, i, j):
    """(Delta_A)_ij f = sum_ab d/dU_ai (A^-1)_ab d/dU_bj f, one monomial pass per (b, a)."""
    ainv = _inverse(A)
    m, n = f.m, f.n
    terms = {}
    for b in range(m):
        bj = b * n + j
        for a in range(m):
            c = ainv[a][b]
            if not c:
                continue
            ai = a * n + i
            for e, coef in f.terms.items():
                kb = e[bj]
                if not kb:
                    continue
                ka = e[ai] - (ai == bj)
                if not ka:
                    continue
                e2 = list(e)
                e2[bj] -= 1
                e2[ai] -= 1
                _accumulate(terms, tuple(e2), coef * (c * (kb * ka)))
    return _poly(m, n, terms)


def trace_laplace_weighted(f, A, W):
    """tr(Delta_A W) f, each off-diagonal entry applied once with weight W_ij + W_ji."""
    acc = None
    for i in range(f.n):
        for j in range(i, f.n):
            w = as_pi_scalar(W[i][i]) if i == j else as_pi_scalar(W[j][i]) + as_pi_scalar(W[i][j])
            if w.is_zero():
                continue
            piece = laplace_entry(f, A, i, j) * w
            acc = piece if acc is None else acc + piece
    return MatPoly.zero(f.m, f.n) if acc is None else acc


def heat_series(p, step, c):
    """sum_k c^k/k! step^k p for a degree-lowering operator step."""
    c = as_pi_scalar(c)
    out = p
    cur = p
    scale = PI_ONE
    k = 0
    while True:
        cur = step(cur)
        if cur.is_zero():
            return out
        k += 1
        scale = (scale * c).divide_rational(k)
        out = out + cur * scale


def trace_laplace(f, A):
    """tr(Delta_A) f."""
    acc = None
    for i in range(f.n):
        piece = laplace_entry(f, A, i, i)
        acc = piece if acc is None else acc + piece
    return acc


def exp_trace_laplace(p, A, c):
    return heat_series(p, lambda f: trace_laplace(f, A), c)


def exp_trace_laplace_weighted(p, A, W, c):
    return heat_series(p, lambda f: trace_laplace_weighted(f, A, W), c)


def vigneras_apply(f, A, aminus=None):
    """(E - Delta_A/(4 pi)) f as an n x n list of MatPolys, both branches.

    Without aminus, euler_entry and laplace_entry act on f.  With it, every
    d/dU_ai becomes d/dU_ai + 4 pi (A- U)_ai, the product rule on the
    coefficient f exp(2 pi tr(U^T A- U)) with the Gaussian divided out.
    """
    m, n = f.m, f.n
    minus_quarter_over_pi = PiScalar.from_parts(Fraction(-1, 4), 0, -1)
    if aminus is None:
        return [[euler_entry(f, i, j) + laplace_entry(f, A, i, j) * minus_quarter_over_pi
                 for j in range(n)] for i in range(n)]
    ainv = _inverse(A)
    four_pi = PiScalar.from_parts(4, 0, 1)
    zero = MatPoly.zero(m, n)
    shift = [[sum((MatPoly.variable(m, n, b, i) * (four_pi * Fraction(aminus[a][b]))
                   for b in range(m) if aminus[a][b]), zero)
              for i in range(n)] for a in range(m)]

    def d(p, a, i):
        return partial(p, a, i) + p * shift[a][i]

    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        dj = [d(f, b, j) for b in range(m)]
        inner = [sum((dj[b] * ainv[a][b] for b in range(m) if ainv[a][b]), zero) for a in range(m)]
        for i in range(n):
            euler = sum((MatPoly.variable(m, n, e, i) * dj[e] for e in range(m)), zero)
            laplace = sum((d(inner[a], a, i) for a in range(m)), zero)
            rows[i][j] = euler + laplace * minus_quarter_over_pi
    return rows
