"""Theta series with matrix-valued elliptic-operator coefficients.

A coefficient function f solves D_A f = lam I f, where D_A is the Euler
operator minus 1/(4 pi) times the A-Laplacian.  For positive definite A the
solutions used here are f = exp(-tr Delta_A / 8 pi) P with P of homogeneity
degree alpha in every column; for indefinite A they are

    g = exp(-tr Delta_M / 8 pi)(P+(Pi+ U) P-(Pi- U)) * exp(2 pi tr(U^T A- U))

with M the matrix absolute value of A, A = A+ + A- its definite split, and
Pi+- the associated projectors; then lam = alpha - beta - s.

The series attached to characteristics H, K (rational m x n matrices) at a
point Z = X + iY of the genus-n Siegel upper half-space is

    theta(Z) = det(Y)^(-lam/2) sum_{U in H + Z^{m x n}}
               f(U Y^(1/2)) e(tr(U^T A U Z)/2 + tr(K^T A U)),

with e(w) = exp(2 pi i w).  Every summand has absolute value
|poly(U Y^(1/2))| exp(-pi tr(U^T M U Y)), so the sum is truncated to the
ellipsoid tr(U^T M U Y) <= R^2 with a certified bound on the discarded tail:

    tail <= C K(rho) exp(-pi rho R^2) prod_i theta1(pi (1-rho) d_i / 2),

where C bounds the polynomial coefficient mass, K(rho) absorbs the
polynomial growth, d_i are the Cholesky pivots of kron(Y, M), theta1 is the
one-dimensional majorant theta1(x) = 1 + 2 sum exp(-x k^2), and rho in (0,1)
is picked from a small grid to minimize the enumeration radius.

theta_eval_borcherds computes the same series in its unslashed normal form,
with the polynomial evaluated at U itself under a Y^(-1)-weighted heat
operator; the two agree after multiplying by det(Y)^(s/2 + beta).
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from .errors import ResourceCapError
from .polyalg import (
    ExpQuadPoly,
    MatPoly,
    eval_batch,
    exp_trace_laplace,
    exp_trace_laplace_weighted,
    homogeneity_degree,
    substitute_linear,
    vigneras_residual,
)
from .quadform import QuadFormDecomposition, decompose, lattice_blocks, named_form
from .scalars import PiScalar
from .siegel import SiegelPoint, sqrt_posdef

DEFAULT_POINT_CAP = 100_000_000
RHO_GRID = (0.3, 0.5, 0.7, 0.85, 0.95)

_MINUS_EIGHTH_OVER_PI = PiScalar.from_parts(Fraction(-1, 8), 0, -1)


def point_cap_from_env(explicit=None) -> int:
    if explicit is not None:
        return int(explicit)
    return int(os.environ.get("THETA_MAX_POINTS", DEFAULT_POINT_CAP))


# ==== coefficient functions =================================================


class PolyCoeff:
    """Solution exp(-tr Delta_A / 8 pi) P for positive definite A."""

    __slots__ = ("f", "source", "alpha", "beta", "lam")

    def __init__(self, f: MatPoly, source: MatPoly, alpha: int):
        self.f = f
        self.source = source
        self.alpha = alpha
        self.beta = 0
        self.lam = alpha

    @property
    def poly_part(self) -> MatPoly:
        return self.f

    def gaussian_complex(self):
        return None

    def __repr__(self):
        return "PolyCoeff(alpha=%d)" % self.alpha


class IndefCoeff:
    """Split-Gaussian solution for an indefinite form."""

    __slots__ = ("g", "source", "alpha", "beta", "s", "lam")

    def __init__(self, g: ExpQuadPoly, source: MatPoly, alpha: int, beta: int, s: int):
        self.g = g
        self.source = source
        self.alpha = alpha
        self.beta = beta
        self.s = s
        self.lam = alpha - beta - s

    @property
    def f(self) -> ExpQuadPoly:
        return self.g

    @property
    def poly_part(self) -> MatPoly:
        return self.g.poly

    def gaussian_complex(self):
        return self.g.B_complex()

    def __repr__(self):
        return "IndefCoeff(alpha=%d, beta=%d, s=%d)" % (self.alpha, self.beta, self.s)


def _required_degree(p: MatPoly, what: str) -> int:
    alpha = homogeneity_degree(p)
    if alpha is None:
        raise ValueError("%s must transform with a power of det under right multiplication" % what)
    return alpha


def build_f_posdef(P: MatPoly, A) -> PolyCoeff:
    """Heat-flow a column-homogeneous P into a coefficient for posdef A."""
    alpha = _required_degree(P, "P")
    f = exp_trace_laplace(P, [[int(x) for x in row] for row in np.asarray(A).tolist()],
                          _MINUS_EIGHTH_OVER_PI)
    return PolyCoeff(f, P, alpha)


def _embedded_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _embedded_symmetric(mat: np.ndarray):
    """Exact image of a float matrix that is symmetric up to rounding.

    The float eigen-split leaves M and A- symmetric only to a few ulps, and
    the Gaussian factor built from A- must be exactly symmetric.
    """
    return _embedded_matrix(((mat + mat.T) / 2.0).tolist())


def build_g_indef(P_plus: MatPoly, P_minus: MatPoly, dec: QuadFormDecomposition) -> IndefCoeff:
    """Compose P+ and P- with the definite-split projectors and heat-flow.

    The projectors, M and A- are exact rationals whenever the matrix absolute
    value of A is rational; otherwise their floating images (M and A-
    symmetrised) are embedded exactly and the construction is only
    approximately a solution.
    """
    alpha = _required_degree(P_plus, "P+")
    beta = _required_degree(P_minus, "P-")
    m, n = P_plus.m, P_plus.n
    if (P_minus.m, P_minus.n) != (m, n):
        raise ValueError("P+ and P- must share a shape")
    if m != dec.m:
        raise ValueError("polynomial rows must match the rank of the form")
    if dec.exact:
        pi_plus = dec.exact["proj_plus"]
        pi_minus = dec.exact["proj_minus"]
        M = dec.exact["M"]
        aminus = dec.exact["aminus"]
    else:
        pi_plus = _embedded_matrix(dec.proj_plus_matrix())
        pi_minus = _embedded_matrix(dec.proj_minus_matrix())
        M = _embedded_symmetric(dec.M)
        aminus = _embedded_symmetric(dec.aminus)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    comp = substitute_linear(P_plus, pi_plus, eye) * substitute_linear(P_minus, pi_minus, eye)
    gpoly = exp_trace_laplace(comp, M, _MINUS_EIGHTH_OVER_PI)
    B = [[PiScalar.from_parts(2 * Fraction(aminus[a][b]), 0, 1) for b in range(m)] for a in range(m)]
    g = ExpQuadPoly(gpoly, B)
    return IndefCoeff(g, comp, alpha, beta, dec.s)


def build_coeff(dec: QuadFormDecomposition, P_plus: MatPoly, P_minus: MatPoly = None) -> "PolyCoeff | IndefCoeff":
    """One entry point for both signatures of the form."""
    if dec.s == 0:
        if P_minus is not None and P_minus.degree() > 0:
            raise ValueError("a definite form takes a single polynomial")
        return build_f_posdef(P_plus, dec.A)
    if P_minus is None:
        P_minus = MatPoly.one(P_plus.m, P_plus.n)
    return build_g_indef(P_plus, P_minus, dec)


# ==== theta specifications ==================================================


def _frac_mat(data, m, n, what):
    rows = [[Fraction(x) for x in row] for row in data]
    if len(rows) != m or any(len(r) != n for r in rows):
        raise ValueError("%s must be %d x %d" % (what, m, n))
    return tuple(tuple(r) for r in rows)


def _float_mat(fracs) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in fracs], dtype=float)


class ThetaSpec:
    """Form decomposition, characteristics and coefficient, PDE-validated."""

    __slots__ = ("dec", "coeff", "H", "K", "n")

    def __init__(self, dec: QuadFormDecomposition, coeff, H, K, validate: bool = True):
        self.dec = dec
        self.coeff = coeff
        H = [list(row) for row in H]
        ncols = len(H[0])
        self.H = _frac_mat(H, dec.m, ncols, "H")
        self.K = _frac_mat(K, dec.m, ncols, "K")
        self.n = ncols
        if coeff.poly_part.m != dec.m or coeff.poly_part.n != ncols:
            raise ValueError("coefficient shape does not match the characteristics")
        if validate:
            self._validate_pde()

    def _validate_pde(self):
        A = [[int(x) for x in row] for row in self.dec.A.tolist()]
        res = vigneras_residual(self.coeff.f, A, self.coeff.lam)
        if self.dec.exact:
            if not res.is_zero():
                raise ValueError("coefficient does not solve the eigenvalue equation")
        else:
            scale = max(1.0, self.coeff.poly_part.coeff_norm()) * (1.0 + abs(self.coeff.lam))
            if res.norm() > 1e-8 * scale:
                raise ValueError("coefficient residual %.3e beyond float tolerance" % res.norm())

    @property
    def m(self) -> int:
        return self.dec.m

    @property
    def A(self) -> np.ndarray:
        return self.dec.A

    @property
    def lam(self):
        return self.coeff.lam

    def with_characteristics(self, H=None, K=None) -> "ThetaSpec":
        new = ThetaSpec.__new__(ThetaSpec)
        new.dec = self.dec
        new.coeff = self.coeff
        new.H = self.H if H is None else _frac_mat(H, self.m, self.n, "H")
        new.K = self.K if K is None else _frac_mat(K, self.m, self.n, "K")
        new.n = self.n
        return new

    def H_floats(self) -> np.ndarray:
        return _float_mat(self.H)

    def K_floats(self) -> np.ndarray:
        return _float_mat(self.K)

    def __repr__(self):
        return "ThetaSpec(m=%d, n=%d, lam=%s)" % (self.m, self.n, self.coeff.lam)


def theta_spec(A, P_plus=None, P_minus=None, H=None, K=None, n: int = 1) -> ThetaSpec:
    """Convenience constructor from a raw form matrix or a fixture name."""
    if isinstance(A, str):
        A = named_form(A)
    dec = decompose(A)
    m = dec.m
    if P_plus is None:
        P_plus = MatPoly.one(m, n)
    if H is None:
        H = [[0] * n for _ in range(m)]
    if K is None:
        K = [[0] * n for _ in range(m)]
    coeff = build_coeff(dec, P_plus, P_minus)
    return ThetaSpec(dec, coeff, H, K)


# ==== certified truncated sums ==============================================


def theta1_majorant(x: float) -> float:
    """1 + 2 sum_k exp(-x k^2); dominates every shifted one-dimensional sum."""
    if x <= 0:
        raise ValueError("need a positive exponent scale")
    acc = 1.0
    k = 1
    while k < 200_000:
        t = 2.0 * math.exp(-x * k * k)
        acc += t
        if t < 1e-17 * acc:
            break
        k += 1
    return acc


def _tail_plan(Cp: float, deg: int, sig2: float, pivots, eps: float):
    """Pick rho and R^2 with tail(R^2, rho) <= eps; smallest R^2 wins."""
    best = None
    for rho in RHO_GRID:
        b = math.pi * (1.0 - rho) / 2.0
        if deg > 0:
            Kpoly = max(1.0, (sig2 * deg / (2.0 * b * math.e)) ** (deg / 2.0))
        else:
            Kpoly = 1.0
        Th = 1.0
        for d in pivots:
            Th *= theta1_majorant(b * d)
        lead = Cp * Kpoly * Th
        R2 = max(0.0, math.log(lead / eps) / (math.pi * rho)) if lead > eps else 0.0
        if best is None or R2 < best[1]:
            best = (rho, R2, lead * math.exp(-math.pi * rho * R2))
    return best


def certified_lattice_sum(G, center, eps: float, Cp: float, deg: int, sig2: float,
                          summand, point_cap: int):
    """Sum summand over the integer offsets of center with a certified tail.

    summand maps an int64 array of shape (k, d) of integer parts to complex
    values of the full summand at center + rows.  Each block of the
    enumeration is summed in floating point and the per-block sums are
    combined with exact float summation.  The result is deterministic for a
    fixed enumeration block size, because the enumerator fixes both the order
    of the rows and where the blocks are cut; a different block size rounds
    the per-block sums differently and may move the result by a few ulps of
    gross.  The last returned entry is the gross magnitude sum |f|,
    the honest scale for relative comparisons when cancellation drives the
    net value to zero.
    """
    if Cp == 0.0:
        return 0.0 + 0.0j, 0.0, 0, 0.0, RHO_GRID[0], 0.0
    G = np.asarray(G, dtype=float)
    pivots = np.diag(np.linalg.cholesky(G)) ** 2
    rho, R2, tail = _tail_plan(Cp, deg, sig2, pivots, eps)
    re_parts = []
    im_parts = []
    abs_parts = []
    used = 0
    for rows in lattice_blocks(G, center, R2, point_cap=point_cap):
        vals = np.asarray(summand(rows), dtype=complex)
        re_parts.append(float(np.sum(vals.real)))
        im_parts.append(float(np.sum(vals.imag)))
        abs_parts.append(float(np.sum(np.abs(vals))))
        used += rows.shape[0]
    total = complex(math.fsum(re_parts), math.fsum(im_parts))
    return total, tail, used, R2, rho, math.fsum(abs_parts)


class ThetaValue:
    """A truncated value with its certified tail radius and bound.

    gross is the sum of the absolute values of the retained terms; relative
    residuals in the transformation checks are measured against it so that a
    series whose terms cancel exactly still compares at the scale of what
    was summed.
    """

    __slots__ = ("value", "tail_bound", "terms", "radius2", "rho", "gross")

    def __init__(self, value: complex, tail_bound: float, terms: int, radius2: float,
                 rho: float, gross: float = 0.0):
        self.value = value
        self.tail_bound = tail_bound
        self.terms = terms
        self.radius2 = radius2
        self.rho = rho
        self.gross = gross

    def as_dict(self) -> dict:
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "tail_bound": self.tail_bound,
            "terms": self.terms,
            "radius2": self.radius2,
            "rho": self.rho,
            "gross": self.gross,
        }

    def __repr__(self):
        return "ThetaValue(%r, tail<=%.2e, terms=%d)" % (self.value, self.tail_bound, self.terms)


def _phases(U, Af, Zmat, AK):
    """tr(U^T A U Z)/2 + tr(K^T A U) for a batch of real U."""
    AU = np.matmul(Af, U)
    Q = np.matmul(np.transpose(U, (0, 2, 1)), AU)
    tau = 0.5 * np.einsum("xij,ji->x", Q, Zmat)
    if AK is not None:
        tau = tau + np.einsum("aj,xaj->x", AK, U)
    return tau


def _finish(vals, expo, phase_turns):
    turns = phase_turns - np.round(phase_turns)
    return vals * np.exp(expo + 2j * math.pi * turns)


def theta_eval(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-10,
               point_cap=None) -> ThetaValue:
    """Evaluate the series at Z with total truncation error at most eps."""
    if Z.n != spec.n:
        raise ValueError("point genus does not match the characteristics")
    cap = point_cap_from_env(point_cap)
    m, n = spec.m, spec.n
    Y = Z.Y
    M = spec.dec.M
    G = np.kron(Y, M)
    c = spec.H_floats().T.reshape(-1)
    lam = float(spec.coeff.lam)
    dety = float(np.linalg.det(Y))
    pref = dety ** (-lam / 2.0)
    poly = spec.coeff.poly_part
    deg = poly.degree()
    Cp = poly.coeff_norm()
    sig2 = 1.0 / float(np.min(np.linalg.eigvalsh(M)))
    eps_sum = eps / pref

    Ysq = sqrt_posdef(Y)
    Af = spec.A.astype(float)
    Zmat = Z.Z
    AK = Af @ spec.K_floats()
    if not np.any(AK):
        AK = None
    Bc = spec.coeff.gaussian_complex()

    def summand(rows):
        U = (rows + c).reshape(-1, n, m).transpose(0, 2, 1)
        W = np.matmul(U, Ysq)
        vals = eval_batch(poly, W)
        tau = _phases(U, Af, Zmat, AK)
        expo = -2.0 * math.pi * tau.imag
        turns = tau.real
        if Bc is not None:
            gq = np.einsum("xaj,ab,xbj->x", W, Bc, W)
            expo = expo + gq.real
            turns = turns + gq.imag / (2.0 * math.pi)
        return _finish(vals, expo, turns)

    total, tail, used, R2, rho, gross = certified_lattice_sum(
        G, c, eps_sum, Cp, deg, sig2, summand, cap)
    return ThetaValue(pref * total, pref * tail, used, R2, rho, pref * gross)


def borcherds_poly(spec: ThetaSpec, Y: np.ndarray) -> MatPoly:
    """The Y^(-1)-weighted heat flow of the source polynomial."""
    Yinv = np.linalg.inv(Y)
    W = [[Fraction(x) for x in row] for row in Yinv.tolist()]
    if spec.dec.exact:
        M = spec.dec.exact["M"]
    else:
        M = [[Fraction(x) for x in row] for row in spec.dec.M.tolist()]
    return exp_trace_laplace_weighted(spec.coeff.source, M, W, _MINUS_EIGHTH_OVER_PI)


def theta_eval_borcherds(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-10,
                         point_cap=None) -> ThetaValue:
    """The unslashed normal form: polynomial in U, split phase in Z and conj(Z).

    Satisfies theta_eval(spec, Z) = det(Y)^(s/2 + beta) * this value.
    """
    if Z.n != spec.n:
        raise ValueError("point genus does not match the characteristics")
    cap = point_cap_from_env(point_cap)
    m, n = spec.m, spec.n
    Y = Z.Y
    M = spec.dec.M
    G = np.kron(Y, M)
    c = spec.H_floats().T.reshape(-1)
    pB = borcherds_poly(spec, Y)
    deg = pB.degree()
    Cp = pB.coeff_norm()
    lam_min = float(np.min(np.linalg.eigvalsh(M))) * float(np.min(np.linalg.eigvalsh(Y)))
    sig2 = 1.0 / lam_min

    Af = spec.A.astype(float)
    aplus = spec.dec.aplus
    aminus = spec.dec.aminus
    Zmat = Z.Z
    AK = Af @ spec.K_floats()
    if not np.any(AK):
        AK = None

    def summand(rows):
        U = (rows + c).reshape(-1, n, m).transpose(0, 2, 1)
        vals = eval_batch(pB, U)
        tau = _phases(U, aplus, Zmat, AK)
        tau = tau + _phases(U, aminus, np.conj(Zmat), None)
        expo = -2.0 * math.pi * tau.imag
        return _finish(vals, expo, tau.real)

    total, tail, used, R2, rho, gross = certified_lattice_sum(
        G, c, eps, Cp, deg, sig2, summand, cap)
    return ThetaValue(total, tail, used, R2, rho, gross)
