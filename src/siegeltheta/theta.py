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

with e(w) = exp(2 pi i w).  The Gaussian factor of g is a phase too, so
every term of every series here is one formula,

    poly(W) e(tau(U)),  tau(U) = tr(U^T A U Z)/2 + tr(K^T A U) - i tr(U^T A- U Y),

with poly the polynomial part of f at W = U Y^(1/2) (A- = 0 for a definite
form).  Since M = A - 2 A-, its absolute value is
|poly(W)| exp(-pi tr(U^T M U Y)), so the sum is truncated to the ellipsoid
tr(U^T M U Y) <= R^2 with a certified bound on the discarded tail:

    tail <= C K(rho) exp(-pi rho R^2) prod_i theta1(pi (1-rho) d_i / 2),

where C bounds the polynomial coefficient mass, K(rho) absorbs the
polynomial growth, d_i are the Cholesky pivots of kron(Y, M), theta1 is the
one-dimensional majorant theta1(x) = 1 + 2 sum exp(-x k^2), and rho in (0,1)
is picked from a small grid to minimize the enumeration radius.

The right sides of the inversion and Poisson laws are the same series with
U over the dual lattice H + A^-1 Z^{m x n} (dual_theta_eval), one certified
sum with Gram matrix kron(Y, A^-1 M A^-1) rather than one per coset.

theta_eval_borcherds computes the same series in its unslashed normal form,
with W = U and the polynomial taken under a Y^(-1)-weighted heat operator;
the two agree after multiplying by det(Y)^(s/2 + beta).  That weight changes
at every point, so the coefficient keeps a HeatPlan of its source polynomial
(the exact operator words, built on first use) and each point combines them
in floats.  The Fourier and Poisson checks of verify integrate and sum the
same terms with K = 0.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from .exactlinalg import frac_matrix, identity_frac
from .polyalg import (
    CompiledPoly,
    ExpQuadPoly,
    HeatPlan,
    MatPoly,
    compile_poly,
    eval_batch,
    exp_trace_laplace,
    homogeneity_degree,
    substitute_linear,
    vigneras_residual,
)
from .polyalg import exp_trace_laplace_weighted  # noqa: F401  (patched by perfbench tracing)
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


class Coefficient:
    """A solution f of D_A f = lam I f, with lam = alpha - beta - s.

    f is the heat-flowed MatPoly for a definite form and the split-Gaussian
    ExpQuadPoly g for an indefinite one; source is the polynomial the heat
    flow started from.  plan is the HeatPlan of source under Delta_M, built
    by heat_plan on the first weighted flow and shared by every spec that
    shares the coefficient.
    """

    __slots__ = ("f", "source", "alpha", "beta", "s", "lam", "plan")

    def __init__(self, f, source: MatPoly, alpha: int, beta: int = 0, s: int = 0):
        self.f = f
        self.source = source
        self.alpha = alpha
        self.beta = beta
        self.s = s
        self.lam = alpha - beta - s
        self.plan = None

    @property
    def poly_part(self) -> MatPoly:
        return self.f.poly if isinstance(self.f, ExpQuadPoly) else self.f

    def __repr__(self):
        return "Coefficient(alpha=%d, beta=%d, s=%d)" % (self.alpha, self.beta, self.s)


def _required_degree(p: MatPoly, what: str) -> int:
    alpha = homogeneity_degree(p)
    if alpha is None:
        raise ValueError("%s must transform with a power of det under right multiplication" % what)
    return alpha


def build_f_posdef(P: MatPoly, A) -> Coefficient:
    """Heat-flow a column-homogeneous P into a coefficient for posdef A."""
    alpha = _required_degree(P, "P")
    f = exp_trace_laplace(P, [[int(x) for x in row] for row in np.asarray(A).tolist()],
                          _MINUS_EIGHTH_OVER_PI)
    return Coefficient(f, P, alpha)


def build_g_indef(P_plus: MatPoly, P_minus: MatPoly, dec: QuadFormDecomposition) -> Coefficient:
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
    pi_plus = dec.fraction_matrix("proj_plus")
    pi_minus = dec.fraction_matrix("proj_minus")
    M = dec.fraction_matrix("M")
    aminus = dec.fraction_matrix("aminus")
    eye = identity_frac(n)
    comp = substitute_linear(P_plus, pi_plus, eye) * substitute_linear(P_minus, pi_minus, eye)
    gpoly = exp_trace_laplace(comp, M, _MINUS_EIGHTH_OVER_PI)
    B = [[PiScalar.from_parts(2 * Fraction(aminus[a][b]), 0, 1) for b in range(m)] for a in range(m)]
    g = ExpQuadPoly(gpoly, B)
    return Coefficient(g, comp, alpha, beta, dec.s)


def build_coeff(dec: QuadFormDecomposition, P_plus: MatPoly, P_minus: MatPoly = None) -> Coefficient:
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
    rows = frac_matrix(data)
    if len(rows) != m or any(len(r) != n for r in rows):
        raise ValueError("%s must be %d x %d" % (what, m, n))
    return tuple(tuple(r) for r in rows)


def _float_mat(fracs) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in fracs], dtype=float)


class ThetaSpec:
    """Form decomposition, characteristics and coefficient, PDE-validated."""

    __slots__ = ("dec", "coeff", "H", "K", "n")

    def __init__(self, dec: QuadFormDecomposition, coeff, H, K):
        self.dec = dec
        self.coeff = coeff
        H = [list(row) for row in H]
        if not H:
            raise ValueError("H must be a %d x n matrix, got no rows" % dec.m)
        ncols = len(H[0])
        self.H = _frac_mat(H, dec.m, ncols, "H")
        self.K = _frac_mat(K, dec.m, ncols, "K")
        self.n = ncols
        if coeff.poly_part.m != dec.m or coeff.poly_part.n != ncols:
            raise ValueError("coefficient shape does not match the characteristics")
        self._validate_pde()

    def _validate_pde(self):
        A = [[int(x) for x in row] for row in self.dec.A.tolist()]
        res = vigneras_residual(self.coeff.f, A, self.coeff.lam)
        if self.dec.has_exact_split():
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
    """Upper bound of 1 + 2 sum_k exp(-x k^2); dominates every shifted 1-D sum.

    For x >= 1e-4 it sums k = 1..K until a term is negligible (K < 600
    there), then adds the integral bound of the rest, 2 sum_{k > K}
    exp(-x k^2) <= sqrt(pi/x) erfc(K sqrt(x)).  The factor
    1 + (K + 128) 2^-52 covers the rounding of the K additions and of each
    term (the exponents stay below about 40).  Below 1e-4 Poisson summation
    gives the value as sqrt(pi/x) (1 + 2 sum_n exp(-pi^2 n^2 / x)), whose
    dual sum is below exp(-98,000); the factor 1 + 2^-49 covers it and the
    rounding of sqrt(pi/x).
    """
    if x <= 0:
        raise ValueError("need a positive exponent scale")
    if x < 1e-4:
        return math.sqrt(math.pi / x) * (1.0 + 2.0**-49)
    acc = 1.0
    K = 0
    while K < 1000:
        t = 2.0 * math.exp(-x * (K + 1) * (K + 1))
        acc += t
        K += 1
        if t < 1e-17 * acc:
            break
    rest = math.sqrt(math.pi / x) * math.erfc(K * math.sqrt(x))
    return (acc + rest) * (1.0 + (K + 128) * 2.0**-52)


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
        tail = lead * math.exp(-math.pi * rho * R2)
        while tail > eps:  # the logarithm rounds R^2 a few ulps short
            R2 = math.nextafter(R2, math.inf)
            tail = lead * math.exp(-math.pi * rho * R2)
        if best is None or R2 < best[1]:
            best = (rho, R2, tail)
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
    net value to zero.  eps must be finite and positive (ValueError).
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and positive, got %r" % eps)
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


def term_phase(spec: ThetaSpec, Z: SiegelPoint):
    """U -> e(tau(U)) for a batch of real U, the phase of every series term:

        tau(U) = tr(U^T A U Z)/2 + tr(K^T A U) - i tr(U^T A- U Y),

    with the A- part only for an indefinite form.  |e(tau(U))| =
    exp(-pi tr(U^T M U Y)), as M = A - 2 A-.  Re tau is reduced mod 1 before
    the exponential.
    """
    Af = spec.A.astype(float)
    AK = Af @ spec.K_floats()
    if not np.any(AK):
        AK = None
    aminus = spec.dec.aminus if spec.dec.s > 0 else None
    Zmat, Y = Z.Z, Z.Y

    def phase(U):
        Ut = np.transpose(U, (0, 2, 1))
        tau = 0.5 * np.einsum("xij,ji->x", np.matmul(Ut, np.matmul(Af, U)), Zmat)
        if AK is not None:
            tau = tau + np.einsum("aj,xaj->x", AK, U)
        expo = -2.0 * math.pi * tau.imag
        if aminus is not None:
            Qm = np.matmul(Ut, np.matmul(aminus, U))
            expo = expo + 2.0 * math.pi * np.einsum("xij,ji->x", Qm, Y)
        turns = tau.real - np.round(tau.real)
        return np.exp(expo + 2j * math.pi * turns)

    return phase


def _lattice_series(spec: ThetaSpec, Z: SiegelPoint, eps: float, point_cap, borcherds: bool,
                    L=None) -> ThetaValue:
    """The plain or the Borcherds series of spec at Z, certified, over U in H + L Z^{m x n}.

    Every term is poly(W) e(tau(U)), tau the term_phase: the plain series has
    poly = f, W = U Y^(1/2) and pref = det(Y)^(-lam/2), the Borcherds one the
    Borcherds polynomial, W = U and pref = 1.  L is an invertible m x m
    lattice basis (Z^m when None); the sum runs over the integer rows V of
    U = L(V + L^-1 H), with Gram matrix kron(Y, L^T M L).  The tail budget is
    the largest float b with pref * b <= eps, so the tail bound is at most
    eps.  A det(Y) outside the float range leaves pref 0 or inf (ValueError).
    """
    if Z.n != spec.n:
        raise ValueError("point genus does not match the characteristics")
    Y = Z.Y
    if borcherds:
        poly, Ysq, pref = borcherds_poly(spec, Y), None, 1.0
        sig2 = 1.0 / (float(np.min(np.linalg.eigvalsh(spec.dec.M))) * float(np.min(np.linalg.eigvalsh(Y))))
    else:
        poly, Ysq = spec.coeff.poly_part, sqrt_posdef(Y)
        with np.errstate(all="ignore"):
            pref = float(np.linalg.det(Y) ** (-float(spec.coeff.lam) / 2.0))
        sig2 = 1.0 / float(np.min(np.linalg.eigvalsh(spec.dec.M)))
    if not (math.isfinite(pref) and pref > 0):
        raise ValueError("series prefactor %r is not a positive finite float "
                         "(det(Y) outside the float range)" % pref)
    m, n = spec.m, spec.n
    H, M = spec.H_floats(), spec.dec.M
    if L is not None:
        H, M = np.linalg.solve(L, H), L.T @ M @ L
    G = np.kron(Y, M)
    c = H.T.reshape(-1)
    phase = term_phase(spec, Z)
    compiled = compile_poly(poly)

    def summand(rows):
        U = (rows + c).reshape(-1, n, m).transpose(0, 2, 1)
        if L is not None:
            U = np.einsum("ab,xbj->xaj", L, U)
        W = U if Ysq is None else np.matmul(U, Ysq)
        return eval_batch(compiled, W) * phase(U)

    budget = eps / pref
    while pref * budget > eps:
        budget = math.nextafter(budget, 0.0)
    total, tail, used, R2, rho, gross = certified_lattice_sum(
        G, c, budget, poly.coeff_norm(), poly.degree(), sig2, summand, point_cap_from_env(point_cap))
    return ThetaValue(pref * total, pref * tail, used, R2, rho, pref * gross)


def theta_eval(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-10,
               point_cap=None) -> ThetaValue:
    """Evaluate the series at Z with total truncation error at most eps."""
    return _lattice_series(spec, Z, eps, point_cap, borcherds=False)


def dual_theta_eval(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-10, point_cap=None,
                    borcherds: bool = False) -> ThetaValue:
    """theta_eval (or theta_eval_borcherds) with U over the dual lattice H + A^-1 Z^{m x n}.

    One certified sum, the union of the |det A|^n series over the cosets
    J + H + Z^{m x n}, J in A^-1 Z^{m x n} / Z^{m x n}; the right side of
    the inversion and Poisson laws.
    """
    return _lattice_series(spec, Z, eps, point_cap, borcherds, np.linalg.inv(spec.A.astype(float)))


def heat_plan(spec: ThetaSpec) -> HeatPlan:
    """The coefficient's HeatPlan of its source polynomial under Delta_M, built once."""
    coeff = spec.coeff
    if coeff.plan is None:
        coeff.plan = HeatPlan(coeff.source, spec.dec.fraction_matrix("M"))
    return coeff.plan


def borcherds_poly(spec: ThetaSpec, Y: np.ndarray) -> CompiledPoly:
    """exp(-tr(Delta_M Y^-1) / 8 pi) of the source polynomial, compiled.

    The exact words of heat_plan(spec) are combined with float weights from
    Y^-1, so Y enters as a float, as it does everywhere else.
    """
    return heat_plan(spec).flow(np.linalg.inv(Y) * (-1.0 / (8.0 * math.pi)))


def theta_eval_borcherds(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-10,
                         point_cap=None) -> ThetaValue:
    """The unslashed normal form: the Borcherds polynomial at U, the same phase.

    Satisfies theta_eval(spec, Z) = det(Y)^(s/2 + beta) * this value.
    """
    return _lattice_series(spec, Z, eps, point_cap, borcherds=True)
