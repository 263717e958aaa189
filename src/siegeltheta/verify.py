"""Executable checks for the operator identities and transformation laws.

Every check returns a CheckReport rather than raising on a failed identity
(an input it cannot evaluate, such as a det(Y) whose power or a det A that
leaves the float range, is a ValueError): the algebraic identities
(eigenvalue equation, commutators) are tested in exact arithmetic and must
come out identically zero, while the analytic laws (translation, inversion,
Fourier, Poisson) compare certified truncated evaluations or quadratures
against closed forms within an explicit tolerance.

Conventions, fixed throughout:
  * e(w) = exp(2 pi i w);
  * the Fourier transform is taken against the form, with a positive pairing:
    fhat(V) = int f(U) e(tr(V^T A U)) dU, so that Poisson summation reads
    sum_{U in Z^{m x n}} f(U) = sum_{V in A^{-1} Z^{m x n}} fhat(V);
  * fractional powers of determinants go through the principal branch of the
    eigenvalue logarithms (see siegel.det_power), and half-integral powers of
    i and -1 are written as exp of the exponent times the principal logarithm;
  * one law factor, theta.inversion_prefactor: under Z -> -Z^-1 a series of
    signature (r, s) picks up exp(-i pi n (r - s)/4) |det A|^(-n/2)
    det(Z)^((r - s)/2 + alpha - beta) e(tr(H^T A K)).  The Fourier and
    Poisson factor (_fourier_prefactor) is derived from it; the plain Fourier
    closed form keeps its own, its alpha entering through the heat flow.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .exactlinalg import mat_inverse, mat_mul
from .polyalg import (
    MatPoly,
    euler_entry,
    eval_batch,
    exp_trace_laplace,
    laplace_entry,
    trace_laplace,
    vigneras_residual,
)
from .polyalg import exp_trace_laplace_weighted  # noqa: F401  (patched by perfbench tracing)
from .quadform import coset_reps  # noqa: F401  (patched by perfbench tracing)
from .quadform import decompose, held_integer, named_form
from .scalars import PiScalar
from .siegel import SiegelPoint, det_power, random_siegel_point
from .theta import (
    ThetaSpec,
    borcherds_poly,
    det_y_weight,
    dual_spec,
    dual_theta_eval,
    e_of_fraction,
    float_det,
    heat_plan,
    inversion_prefactor,
    term_phase,
    theta_eval_borcherds,
    theta_eval_direct,
    theta_eval_shared,
    theta_spec,
)
from .theta import _times_form
from .theta import certified_lattice_sum  # noqa: F401  (patched by perfbench tracing)


class CheckReport:
    """Outcome of one identity check."""

    __slots__ = ("name", "passed", "residual", "tolerance", "lhs", "rhs", "metadata")

    def __init__(self, name, residual, tolerance, lhs=None, rhs=None, metadata=None):
        self.name = name
        self.residual = float(residual)
        self.tolerance = float(tolerance)
        self.passed = self.residual <= self.tolerance
        self.lhs = lhs
        self.rhs = rhs
        self.metadata = metadata or {}

    def as_dict(self) -> dict:
        def enc(v):
            if v is None:
                return None
            v = complex(v)
            return {"re": v.real, "im": v.imag}

        return {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "lhs": enc(self.lhs),
            "rhs": enc(self.rhs),
            "metadata": self.metadata,
        }

    def __repr__(self):
        flag = "ok" if self.passed else "FAIL"
        return "CheckReport(%s: %s, residual=%.3e <= %.1e)" % (
            self.name, flag, self.residual, self.tolerance)


# the smallest factor by which a law check refines its eps: it raises R^2 by
# at most log(10^6) / (pi rho) < 9, which bounds the work of the repeated
# sums however small the gross mass
_FINEST_STEP = 1e-6


def _law_residual(sides, pref, eps: float, tol: float):
    """The sides of a law lhs = pref rhs and their residual, summed finely enough to decide.

    sides(eps) sums the two sides and returns (lhs, rhs, rhs_eps), the
    right side summed with tail budget rhs_eps.  The residual is |lhs -
    pref rhs| over scale, the larger gross mass (0 when both are 0), and
    lies within budget / scale of the law's own defect, budget = eps +
    |pref| rhs_eps.  A residual above tol with budget / scale above tol / 2
    is then no verdict on the law, as the certified tails alone may explain
    it, so both sides are summed once more at eps times tol scale / (2
    budget) (a factor of at least _FINEST_STEP), where they no longer can.
    Returns (lhs, rhs, pref rhs, residual, eps), eps the one of the
    returned sums.
    """
    for final in (False, True):
        lhs, rhs, rhs_eps = sides(eps)
        rhs_val = pref * rhs.value
        scale = max(lhs.gross, abs(pref) * rhs.gross)
        residual = abs(lhs.value - rhs_val) / scale if scale > 0 else 0.0
        budget = eps + abs(pref) * rhs_eps
        if final or residual <= tol or 2.0 * budget <= tol * scale:
            break
        eps *= max(tol * scale / (2.0 * budget), _FINEST_STEP)
    return lhs, rhs, rhs_val, residual, eps


def translation_data(spec: ThetaSpec, S):
    """(phase, K~) with theta(Z + S; H, K) = e(phase) theta(Z; H, K~) for integer symmetric S.

    Exactly, with D_aj = A_aa S_jj: the Fraction phase = -(sum_aj (A H)_aj
    (H S)_aj + sum_aj D_aj H_aj) / 2 and K~ = K + H S + A^-1 D / 2.
    """
    A, H = spec.A.tolist(), spec.H
    S = [[int(x) for x in row] for row in np.asarray(S).tolist()]
    D = [[A[a][a] * S[j][j] for j in range(spec.n)] for a in range(spec.m)]
    HS = mat_mul(H, S)
    phase = -sum(x * y + d * h for rows in zip(_times_form(A, H), HS, D, H) for x, y, d, h in zip(*rows)) / 2
    shift = mat_mul(mat_inverse(A), D)
    return phase, [[k + x + y / 2 for k, x, y in zip(*rows)] for rows in zip(spec.K, HS, shift)]


def check_translation(spec: ThetaSpec, Z: SiegelPoint, S, eps: float = 1e-12,
                      tol: float = 1e-10, point_cap=None) -> CheckReport:
    """theta(Z + S) against the exact phase times theta with shifted K.

    Both sides run over the same U in H + Z^{m x n} with the same Gram
    matrix kron(Y, M), so one enumeration sums them (theta_eval_shared), at
    the same R^2; each side still carries its own phase form through its
    own recurrences and sums its own terms.

    An entry of S that int64 and float64 do not both hold exactly is a
    ValueError naming it, before any cast.  Z + S is formed in floats, so a
    large shift fails the tolerance through that rounding alone: at X = 0.1
    and tol 1e-10, S = 2^20 passes (residual 2.2e-12), 2^26 fails (1.4e-10).
    """
    Sarr = np.asarray(S, dtype=object)
    if Sarr.shape != (spec.n, spec.n) or not np.array_equal(Sarr, Sarr.T):
        raise ValueError("S must be an integer symmetric matrix of the point's size")
    for (j, k), x in np.ndenumerate(Sarr):
        if not held_integer(x):
            raise ValueError("S[%d][%d] = %r is no integer that int64 and float64 hold exactly" % (j, k, x))
    Sarr = Sarr.astype(np.int64)
    phase, Ktil = translation_data(spec, Sarr)
    lhs, rhs = theta_eval_shared([(spec, Z.translate(Sarr), False),
                                  (spec.with_characteristics(K=Ktil), Z, False)], eps, point_cap)
    rhs_val = e_of_fraction(phase) * rhs.value
    residual = abs(lhs.value - rhs_val)
    return CheckReport(
        "translation", residual, tol, lhs.value, rhs_val,
        {"eps": eps, "phase": str(phase), "terms": lhs.terms + rhs.terms,
         "tail_budget": lhs.tail_bound + rhs.tail_bound})


def check_inversion(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-10,
                    tol: float = 1e-8, point_cap=None) -> CheckReport:
    """theta(-Z^-1) against the dual-lattice series with the branch-locked prefactor.

    The right side is one certified sum over U in K + A^-1 Z^{m x n}, with
    characteristics (K, -H), at Z.  Its tail budget is eps for each of its
    |det A|^n cosets of Z^{m x n}, at most the largest float; a det A or a
    coset count beyond the float range is a ValueError.  A residual that
    the tails could explain is summed again at a finer eps (_law_residual);
    the metadata records the eps of the reported sums and the tail_budget
    lhs tail + |pref| rhs tail.
    """
    cosets = abs(int(spec.dec.form.det)) ** spec.n
    fmax = float(np.finfo(float).max)
    if cosets > fmax:
        raise ValueError("%d-bit |det A|^n cosets are beyond the float range" % cosets.bit_length())
    dual = dual_spec(spec)
    pref = inversion_prefactor(spec, Z)

    def sides(eps):
        rhs_eps = min(eps * cosets, fmax)
        return (theta_eval_direct(spec, Z.inverse_point(), eps, point_cap),
                dual_theta_eval(dual, Z, rhs_eps, point_cap), rhs_eps)

    lhs, rhs, rhs_val, residual, eps = _law_residual(sides, pref, eps, tol)
    return CheckReport(
        "inversion", residual, tol, lhs.value, rhs_val,
        {"eps": eps, "cosets": cosets, "terms": lhs.terms + rhs.terms,
         "tail_budget": lhs.tail_bound + abs(pref) * rhs.tail_bound,
         "absolute_residual": abs(lhs.value - rhs_val)})


def check_borcherds_form(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-13,
                         tol: float = 1e-12, point_cap=None) -> CheckReport:
    """det(Y)^(s/2+beta) times the unslashed form against the definition.

    Both series run over the same U in H + Z^{m x n} with the same Gram
    matrix and phase form, so each _law_residual round sums them from one
    enumeration (theta_eval_shared), at the larger of their R^2; each keeps
    the rows within its own R^2, so it sums exactly the terms of its own
    enumeration.  That costs the law no independence: the polynomials, f at
    U C (C C^T = Y, theta._series_plan) and the Borcherds polynomial at U,
    are evaluated apart, and the two separate enumerations it replaces
    visited the same rows.  A
    prefactor outside the float range is a ValueError (det_y_weight) before
    any series is summed.  A residual that the tails could explain is summed
    again at a finer eps (_law_residual), recorded in the metadata.
    """
    pref = det_y_weight(Z.Y, spec.dec.s / 2.0 + spec.coeff.beta,
                        "Borcherds prefactor det(Y)^(s/2+beta)")

    def sides(eps):
        return (*theta_eval_shared([(spec, Z, False), (spec, Z, True)], eps, point_cap), eps)

    lhs, rhs, rhs_val, residual, eps = _law_residual(sides, pref, eps, tol)
    return CheckReport(
        "borcherds_form", residual, tol, lhs.value, rhs_val,
        {"eps": eps, "terms": lhs.terms + rhs.terms})


# ==== exact operator checks =================================================


def check_vigneras(f, A=None, lam=None, tol: float = 0.0) -> CheckReport:
    """Residual of the eigenvalue equation; exact zero unless told otherwise.

    A ThetaSpec brings its form, its eigenvalue and, for an indefinite form,
    the A- that carries the coefficient's Gaussian.
    """
    aminus = None
    if isinstance(f, ThetaSpec):
        spec = f
        f = spec.coeff.f
        A = [[int(x) for x in row] for row in spec.A.tolist()]
        lam = spec.coeff.lam
        if spec.dec.s > 0:
            aminus = spec.dec.fraction_matrix("aminus")
    res = vigneras_residual(f, A, lam, aminus)
    norm = 0.0 if res.is_zero() else res.norm()
    return CheckReport("vigneras", norm, tol, metadata={"lam": str(lam)})


def _random_matpoly(m, n, degree, rng, mixed: bool = False) -> MatPoly:
    """Four random monomials, of total degree exactly degree (or up to it)."""
    p = MatPoly.zero(m, n)
    for _ in range(4):
        mono = MatPoly.one(m, n)
        steps = int(rng.integers(degree + 1)) if mixed else degree
        for _ in range(steps):
            mono = mono * MatPoly.variable(m, n, int(rng.integers(m)), int(rng.integers(n)))
        p = p + mono * int(rng.integers(1, 5))
    return p


def _random_sym_invertible(m, rng):
    while True:
        B = rng.integers(-3, 4, size=(m, m))
        A = B + B.T
        if abs(np.linalg.det(A.astype(float))) > 0.5:
            return [[int(x) for x in row] for row in A.tolist()]


def check_commutator(m: int = 2, n: int = 2, degree: int = 4, kmax: int = 2,
                     n_forms: int = 3, polys_per_form: int = 1, seed: int = 0) -> CheckReport:
    """[E_ij, (tr Delta_A)^k] = -2k (Delta_A)_ij (tr Delta_A)^(k-1), exactly.

    Random inhomogeneous polynomials of total degree up to degree, all
    k <= kmax, all (i, j) entries, over n_forms random invertible symmetric
    integer forms.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for _ in range(n_forms):
        A = _random_sym_invertible(m, rng)
        for _ in range(polys_per_form):
            f = _random_matpoly(m, n, degree, rng, mixed=True)
            flows = [f]
            for _ in range(kmax):
                flows.append(trace_laplace(flows[-1], A))
            for k in range(1, kmax + 1):
                minus2k = PiScalar.from_parts(Fraction(-2 * k), 0, 0)
                for i in range(n):
                    for j in range(n):
                        ef = euler_entry(f, i, j)
                        for _ in range(k):
                            ef = trace_laplace(ef, A)
                        comm = euler_entry(flows[k], i, j) - ef
                        want = laplace_entry(flows[k - 1], A, i, j) * minus2k
                        diff = comm - want
                        checked += 1
                        if not diff.is_zero():
                            worst = max(worst, diff.coeff_norm())
    return CheckReport("commutator", worst, 0.0,
                       metadata={"m": m, "n": n, "degree": degree, "kmax": kmax,
                                 "forms": n_forms, "identities": checked})


# ==== quadrature against closed forms =======================================


@functools.lru_cache(maxsize=None)
def _leggauss(N: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per N and read-only."""
    nodes = np.polynomial.legendre.leggauss(N)
    for arr in nodes:
        arr.setflags(write=False)
    return nodes


def _tensor_quad(fn, m: int, n: int, L: float, N: int) -> complex:
    x, w = _leggauss(N)
    x = L * x
    w = L * w
    if m * n == 1:
        return complex(np.sum(w * fn(x.reshape(-1, 1, 1))))
    # the second variable, the outer half of eval_batch, is the slow one: its
    # runs of N equal values are evaluated once each
    X1, X2 = np.meshgrid(x, x, indexing="xy")
    U = np.stack([X1.ravel(), X2.ravel()], axis=1).reshape(-1, n, m).transpose(0, 2, 1)
    return complex(np.einsum("i,j,ij->", w, w, fn(U).reshape(N, N)))


def _quad_report(name: str, fn, closed: complex, shape, Cp: float, deg: int, lam: float,
                 tol: float, quad_eps: float) -> CheckReport:
    """Quadrature of fn(U), U of the given m x n shape, against closed, in _gaussian_box's box.

    N = 24 nodes per axis, doubled up to 768 until the value moves by less
    than quad_eps, the drift (nan when it never does).
    """
    m, n = shape
    L = _gaussian_box(Cp, deg, lam, m * n, quad_eps / 10.0)
    N = 24
    got = _tensor_quad(fn, m, n, L, N)
    drift = math.nan
    while N < 512 and math.isnan(drift):
        N *= 2
        prev, got = got, _tensor_quad(fn, m, n, L, N)
        if abs(got - prev) < quad_eps:
            drift = abs(got - prev)
    return CheckReport(name, abs(got - closed), tol, got, closed,
                       {"box": L, "nodes": N, "drift": drift})


def _gaussian_box(Cp: float, deg: int, lam: float, dim: int, eps: float) -> float:
    """Half-width L with the majorant integral outside the box below eps.

    The integrand is dominated by Cp max(1, |u|)^deg exp(-pi lam |u|^2); half
    of the decay absorbs the polynomial growth, the other half is integrated.
    """
    b = math.pi * lam / 2.0
    K = max(1.0, (deg / (2.0 * b * math.e)) ** (deg / 2.0)) if deg > 0 else 1.0
    one_dim = math.sqrt(2.0 / lam)
    L = 2.0
    while L < 60.0:
        tail = dim * Cp * K * one_dim ** dim * math.erfc(math.sqrt(b) * L)
        if tail < eps:
            return L
        L += 1.0
    return L


def check_gauss_transform(p: MatPoly, V, tol: float = 1e-8,
                          quad_eps: float = 1e-10) -> CheckReport:
    """int p(U+V) exp(-pi tr(U^T U)) dU against the heat-flowed value at V."""
    m, n = p.m, p.n
    if m * n > 2:
        raise ValueError("quadrature checks are limited to two real dimensions")
    Vf = np.asarray(V, dtype=float).reshape(m, n)
    eye = [[int(i == j) for j in range(m)] for i in range(m)]
    closed = exp_trace_laplace(p, eye, PiScalar.from_parts(Fraction(1, 4), 0, -1)).eval(Vf)
    # exp(-pi tr(U^T U)) is the term phase of the form I at Z = i I
    gauss = term_phase(theta_spec(eye, n=n), SiegelPoint(1j * np.eye(n)))

    def fn(U):
        return eval_batch(p, U + Vf) * gauss(U)

    Cp = p.coeff_norm() * (1.0 + float(np.linalg.norm(Vf))) ** p.degree()
    return _quad_report("gauss_transform", fn, closed, (m, n), Cp, p.degree(), 1.0, tol, quad_eps)


def _zero_characteristics(spec: ThetaSpec) -> ThetaSpec:
    zero = [[0] * spec.n for _ in range(spec.m)]
    return spec.with_characteristics(H=zero, K=zero)


def fourier_closed_form(spec: ThetaSpec, Z: SiegelPoint, V, form: str = "eigen") -> complex:
    """The closed form of the transform of f_Z, evaluated at V.

    f_Z(U) = p(U) e(tau(U)) is a series term at Z with K = 0 (term_phase):
    p is spec.coeff.f for the plain form and the Borcherds polynomial at Y
    for the eigen form.  Its transform is, up to a prefactor, the same kind
    of term at W = -Z^-1.  For the plain form that term carries
    exp(tr(Delta_A (i/4 pi) Z^-1)) f; heat operators commute and
    f = exp(-tr(Delta_A) / 8 pi) P, so it is the flow of P under the one
    complex weight (i/4 pi) Z^-1 - I/(8 pi), taken from the coefficient's
    HeatPlan (M = A for a definite form).
    """
    if form not in ("plain", "eigen"):
        raise ValueError("form must be 'plain' or 'eigen'")
    if form == "plain" and spec.dec.s != 0:
        raise ValueError("the plain closed form needs a positive definite A")
    m, n = spec.m, spec.n
    V = np.asarray(V, dtype=float).reshape(m, n)
    Zinv = np.linalg.inv(Z.Z)
    W = SiegelPoint(-Zinv)
    phase = complex(term_phase(_zero_characteristics(spec), W)(V[None])[0])
    if form == "eigen":
        pB = borcherds_poly(spec, W.Y)
        return _fourier_prefactor(spec, Z, W) * complex(eval_batch(pB, V[None])[0] * phase)
    heat = heat_plan(spec).flow(Zinv * (1j / (4.0 * math.pi)) - np.eye(n) / (8.0 * math.pi))
    return (float_det(spec.dec) ** (-n / 2.0) * det_power(-1j * Z.Z, -m / 2.0)
            * phase * complex(eval_batch(heat, (-V @ Zinv)[None])[0]))


def _fourier_prefactor(spec: ThetaSpec, Z: SiegelPoint, W: SiegelPoint) -> complex:
    """The factor between f_W and the transform of f_Z, with W = -Z^-1, from the law factor.

    f_Z is a Borcherds term and theta = det(Y)^(s/2 + beta) theta_B, so the
    law theta(Z) = inversion_prefactor(spec0, W) theta_dual(W), spec0 with
    zero characteristics, holds for theta_B times (det Im W / det Y)^(s/2 +
    beta) = |det Z|^(-(s + 2 beta)), taken as one power.
    """
    power = spec.dec.s + 2 * spec.coeff.beta
    return inversion_prefactor(_zero_characteristics(spec), W) * abs(np.linalg.det(Z.Z)) ** -power


def check_fourier(spec: ThetaSpec, Z: SiegelPoint, V, form: str = "eigen",
                  tol: float = 1e-6, quad_eps: float = 1e-8) -> CheckReport:
    """Quadrature of the transform integral against its closed form."""
    m, n = spec.m, spec.n
    if m * n > 2:
        raise ValueError("quadrature checks are limited to two real dimensions")
    V = np.asarray(V, dtype=float).reshape(m, n)
    closed = fourier_closed_form(spec, Z, V, form)
    AV = spec.A.astype(float) @ V
    poly = spec.coeff.compiled() if form == "plain" else borcherds_poly(spec, Z.Y)
    phase = term_phase(_zero_characteristics(spec), Z)

    def fn(U):
        pair = np.einsum("aj,xaj->x", AV, U)
        return eval_batch(poly, U) * phase(U) * np.exp(2j * math.pi * pair)

    lam = float(np.min(np.linalg.eigvalsh(spec.dec.M)) * np.min(np.linalg.eigvalsh(Z.Y)))
    return _quad_report("fourier_" + form, fn, closed, (m, n), math.fsum(np.abs(poly.coef)),
                        poly.degree(), lam, tol, quad_eps)


def check_poisson(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-10,
                  tol: float = 1e-8, point_cap=None) -> CheckReport:
    """Both sides of Poisson summation for f_Z, each with a certified tail.

    The left side is the lattice sum of f_Z itself (the characteristics play
    no role here, so they are zeroed); the right side sums the closed-form
    transform over V in A^-1 Z^{m x n}, which is _fourier_prefactor times
    the Borcherds series at W = -Z^-1 over the dual lattice.  A residual
    that the tails could explain is summed again at a finer eps
    (_law_residual), recorded in the metadata.
    """
    spec0 = _zero_characteristics(spec)
    W = SiegelPoint(-np.linalg.inv(Z.Z))
    pref = _fourier_prefactor(spec, Z, W)

    def sides(eps):
        return (theta_eval_borcherds(spec0, Z, eps, point_cap),
                dual_theta_eval(spec0, W, eps, point_cap, borcherds=True), eps)

    lhs, rhs, rhs_val, residual, eps = _law_residual(sides, pref, eps, tol)
    return CheckReport(
        "poisson", residual, tol, lhs.value, rhs_val,
        {"eps": eps, "terms_lhs": lhs.terms, "terms_rhs": rhs.terms,
         "tail_budget": lhs.tail_bound + abs(pref) * rhs.tail_bound,
         "absolute_residual": abs(lhs.value - rhs_val)})


# ==== suites ================================================================


SUITES = ("operators", "translation", "inversion", "fourier", "poisson", "all")


def _suite_specs(forms, genus):
    """(label, spec) per form: P+ = x_11 for an indefinite form in genus 1 and 1
    otherwise, H = 1/2 in the first row, K = 1/3 in the last."""
    out = []
    for name in forms:
        dec = decompose(named_form(name) if isinstance(name, str) else np.asarray(name))
        m = dec.m
        half = [[Fraction(1, 2) if a == 0 else Fraction(0) for _ in range(genus)] for a in range(m)]
        third = [[Fraction(1, 3) if a == m - 1 else Fraction(0) for _ in range(genus)] for a in range(m)]
        P_plus = MatPoly.variable(m, 1, 0, 0) if dec.s and genus == 1 else None
        label = name if isinstance(name, str) else "custom"
        out.append((label, theta_spec(dec, P_plus, H=half, K=third, n=genus)))
    return out


def run_suite(suite: str, forms=None, genus: int = 1, seed: int = 0,
              eps: float = 1e-10, point_cap=None) -> list:
    """Run a named family of checks, one of SUITES; returns a list of CheckReports.

    The specs of the forms are built once and shared by every section.
    """
    if genus < 1:
        raise ValueError("genus must be positive, got %d" % genus)
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % suite)
    if forms is None:
        forms = ("diag:2", "diag:2,-2", "h2")
    specs = _suite_specs(forms, genus)
    rng = np.random.default_rng(seed)
    Z_i = SiegelPoint(np.eye(genus) * 1j)
    reports = []

    def add(rep, label):
        rep.metadata["form"] = label
        reports.append(rep)

    if suite in ("operators", "all"):
        for label, spec in specs:
            add(check_vigneras(spec), label)
        reports.append(check_commutator(m=2, n=genus, degree=3, kmax=2, n_forms=2, seed=seed))
    if suite in ("translation", "all"):
        for label, spec in specs:
            B = rng.integers(-2, 3, size=(genus, genus))
            add(check_translation(spec, random_siegel_point(genus, rng), B + B.T,
                                  eps=min(eps, 1e-12), point_cap=point_cap), label)
    if suite in ("inversion", "all"):
        for label, spec in specs:
            add(check_inversion(spec, Z_i, eps=eps, point_cap=point_cap), label)
            add(check_borcherds_form(spec, random_siegel_point(genus, rng), point_cap=point_cap), label)
    if suite in ("fourier", "all"):
        sp = theta_spec([[2]], P_plus=_random_matpoly(1, 1, 2, rng))
        Z1 = SiegelPoint(np.array([[(1 + 3j) / 5]]))
        reports.append(check_fourier(sp, Z1, [[0.5]], form="plain"))
        reports.append(check_fourier(sp, Z1, [[0.5]], form="eigen"))
        if genus == 1:
            # named forms only, small enough for the two-dimensional quadrature
            for name, (label, spec) in zip(forms, specs):
                if isinstance(name, str) and spec.m <= 2:
                    add(check_fourier(spec, SiegelPoint(np.array([[0.3 + 1.1j]])),
                                      [[0.5]] if spec.m == 1 else [[0.5], [0.25]]), label)
        reports.append(check_gauss_transform(_random_matpoly(1, 2, 3, rng), [[0.7, -0.3]]))
    if suite in ("poisson", "all"):
        for label, spec in specs:
            if spec.m * genus <= 8:
                add(check_poisson(spec, Z_i, eps=eps, point_cap=point_cap), label)
    return reports
