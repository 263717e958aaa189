"""Executable checks for the operator identities and transformation laws.

Every check returns a CheckReport rather than raising on a failed identity
(an input it cannot evaluate, such as a det(Y) whose power leaves the float
range, is a ValueError): the algebraic identities (eigenvalue equation,
commutators) are tested in exact arithmetic and must come out identically
zero, while the analytic laws (translation, inversion, Fourier, Poisson)
compare certified truncated evaluations or quadratures against closed forms
within an explicit tolerance.

Conventions, fixed throughout:
  * e(w) = exp(2 pi i w);
  * the Fourier transform is taken against the form, with a positive pairing:
    fhat(V) = int f(U) e(tr(V^T A U)) dU, so that Poisson summation reads
    sum_{U in Z^{m x n}} f(U) = sum_{V in A^{-1} Z^{m x n}} fhat(V);
  * fractional powers of determinants go through the principal branch of the
    eigenvalue logarithms (see siegel.det_power), and half-integral powers of
    i and -1 are written as exp of the exponent times the principal logarithm.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .exactlinalg import frac_matrix, mat_inverse, mat_mul
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
from .quadform import decompose, named_form
from .scalars import PiScalar
from .siegel import SiegelPoint, det_power, random_siegel_point
from .theta import (
    ThetaSpec,
    borcherds_poly,
    build_coeff,
    dual_theta_eval,
    heat_plan,
    term_phase,
    theta_eval,
    theta_eval_borcherds,
    theta_spec,
)
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


# ==== exact rational phase bookkeeping ======================================


def _transpose(M):
    return [list(col) for col in zip(*M)]


def _trace(M) -> Fraction:
    return sum((M[i][i] for i in range(len(M))), Fraction(0))


def e_of_fraction(x) -> complex:
    """e(x) for rational x, reduced mod 1 before any float is formed."""
    x = Fraction(x)
    x -= math.floor(x)
    return cmath.exp(2j * math.pi * float(x))


def _diag_part(M):
    size = len(M)
    return [[M[i][i] if i == j else Fraction(0) for j in range(size)] for i in range(size)]


def _ones(rows, cols):
    return [[Fraction(1)] * cols for _ in range(rows)]


def _relative_residual(lhs, pref, rhs):
    """pref times rhs, and its distance to lhs over the larger gross mass (0 when both are 0)."""
    rhs_val = pref * rhs.value
    scale = max(lhs.gross, abs(pref) * rhs.gross)
    return rhs_val, (abs(lhs.value - rhs_val) / scale if scale > 0 else 0.0)


def translation_data(spec: ThetaSpec, S):
    """Exact phase argument and shifted characteristic for Z -> Z + S."""
    Sf = [[Fraction(int(x)) for x in row] for row in np.asarray(S).tolist()]
    m, n = spec.m, spec.n
    A = frac_matrix(spec.A.tolist())
    H = [list(row) for row in spec.H]
    K = [list(row) for row in spec.K]
    phase = -_trace(mat_mul(mat_mul(mat_mul(_transpose(H), A), H), Sf)) / 2
    S0 = _diag_part(Sf)
    A0 = _diag_part(A)
    phase -= _trace(mat_mul(mat_mul(mat_mul(S0, _ones(n, m)), A0), H)) / 2
    shift = mat_mul(mat_inverse(A), mat_mul(A0, mat_mul(_ones(m, n), S0)))
    HS = mat_mul(H, Sf)
    Ktil = [[K[a][j] + HS[a][j] + shift[a][j] / 2 for j in range(n)] for a in range(m)]
    return phase, Ktil


def check_translation(spec: ThetaSpec, Z: SiegelPoint, S, eps: float = 1e-12,
                      tol: float = 1e-10, point_cap=None) -> CheckReport:
    """theta(Z + S) against the exact phase times theta with shifted K."""
    Sarr = np.asarray(S, dtype=float)
    if Sarr.shape != (spec.n, spec.n) or not np.array_equal(Sarr, Sarr.T) \
            or not np.array_equal(Sarr, np.round(Sarr)):
        raise ValueError("S must be an integer symmetric matrix of the point's size")
    Sarr = Sarr.astype(np.int64)
    phase, Ktil = translation_data(spec, Sarr)
    lhs = theta_eval(spec, Z.translate(Sarr), eps, point_cap)
    rhs = theta_eval(spec.with_characteristics(K=Ktil), Z, eps, point_cap)
    rhs_val = e_of_fraction(phase) * rhs.value
    residual = abs(lhs.value - rhs_val)
    return CheckReport(
        "translation", residual, tol, lhs.value, rhs_val,
        {"eps": eps, "phase": str(phase), "terms": lhs.terms + rhs.terms,
         "tail_budget": lhs.tail_bound + rhs.tail_bound})


def inversion_prefactor(spec: ThetaSpec, Z: SiegelPoint) -> complex:
    m, n = spec.m, spec.n
    dec = spec.dec
    alpha, beta = spec.coeff.alpha, spec.coeff.beta
    power = (dec.r - dec.s) / 2.0 + alpha - beta
    pref = cmath.exp(-1j * math.pi * m * n / 4.0)
    pref *= cmath.exp(1j * math.pi * ((dec.s / 2.0 + beta) * n + beta * dec.s))
    pref *= abs(float(dec.form.det)) ** (-n / 2.0)
    pref *= det_power(Z.Z, power)
    A = frac_matrix(spec.A.tolist())
    hak = _trace(mat_mul(mat_mul(_transpose([list(r) for r in spec.H]), A),
                         [list(r) for r in spec.K]))
    return pref * e_of_fraction(hak)


def check_inversion(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-10,
                    tol: float = 1e-8, point_cap=None) -> CheckReport:
    """theta(-Z^-1) against the dual-lattice series with the branch-locked prefactor.

    The right side is one certified sum over U in K + A^-1 Z^{m x n}, with
    characteristics (K, -H), at Z.  Its tail budget is eps for each of its
    |det A|^n cosets of Z^{m x n}, at most the largest float.
    """
    lhs = theta_eval(spec, Z.inverse_point(), eps, point_cap)
    cosets = abs(int(spec.dec.form.det)) ** spec.n
    dual = spec.with_characteristics(H=spec.K, K=[[-x for x in row] for row in spec.H])
    rhs = dual_theta_eval(dual, Z, min(eps * cosets, np.finfo(float).max), point_cap)
    rhs_val, residual = _relative_residual(lhs, inversion_prefactor(spec, Z), rhs)
    return CheckReport(
        "inversion", residual, tol, lhs.value, rhs_val,
        {"eps": eps, "cosets": cosets, "terms": lhs.terms + rhs.terms,
         "tail_budget": lhs.tail_bound + rhs.tail_bound,
         "absolute_residual": abs(lhs.value - rhs_val)})


def check_borcherds_form(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-13,
                         tol: float = 1e-12, point_cap=None) -> CheckReport:
    """det(Y)^(s/2+beta) times the unslashed form against the definition.

    A det(Y) whose power leaves the float range makes the prefactor 0 or inf
    and the right side meaningless (inf * 0 is nan): ValueError, before any
    series is summed.
    """
    with np.errstate(all="ignore"):
        dety = float(np.linalg.det(Z.Y))
    try:
        pref = dety ** (spec.dec.s / 2.0 + spec.coeff.beta) if dety > 0 else math.nan
    except OverflowError:
        pref = math.inf
    if not (math.isfinite(pref) and pref > 0):
        raise ValueError("Borcherds prefactor det(Y)^(s/2+beta) = %r is not a positive finite "
                         "float (det(Y) outside the float range)" % pref)
    lhs = theta_eval(spec, Z, eps, point_cap)
    rhs = theta_eval_borcherds(spec, Z, eps, point_cap)
    rhs_val, residual = _relative_residual(lhs, pref, rhs)
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


def _tensor_quad(fn, dim: int, L: float, N: int) -> complex:
    x, w = np.polynomial.legendre.leggauss(N)
    x = L * x
    w = L * w
    if dim == 1:
        return complex(np.sum(w * fn(x.reshape(-1, 1))))
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([X1.ravel(), X2.ravel()], axis=1)
    vals = fn(pts).reshape(N, N)
    return complex(np.einsum("i,j,ij->", w, w, vals))


def _refined_quad(fn, dim: int, L: float, quad_eps: float):
    N = 24
    prev = _tensor_quad(fn, dim, L, N)
    while N < 512:
        N *= 2
        cur = _tensor_quad(fn, dim, L, N)
        if abs(cur - prev) < quad_eps:
            return cur, N, abs(cur - prev)
        prev = cur
    return prev, N, float("nan")


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
    dim = m * n
    if dim > 2:
        raise ValueError("quadrature checks are limited to two real dimensions")
    Vf = np.asarray(V, dtype=float).reshape(m, n)
    eye = [[int(i == j) for j in range(m)] for i in range(m)]
    closed = exp_trace_laplace(p, eye, PiScalar.from_parts(Fraction(1, 4), 0, -1)).eval(Vf)
    # exp(-pi tr(U^T U)) is the term phase of the form I at Z = i I
    gauss = term_phase(theta_spec(eye, n=n), SiegelPoint(1j * np.eye(n)))

    def fn(pts):
        U = pts.reshape(-1, n, m).transpose(0, 2, 1)
        return eval_batch(p, U + Vf) * gauss(U)

    Cp = p.coeff_norm() * (1.0 + float(np.linalg.norm(Vf))) ** p.degree()
    L = _gaussian_box(Cp, p.degree(), 1.0, dim, quad_eps / 10.0)
    got, nodes, drift = _refined_quad(fn, dim, L, quad_eps)
    residual = abs(got - closed)
    return CheckReport("gauss_transform", residual, tol, got, closed,
                       {"box": L, "nodes": nodes, "drift": drift})


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
    return (float(spec.dec.form.det) ** (-n / 2.0) * det_power(-1j * Z.Z, -m / 2.0)
            * phase * complex(eval_batch(heat, (-V @ Zinv)[None])[0]))


def _fourier_prefactor(spec: ThetaSpec, Z: SiegelPoint, W: SiegelPoint) -> complex:
    """The factor between f_W and the transform of f_Z, with W = -Z^-1.

    The definite and indefinite branches multiply in different orders; each
    order fixes the last bits of the eigen-Fourier and Poisson outputs.
    """
    m, n = spec.m, spec.n
    dec = spec.dec
    alpha, beta = spec.coeff.alpha, spec.coeff.beta
    deta = float(dec.form.det)
    pref = cmath.exp(-1j * math.pi * m * n / 4.0)
    if dec.s == 0:
        pref *= deta ** (-n / 2.0) * det_power(W.Z, m / 2.0 + alpha)
    else:
        pref *= cmath.exp(1j * math.pi * beta * dec.s)
        pref *= abs(deta) ** (-n / 2.0)
        pref *= det_power(W.Z, dec.r / 2.0 + alpha)
        pref *= det_power(np.conj(Z.Z), -(dec.s / 2.0 + beta))
    return pref


def check_fourier(spec: ThetaSpec, Z: SiegelPoint, V, form: str = "eigen",
                  tol: float = 1e-6, quad_eps: float = 1e-8) -> CheckReport:
    """Quadrature of the transform integral against its closed form."""
    m, n = spec.m, spec.n
    dim = m * n
    if dim > 2:
        raise ValueError("quadrature checks are limited to two real dimensions")
    V = np.asarray(V, dtype=float).reshape(m, n)
    closed = fourier_closed_form(spec, Z, V, form)
    AV = spec.A.astype(float) @ V
    poly = spec.coeff.f if form == "plain" else borcherds_poly(spec, Z.Y)
    phase = term_phase(_zero_characteristics(spec), Z)

    def fn(pts):
        U = pts.reshape(-1, n, m).transpose(0, 2, 1)
        pair = np.einsum("aj,xaj->x", AV, U)
        return eval_batch(poly, U) * phase(U) * np.exp(2j * math.pi * pair)

    lam = float(np.min(np.linalg.eigvalsh(spec.dec.M)) * np.min(np.linalg.eigvalsh(Z.Y)))
    L = _gaussian_box(poly.coeff_norm(), poly.degree(), lam, dim, quad_eps / 10.0)
    got, nodes, drift = _refined_quad(fn, dim, L, quad_eps)
    residual = abs(got - closed)
    return CheckReport("fourier_" + form, residual, tol, got, closed,
                       {"box": L, "nodes": nodes, "drift": drift})


def check_poisson(spec: ThetaSpec, Z: SiegelPoint, eps: float = 1e-10,
                  tol: float = 1e-8, point_cap=None) -> CheckReport:
    """Both sides of Poisson summation for f_Z, each with a certified tail.

    The left side is the lattice sum of f_Z itself (the characteristics play
    no role here, so they are zeroed); the right side sums the closed-form
    transform over V in A^-1 Z^{m x n}, which is _fourier_prefactor times
    the Borcherds series at W = -Z^-1 over the dual lattice.
    """
    spec0 = _zero_characteristics(spec)
    lhs = theta_eval_borcherds(spec0, Z, eps, point_cap)
    W = SiegelPoint(-np.linalg.inv(Z.Z))
    rhs = dual_theta_eval(spec0, W, eps, point_cap, borcherds=True)
    pref = _fourier_prefactor(spec, Z, W)
    rhs_val, residual = _relative_residual(lhs, pref, rhs)
    return CheckReport(
        "poisson", residual, tol, lhs.value, rhs_val,
        {"eps": eps, "terms_lhs": lhs.terms, "terms_rhs": rhs.terms,
         "tail_budget": lhs.tail_bound + abs(pref) * rhs.tail_bound,
         "absolute_residual": abs(lhs.value - rhs_val)})


# ==== suites ================================================================


def _suite_specs(forms, genus):
    out = []
    for name in forms:
        A = named_form(name) if isinstance(name, str) else np.asarray(name)
        dec = decompose(A)
        m = dec.m
        half = [[Fraction(1, 2) if a == 0 else Fraction(0) for _ in range(genus)] for a in range(m)]
        third = [[Fraction(1, 3) if a == m - 1 else Fraction(0) for _ in range(genus)] for a in range(m)]
        label = name if isinstance(name, str) else "custom"
        if dec.s == 0 or genus > 1:
            coeff = build_coeff(dec, MatPoly.one(m, genus),
                                None if dec.s == 0 else MatPoly.one(m, genus))
        else:
            coeff = build_coeff(dec, MatPoly.variable(m, 1, 0, 0), MatPoly.one(m, 1))
        out.append((label, ThetaSpec(dec, coeff, half, third)))
    return out


def run_suite(suite: str, forms=None, genus: int = 1, seed: int = 0,
              eps: float = 1e-10, point_cap=None) -> list:
    """Run a named family of checks; returns a list of CheckReports."""
    if genus < 1:
        raise ValueError("genus must be positive, got %d" % genus)
    if forms is None:
        forms = ("diag:2", "diag:2,-2", "h2")
    rng = np.random.default_rng(seed)
    reports = []

    if suite in ("operators", "all"):
        for label, spec in _suite_specs(forms, genus):
            rep = check_vigneras(spec)
            rep.metadata["form"] = label
            reports.append(rep)
        reports.append(check_commutator(m=2, n=genus, degree=3, kmax=2, n_forms=2, seed=seed))
    if suite in ("translation", "all"):
        for label, spec in _suite_specs(forms, genus):
            B = rng.integers(-2, 3, size=(genus, genus))
            rep = check_translation(spec, random_siegel_point(genus, rng), B + B.T,
                                    eps=min(eps, 1e-12), point_cap=point_cap)
            rep.metadata["form"] = label
            reports.append(rep)
    if suite in ("inversion", "all"):
        for label, spec in _suite_specs(forms, genus):
            rep = check_inversion(spec, SiegelPoint(np.eye(genus) * 1j), eps=eps,
                                  point_cap=point_cap)
            rep.metadata["form"] = label
            reports.append(rep)
            rep = check_borcherds_form(spec, random_siegel_point(genus, rng),
                                       point_cap=point_cap)
            rep.metadata["form"] = label
            reports.append(rep)
    if suite in ("fourier", "all"):
        sp = theta_spec([[2]], P_plus=_random_matpoly(1, 1, 2, rng))
        Z1 = SiegelPoint(np.array([[(1 + 3j) / 5]]))
        reports.append(check_fourier(sp, Z1, [[0.5]], form="plain"))
        reports.append(check_fourier(sp, Z1, [[0.5]], form="eigen"))
        if genus == 1:
            small = [f for f in forms if isinstance(f, str) and named_form(f).shape[0] <= 2]
            for label, spec in _suite_specs(small, 1):
                rep = check_fourier(spec, SiegelPoint(np.array([[0.3 + 1.1j]])),
                                    [[0.5]] if spec.m == 1 else [[0.5], [0.25]])
                rep.metadata["form"] = label
                reports.append(rep)
        reports.append(check_gauss_transform(_random_matpoly(1, 2, 3, rng), [[0.7, -0.3]]))
    if suite in ("poisson", "all"):
        for label, spec in _suite_specs(forms, genus):
            if spec.m * genus > 8:
                continue
            rep = check_poisson(spec, SiegelPoint(np.eye(genus) * 1j), eps=eps,
                                point_cap=point_cap)
            rep.metadata["form"] = label
            reports.append(rep)
    if not reports:
        raise ValueError("unknown suite %r" % suite)
    return reports
