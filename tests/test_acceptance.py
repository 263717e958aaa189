"""Acceptance suite: one test per criterion, budgets and tolerances pinned.

Each test prints a single [criterion N] PASS line with its elapsed time;
a failed assert is the FAIL line.  Tolerances are the contract values, not
what the implementation happens to achieve.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from siegeltheta.exactlinalg import mat_inverse
from siegeltheta.polyalg import MatPoly, basis_homopol, vigneras_residual
from siegeltheta.quadform import decompose, lattice_points, named_form
from siegeltheta.scalars import PiScalar
from siegeltheta.siegel import SiegelPoint
from siegeltheta.theta import (
    build_coeff,
    theta_eval,
    theta_spec,
)
from siegeltheta.verify import (
    check_borcherds_form,
    check_commutator,
    check_fourier,
    check_gauss_transform,
    check_inversion,
    check_poisson,
    check_translation,
)

MN_GRID = [(2, 1), (2, 2), (3, 2)]
POSDEF = {2: [[2, 1], [1, 2]], 3: [[2, 1, 0], [1, 2, 1], [0, 1, 4]]}


def test_criterion_1_commutator_suite():
    """Exact commutator identity: 20 polynomials x 5 forms x k <= 3 per cell."""
    t0 = time.monotonic()
    for m, n in MN_GRID:
        rep = check_commutator(m=m, n=n, degree=6, kmax=3, n_forms=5,
                               polys_per_form=4, seed=101)
        assert rep.passed and rep.residual == 0.0, (m, n)
        assert rep.metadata["identities"] == 5 * 4 * 3 * n * n
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print("[criterion 1] PASS (%.1fs): commutator identity exact on %s" % (elapsed, MN_GRID))


def test_criterion_2_solution_space_suite():
    """Every basis element solves the eigenvalue equation, exactly."""
    t0 = time.monotonic()
    count_pos = 0
    for m, n in MN_GRID:
        A = POSDEF[m]
        for alpha in range(4):
            for P in basis_homopol(m, n, alpha):
                f = build_coeff(decompose(A), P)
                assert f.lam == alpha
                assert vigneras_residual(f.f, A, f.lam).is_zero(), (m, n, alpha)
                count_pos += 1
    count_ind = 0
    for name in ("diag:2,-2", "h2", "diag:2,2,-2"):
        dec = decompose(named_form(name))
        A = [[int(x) for x in row] for row in dec.form.A.tolist()]
        aminus = dec.fraction_matrix("aminus")
        for alpha in range(3):
            for beta in range(3):
                Pminus = basis_homopol(dec.m, 1, beta)[0]
                for P in basis_homopol(dec.m, 1, alpha):
                    g = build_coeff(dec, P, Pminus)
                    assert g.lam == alpha - beta - dec.s
                    assert vigneras_residual(g.f, A, g.lam, aminus).is_zero(), (name, alpha, beta)
                    count_ind += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print("[criterion 2] PASS (%.1fs): %d definite + %d indefinite solutions, zero residual"
          % (elapsed, count_pos, count_ind))


def test_criterion_3_translation_law():
    """Residual <= 1e-10 across forms, characteristics, genus 1 and 2."""
    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    worst = 0.0
    cases = 0
    for name in ("diag:2", "e8", "diag:2,-2"):
        A = named_form(name)
        m = A.shape[0]
        for n in (1, 2):
            spec0 = theta_spec(A, n=n)
            if name == "e8":
                Z = SiegelPoint(3j * np.eye(n))
            else:
                Z = SiegelPoint(np.full((n, n), 0.2) + (0.7 * np.eye(n) + 0.4) * 1j) \
                    if n == 2 else SiegelPoint(np.array([[0.2 + 1.1j]]))
            half = [[Fraction(1, 2)] * n for _ in range(m)]
            zero = [[Fraction(0)] * n for _ in range(m)]
            for H in (zero, half):
                for K in (zero, half):
                    spec = spec0.with_characteristics(H=H, K=K)
                    for _ in range(3):
                        B = rng.integers(-2, 3, size=(n, n))
                        S = B + B.T + np.diag(rng.integers(-1, 2, size=n))
                        rep = check_translation(spec, Z, S, eps=1e-12, tol=1e-10)
                        assert rep.passed, (name, n, rep.residual)
                        worst = max(worst, rep.residual)
                        cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print("[criterion 3] PASS (%.1fs): %d translation checks, worst residual %.2e <= 1e-10"
          % (elapsed, cases, worst))


def test_criterion_4_inversion_definite():
    """E8 at three points and genus-2 2*I2 with its 16-term coset sum."""
    t0 = time.monotonic()
    spec8 = theta_spec("e8")
    worst = 0.0
    for z in (1j, (1 + 3j) / 5, 2j):
        rep = check_inversion(spec8, SiegelPoint(np.array([[z]])), eps=1e-10, tol=1e-8)
        assert rep.passed, (z, rep.residual)
        assert rep.metadata["cosets"] == 1
        worst = max(worst, rep.residual)
    spec2 = theta_spec(np.diag([2, 2]).astype(np.int64), n=2)
    rng = np.random.default_rng(41)
    Zrand = SiegelPoint(np.array([[0.3, -0.1], [-0.1, 0.2]])
                        + 1j * (np.array([[1.1, 0.3], [0.3, 0.9]])))
    for Z in (SiegelPoint(1j * np.eye(2)), Zrand):
        rep = check_inversion(spec2, Z, eps=1e-10, tol=1e-8)
        assert rep.passed, rep.residual
        assert rep.metadata["cosets"] == 16
        worst = max(worst, rep.residual)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print("[criterion 4] PASS (%.1fs): definite inversion, worst residual %.2e <= 1e-8"
          % (elapsed, worst))


def test_criterion_5_inversion_indefinite():
    """diag(2,-2) with 4 cosets and the hyperbolic plane with 1 coset."""
    t0 = time.monotonic()
    spec_d = theta_spec("diag:2,-2")
    spec_h = theta_spec("h2", P_plus=MatPoly.variable(2, 1, 0, 0),
                        H=[[Fraction(1, 2)], [Fraction(0)]],
                        K=[[Fraction(0)], [Fraction(1, 3)]])
    worst = 0.0
    for z in (1j, 0.25 + 1j):
        Z = SiegelPoint(np.array([[z]]))
        rep = check_inversion(spec_d, Z, eps=1e-10, tol=1e-8)
        assert rep.passed and rep.metadata["cosets"] == 4, (z, rep.residual)
        worst = max(worst, rep.residual)
        rep = check_inversion(spec_h, Z, eps=1e-10, tol=1e-8)
        assert rep.passed and rep.metadata["cosets"] == 1, (z, rep.residual)
        worst = max(worst, rep.residual)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print("[criterion 5] PASS (%.1fs): indefinite inversion, worst residual %.2e <= 1e-8"
          % (elapsed, worst))


def test_criterion_6_gauss_fourier_poisson():
    """Quadrature identities at mn <= 2 plus the classical Poisson value."""
    t0 = time.monotonic()
    p = MatPoly.variable(1, 2, 0, 0) * MatPoly.variable(1, 2, 0, 0) \
        * MatPoly.variable(1, 2, 0, 1) + MatPoly.one(1, 2) * 2
    rep = check_gauss_transform(p, [[0.7, -0.3]], tol=1e-8)
    assert rep.passed, rep.residual

    sq = MatPoly.variable(1, 1, 0, 0) * MatPoly.variable(1, 1, 0, 0)
    spec1 = theta_spec([[2]], P_plus=sq)
    Z1 = SiegelPoint(np.array([[(1 + 3j) / 5]]))
    for form in ("plain", "eigen"):
        rep = check_fourier(spec1, Z1, [[0.5]], form=form, tol=1e-6)
        assert rep.passed, (form, rep.residual)
    rep = check_fourier(theta_spec("diag:2,-2"), SiegelPoint(np.array([[0.3 + 1.1j]])),
                        [[0.5], [0.25]], tol=1e-6)
    assert rep.passed, rep.residual

    rep = check_poisson(theta_spec([[2]]), SiegelPoint(np.array([[1j]])), tol=1e-8)
    assert rep.passed, rep.residual
    # independent oracle for both sides: the direct truncated sum
    direct = sum(math.exp(-2.0 * math.pi * k * k) for k in range(-40, 41))
    assert abs(rep.lhs - direct) <= 1e-9
    assert abs(rep.rhs - direct) <= 1e-9
    rep = check_poisson(theta_spec("h2"), SiegelPoint(np.array([[0.2 + 0.9j]])), tol=1e-8)
    assert rep.passed, rep.residual
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print("[criterion 6] PASS (%.1fs): gauss <= 1e-8, fourier <= 1e-6, poisson <= 1e-8, "
          "classical value %.13f reproduced" % (elapsed, direct))


def test_criterion_7_cross_evaluation():
    """Both evaluation paths agree to 1e-12 relative on the indefinite grid."""
    t0 = time.monotonic()
    worst = 0.0
    cases = 0
    grid = [
        (theta_spec("diag:2,-2"), SiegelPoint(np.array([[1j]]))),
        (theta_spec("diag:2,-2"), SiegelPoint(np.array([[0.4 + 1.3j]]))),
        (theta_spec("diag:2,-2", n=2),
         SiegelPoint(np.array([[0.1, 0.0], [0.0, -0.2]]) + 1j * np.eye(2))),
        (theta_spec("h2", P_plus=MatPoly.variable(2, 1, 0, 0),
                    H=[[Fraction(1, 2)], [Fraction(0)]],
                    K=[[Fraction(0)], [Fraction(1, 3)]]),
         SiegelPoint(np.array([[0.3 + 0.8j]]))),
        (theta_spec("h2", n=2), SiegelPoint(1j * np.eye(2))),
        (theta_spec("h2+e8"), SiegelPoint(np.array([[0.3 + 1.7j]]))),
        (theta_spec("h2+e8"), SiegelPoint(np.array([[2.1j]]))),
    ]
    for spec, Z in grid:
        rep = check_borcherds_form(spec, Z, eps=1e-13, tol=1e-12)
        assert rep.passed, (spec, rep.residual)
        worst = max(worst, rep.residual)
        cases += 1
    elapsed = time.monotonic() - t0
    print("[criterion 7] PASS (%.1fs): %d cross-evaluations, worst relative gap %.2e <= 1e-12"
          % (elapsed, cases, worst))


def brute_force_points(G, center, R2):
    """Independent oracle: exact rational filter over a sufficient box."""
    G = np.asarray(G, dtype=np.int64)
    d = G.shape[0]
    lam_min = min(np.linalg.eigvalsh(G.astype(float)))
    bound = math.sqrt(float(R2) / lam_min) * 1.001 + 1.0
    Gf = [[Fraction(int(G[i][j])) for j in range(d)] for i in range(d)]
    cf = [Fraction(x) for x in center]
    out = set()
    ranges = [range(int(-bound - abs(cf[i])) - 1, int(bound - cf[i]) + 2) for i in range(d)]
    for v in itertools.product(*ranges):
        x = [cf[i] + v[i] for i in range(d)]
        q = sum(Gf[i][j] * x[i] * x[j] for i in range(d) for j in range(d))
        if q <= Fraction(R2):
            out.add(v)
    return out


def test_criterion_8_enumeration_equals_brute_force():
    """Exact set equality on 50 random instances, dimension <= 4."""
    t0 = time.monotonic()
    rng = np.random.default_rng(81)
    r2max = {1: 60, 2: 40, 3: 20, 4: 10}
    checked = 0
    total_points = 0
    for trial in range(50):
        d = int(rng.integers(1, 5))
        B = rng.integers(-2, 3, size=(d, d))
        G = (B.T @ B + np.eye(d, dtype=np.int64) * int(rng.integers(1, 4))).astype(np.int64)
        center = [Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 5)))
                  for _ in range(d)]
        R2 = Fraction(int(rng.integers(2, r2max[d])), int(rng.integers(1, 3)))
        got = {tuple(int(x) for x in row) for row in lattice_points(G, center, R2)}
        want = brute_force_points(G, center, R2)
        assert got == want, (trial, d)
        checked += 1
        total_points += len(want)
    elapsed = time.monotonic() - t0
    print("[criterion 8] PASS (%.1fs): %d instances, %d points, exact set equality"
          % (elapsed, checked, total_points))


def dbar_estimate(spec, z, h=1e-4, eps=1e-12):
    """Central finite-difference Cauchy-Riemann residual at genus 1."""
    vals = {}
    for dz in (h, -h, 1j * h, -1j * h):
        vals[dz] = theta_eval(spec, SiegelPoint(np.array([[z + dz]])), eps=eps).value
    dx = (vals[h] - vals[-h]) / (2.0 * h)
    dy = (vals[1j * h] - vals[-1j * h]) / (2.0 * h)
    return 0.5 * (dx + 1j * dy)


def test_criterion_9_holomorphy_spot_check():
    """Finite-difference dbar residuals vanish to 1e-6 for harmonic coefficients."""
    t0 = time.monotonic()
    rng = np.random.default_rng(91)
    points = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.85, 1.25)) for _ in range(3)]

    spec_e8 = theta_spec("e8")
    worst = 0.0
    for z in points:
        res = abs(dbar_estimate(spec_e8, z))
        val = theta_eval(spec_e8, SiegelPoint(np.array([[z]])), eps=1e-12).value
        assert abs(val) > 0.5  # the weight-4 Eisenstein series is nowhere small here
        assert res <= 1e-6, (z, res)
        worst = max(worst, res)

    # harmonic quadratic coefficient: tr(A^-1 Q) = 0 by construction
    Ainv = mat_inverse([[int(x) for x in row] for row in named_form("e8").tolist()])
    u0 = MatPoly.variable(8, 1, 0, 0)
    u1 = MatPoly.variable(8, 1, 1, 0)
    P2 = u0 * u0 * PiScalar.from_parts(Ainv[1][1], 0, 0) \
        - u1 * u1 * PiScalar.from_parts(Ainv[0][0], 0, 0)
    spec_h = theta_spec("e8", P_plus=P2)
    z = points[0]
    res = abs(dbar_estimate(spec_h, z))
    assert res <= 1e-6, res

    # nonzero harmonic witness of higher weight: (u0 + i u1)^4 for 2*I2
    ell = MatPoly.variable(2, 1, 0, 0) + MatPoly.variable(2, 1, 1, 0) \
        * PiScalar.from_parts(0, Fraction(1), 0)
    ell4 = ell * ell * ell * ell
    spec_cm = theta_spec(np.diag([2, 2]).astype(np.int64), P_plus=ell4)
    for z in points:
        res = abs(dbar_estimate(spec_cm, z))
        val = theta_eval(spec_cm, SiegelPoint(np.array([[z]])), eps=1e-12).value
        assert abs(val) > 1e-4  # genuinely nonzero series
        assert res <= 1e-6, (z, res)
        worst = max(worst, res)
    elapsed = time.monotonic() - t0
    print("[criterion 9] PASS (%.1fs): dbar residuals <= %.2e <= 1e-6" % (elapsed, worst))
