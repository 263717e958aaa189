"""Theta evaluation against independent direct-sum oracles and closed forms."""

import cmath
import functools
import itertools
import math
import re
import time
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from siegeltheta.errors import ResourceCapError
import siegeltheta.polyalg as polyalg
import siegeltheta.quadform as quadform
from siegeltheta.polyalg import (
    MatPoly,
    basis_homopol,
    eval_batch,
    exp_trace_laplace_weighted,
    vigneras_residual,
)
from siegeltheta.scalars import PiScalar
import siegeltheta.theta as theta
from siegeltheta.quadform import decompose, lattice_blocks, named_form
from siegeltheta.siegel import SiegelPoint
from siegeltheta.verify import check_borcherds_form, translation_data
from siegeltheta.theta import (
    Coefficient,
    ThetaSpec,
    borcherds_poly,
    build_coeff,
    dual_theta_eval,
    theta_eval,
    theta_eval_borcherds,
    theta_eval_direct,
    theta_spec,
)

from reference import sqrt_posdef


# ==== oracles: direct truncated sums ========================================

def oracle_sum_1d(shift=0.0, sign_period=None, y=1.0, kmax=40):
    """sum over k in Z of exp(-2 pi (k+shift)^2 y), optionally with (-1)^k."""
    total = 0.0
    for k in range(-kmax, kmax + 1):
        term = math.exp(-2.0 * math.pi * (k + shift) ** 2 * y)
        if sign_period:
            term *= (-1) ** k
        total += term
    return total


# frozen from the oracles above (kmax=40 saturates double precision)
THETA3 = 1.0037348854877393
THETA2 = 0.4157606025960271
THETA4 = 0.9962651145609072
E4_AT_I = 1.4557628922687107  # 3 Gamma(1/4)^8 / (2 pi)^6


Z_I = SiegelPoint(np.array([[1j]]))


def test_oracle_constants_are_self_consistent():
    assert oracle_sum_1d() == pytest.approx(THETA3, abs=1e-15)
    assert oracle_sum_1d(shift=0.5) == pytest.approx(THETA2, abs=1e-15)
    assert oracle_sum_1d(sign_period=2) == pytest.approx(THETA4, abs=1e-15)
    # Jacobi's quartic identity ties all three together
    assert THETA2 ** 4 + THETA4 ** 4 == pytest.approx(THETA3 ** 4, abs=1e-14)
    assert 3 * math.gamma(0.25) ** 8 / (2 * math.pi) ** 6 == pytest.approx(E4_AT_I, rel=1e-15)


def test_scalar_theta_matches_oracle():
    val = theta_eval(theta_spec([[2]]), Z_I, eps=1e-12)
    assert val.value.real == pytest.approx(THETA3, abs=2e-12)
    assert abs(val.value.imag) < 1e-14
    assert val.tail_bound <= 1.1e-12


def test_half_characteristic_matches_oracle():
    spec = theta_spec([[2]], H=[[Fraction(1, 2)]])
    val = theta_eval(spec, Z_I, eps=1e-12)
    assert val.value.real == pytest.approx(THETA2, abs=2e-12)


def test_quarter_k_characteristic_matches_oracle():
    # e(tr(K^T A U)) with K=1/4, A=[[2]] alternates signs on Z
    spec = theta_spec([[2]], K=[[Fraction(1, 4)]])
    val = theta_eval(spec, Z_I, eps=1e-12)
    assert val.value.real == pytest.approx(THETA4, abs=2e-12)


def test_e8_value_is_the_weight_four_eisenstein_value():
    val = theta_eval(theta_spec("e8"), Z_I, eps=1e-10)
    assert val.value.real == pytest.approx(E4_AT_I, abs=1e-9)
    assert abs(val.value.imag) < 1e-12


def test_indefinite_split_value_matches_oracle_product():
    # diag(2,-2) at z=i splits into a product of two 1d sums
    val = theta_eval(theta_spec("diag:2,-2"), Z_I, eps=1e-12)
    assert val.value.real == pytest.approx(THETA3 ** 2, abs=5e-12)


def test_indefinite_y_scaling_against_oracle():
    y = 1.7
    spec = theta_spec("diag:2,-2")
    val = theta_eval(spec, SiegelPoint(np.array([[y * 1j]])), eps=1e-12)
    # det Y^(1/2) prefactor times two independent 1d Gaussian sums at rate y
    want = math.sqrt(y) * oracle_sum_1d(y=y) ** 2
    assert val.value.real == pytest.approx(want, abs=1e-11)


def test_borcherds_ratio_is_det_y_power():
    spec = theta_spec("diag:2,-2")
    Z = SiegelPoint(np.array([[2j]]))
    a = theta_eval(spec, Z, eps=1e-13)
    b = theta_eval_borcherds(spec, Z, eps=1e-13)
    # s/2 + beta = 1/2
    assert a.value == pytest.approx(b.value * math.sqrt(2.0), rel=1e-12)


def test_posdef_borcherds_path_identical():
    spec = theta_spec([[2]])
    a = theta_eval(spec, Z_I, eps=1e-12)
    b = theta_eval_borcherds(spec, Z_I, eps=1e-12)
    assert a.value == pytest.approx(b.value, rel=1e-13)


# ==== the Borcherds heat plan ===============================================

A3 = [[2, 1, 0], [1, 2, 1], [0, 1, 4]]
# Y whose float inverse is dyadic, so the exact weighted flow is an exact oracle
DYADIC_Y = {
    1: (np.array([[4.0]]), [[Fraction(1, 4)]]),
    2: (np.array([[2.0, 1.0], [1.0, 1.0]]), [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]),
}


def _combination_spec(form, genus, alpha, seed):
    """theta_spec with a seeded integer combination of basis_homopol(m, genus, alpha)."""
    A = named_form(form) if isinstance(form, str) else np.array(form)
    m = A.shape[0]
    rng = np.random.default_rng(seed)
    P = MatPoly.zero(m, genus)
    for b in basis_homopol(m, genus, alpha):
        P = P + b * int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return theta_spec(A, P_plus=P, n=genus)


@pytest.mark.parametrize("alpha", [2, 3])
@pytest.mark.parametrize("genus", [1, 2])
@pytest.mark.parametrize("form", [A3, "diag:2,2,-2", [[2, 1], [1, -3]], [[2, 1, 0], [1, -3, 0], [0, 0, 2]]],
                         ids=str)
def test_borcherds_plan_matches_the_exact_flow(form, genus, alpha):
    if form == [[2, 1], [1, -3]] and genus == 2:
        # its eigenspaces have rank 1, which kills every genus-2 P+ of degree
        # alpha > 0; the float split leaves rounding noise, which build_coeff
        # refuses (the 3 x 3 irrational form takes this case)
        with pytest.raises(ValueError, match="rounding noise"):
            _combination_spec(form, genus, alpha, seed=10 * genus + alpha)
        return
    spec = _combination_spec(form, genus, alpha, seed=10 * genus + alpha)
    Y, Yinv = DYADIC_Y[genus]
    assert np.array_equal(np.linalg.inv(Y), np.array(Yinv, dtype=float))
    exact = exp_trace_laplace_weighted(spec.coeff.source, spec.dec.fraction_matrix("M"), Yinv,
                                       PiScalar.from_parts(Fraction(-1, 8), 0, -1))
    want = {e: c.to_complex() for e, c in exact.terms.items()}
    compiled = borcherds_poly(spec, Y)
    got = {tuple(e.tolist()): c for e, c in zip(compiled.exponents, compiled.coef)}
    assert len(got) == len(compiled.terms) and set(want) <= set(got)
    scale = max(abs(c) for c in want.values())
    assert max(abs(got[e] - want.get(e, 0.0)) for e in got) <= 1e-15 * scale
    assert compiled.degree() == exact.degree()


def test_borcherds_plan_is_compiled_once(monkeypatch):
    spec = _combination_spec(A3, 2, 2, seed=1)
    calls = []
    laplace = polyalg._laplace

    def counted(*args):
        calls.append(args[1:])
        return laplace(*args)

    # every exact word of a HeatPlan is one kernel Laplacian entry of an earlier word
    monkeypatch.setattr(polyalg, "_laplace", counted)
    Y = np.array([[0.7, 0.1], [0.1, 0.6]])
    first = borcherds_poly(spec, Y)
    assert calls  # the first weighted flow builds the plan
    calls.clear()
    again = borcherds_poly(spec, Y)
    moved = spec.with_characteristics(H=[[Fraction(1, 2)] * 2, [0, 0], [0, 0]])
    borcherds_poly(moved, 1.5 * Y)
    theta_eval_borcherds(moved, SiegelPoint.from_xy(np.zeros((2, 2)), Y), eps=1e-6)
    assert not calls
    assert np.array_equal(first.coef, again.coef)


def test_coefficient_is_compiled_once_and_flows_share_their_tables(monkeypatch):
    spec = _combination_spec(A3, 2, 2, seed=1)
    calls = []
    compile_poly = theta.compile_poly
    monkeypatch.setattr(theta, "compile_poly", lambda p: calls.append(p) or compile_poly(p))
    Y = np.array([[0.7, 0.1], [0.1, 0.6]])
    Z = SiegelPoint.from_xy(np.zeros((2, 2)), Y)
    moved = spec.with_characteristics(H=[[Fraction(1, 2)] * 2, [0, 0], [0, 0]])
    for s in (spec, moved):
        theta_eval(s, Z, eps=1e-6)
        theta_eval_borcherds(s, Z, eps=1e-6)
    assert len(calls) == 1
    assert theta._series_plan(moved, Z, 1e-6).poly is spec.coeff.compiled()
    first, again = borcherds_poly(spec, Y), borcherds_poly(spec, 1.5 * Y)
    assert first.table is again.table


@pytest.mark.parametrize("complex_w", [False, True])
def test_compiled_rows_do_not_depend_on_the_batch(complex_w):
    poly = borcherds_poly(_combination_spec(A3, 2, 3, seed=2), np.array([[0.7, 0.1], [0.1, 0.6]]))
    rng = np.random.default_rng(3)
    rows = 2 * max(64, 2**16 // len(poly.terms)) + 7
    W = rng.uniform(-1.5, 1.5, size=(rows, 3, 2))
    if complex_w:
        W = W + 1j * rng.uniform(-1.5, 1.5, size=(rows, 3, 2))
    alone = np.array([eval_batch(poly, W[k:k + 1])[0] for k in range(rows)])
    assert np.array_equal(eval_batch(poly, W), alone)


def test_tail_bound_honesty():
    spec = theta_spec("e8")
    Z = SiegelPoint(np.array([[0.37 + 0.91j]]))
    coarse = theta_eval(spec, Z, eps=1e-6)
    fine = theta_eval(spec, Z, eps=1e-13)
    assert abs(coarse.value - fine.value) <= coarse.tail_bound + 1e-13


@pytest.mark.parametrize("x", np.logspace(-14, 1, 61))
def test_theta1_majorant_is_above_the_gaussian_integral(x):
    # Poisson summation: sum_{k in Z} exp(-x k^2) = sqrt(pi/x) sum_n exp(-pi^2 n^2 / x)
    # >= sqrt(pi/x); a majorant that drops its tail or its rounding falls below
    got = theta.theta1_majorant(float(x))
    assert got >= math.sqrt(math.pi / x)
    with mpmath.workdps(40):
        xm = mpmath.mpf(float(x))
        dual = mpmath.sqrt(mpmath.pi / xm) * mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi ** 2 / xm))
        assert mpmath.mpf(got) >= dual
        if x <= 1e-4:
            # a cut-off sum plus the integral of the rest overshoots by up to
            # 0.24 / K relative; the Poisson form does not
            assert mpmath.mpf(got) <= dual * (1 + mpmath.mpf(10) ** -6)


def test_theta1_majorant_is_tight_over_the_whole_range():
    # the closed form overshoots theta1 only by its terms k >= 3 (5.2e-10
    # relative at x = pi, the worst case) and by its rounding margin
    for x in np.append(np.logspace(-14, 2, 81), math.pi):
        got = theta.theta1_majorant(float(x))
        with mpmath.workdps(40):
            xm = mpmath.mpf(float(x))
            exact = mpmath.sqrt(mpmath.pi / xm) * mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi ** 2 / xm))
            assert exact <= mpmath.mpf(got) <= exact * (1 + mpmath.mpf(6e-10)), x


_Z1 = SiegelPoint(np.array([[0.3 + 1.1j]]))
_Z2 = SiegelPoint(np.array([[0.3 + 1.2j, -0.1 + 0.2j], [-0.1 + 0.2j, 0.2 + 0.9j]]))


@pytest.mark.parametrize("eps", np.geomspace(1e-6, 7e-13, 9))
@pytest.mark.parametrize("form, Z", [("e8", _Z1), ("diag:2,-2", _Z1), ("diag:2,-2", _Z2),
                                     ("h2", _Z1), ("diag:2", _Z1)])
def test_tail_bound_never_exceeds_eps(form, Z, eps):
    # R^2 from a logarithm and the det(Y) prefactor each used to round the
    # bound a few ulps above eps
    spec = theta_spec(form, n=Z.n)
    for evaluate in (theta_eval, theta_eval_borcherds):
        assert evaluate(spec, Z, eps=float(eps)).tail_bound <= eps


def _abs_poly(p):
    return MatPoly(p.m, p.n, {e: c.abs_norm() for e, c in p.terms.items()})


@pytest.mark.parametrize("Z", [_Z1, _Z2], ids=["genus1", "genus2"])
@pytest.mark.parametrize("form", ["e8", "h2", "h2+e8", "diag:2,2,-2", [[2, 1], [1, -3]]], ids=str)
def test_term_modulus_is_the_certificate_gaussian(form, Z):
    # the tail certificate rests on |term| = |poly(W)| exp(-pi tr(U^T M U Y))
    # for both evaluators; theta_eval's terms also match the scalar oracle
    # f(W) e(tr(U^T A U Z)/2 + tr(K^T A U)), Gaussian factor included
    A = named_form(form) if isinstance(form, str) else np.array(form)
    m, n = A.shape[0], Z.n
    if n == 1:
        P = MatPoly.variable(m, 1, 0, 0)
    elif decompose(A).r >= 2:  # the minor of U on rows 0 and 1
        P = (MatPoly.variable(m, 2, 0, 0) * MatPoly.variable(m, 2, 1, 1)
             - MatPoly.variable(m, 2, 1, 0) * MatPoly.variable(m, 2, 0, 1))
    else:  # a rank-1 positive eigenspace kills every minor: P+ = 1
        P = None
    H = [[Fraction(1, 2) if a == 0 else 0] * n for a in range(m)]
    K = [[Fraction(1, 3) if a == m - 1 else 0] * n for a in range(m)]
    spec = theta_spec(A, P_plus=P, H=H, K=K, n=n)
    rng = np.random.default_rng(5)
    U = np.array(spec.H, dtype=float) + rng.integers(-1, 2, size=(300, m, n))
    q = np.einsum("xaj,ab,xbk,kj->x", U, spec.dec.M, U, Z.Y)
    U, q = U[q < 60], q[q < 60]
    assert len(U) >= 20
    phase = theta.term_phase(spec, Z)(U)
    Ysq = sqrt_posdef(Z.Y)
    for poly, W in ((spec.coeff.f, U @ Ysq), (borcherds_poly(spec, Z.Y), U)):
        vals = eval_batch(poly, W)
        want = np.abs(vals) * np.exp(-math.pi * q)
        assert np.all(np.abs(np.abs(vals * phase) - want) <= 1e-12 * want)
    W = U @ Ysq
    terms = eval_batch(spec.coeff.f, W) * phase
    AK = A @ spec.K_floats()
    aminus = np.array(spec.dec.fraction_matrix("aminus"), dtype=float)
    for k in range(len(U)):
        tau = 0.5 * np.trace(U[k].T @ A @ U[k] @ Z.Z) + np.sum(AK * U[k])
        gauss = math.exp(2.0 * math.pi * np.trace(W[k].T @ aminus @ W[k]))
        want = spec.coeff.f.eval(W[k]) * gauss * cmath.exp(2j * math.pi * tau)
        scale = _abs_poly(spec.coeff.f).eval(np.abs(W[k])).real * math.exp(-math.pi * q[k])
        assert abs(terms[k] - want) <= 1e-12 * scale


def test_block_size_moves_the_sum_by_ulps_only(monkeypatch):
    # as certified_lattice_sum documents: deterministic for a fixed block
    # size, within a few ulps of gross across block sizes
    spec = theta_spec("e8")
    Z = SiegelPoint(np.array([[0.1 + 1j]]))
    vals = []
    for block_size in (77, 8192):
        monkeypatch.setattr(theta, "lattice_blocks",
                            functools.partial(lattice_blocks, block_size=block_size))
        first = theta_eval(spec, Z, eps=1e-10)
        assert theta_eval(spec, Z, eps=1e-10).value == first.value
        vals.append(first)
    a, b = vals
    assert a.terms == b.terms
    assert abs(a.value - b.value) <= 8 * np.finfo(float).eps * a.gross
    doc = " ".join(theta.certified_lattice_sum.__doc__.split())
    assert "deterministic for a fixed enumeration block size" in doc
    assert "does not depend on the block size" not in doc


def test_halving_eps_stays_within_previous_tail():
    spec = theta_spec("diag:2,-2", P_plus=MatPoly.variable(2, 1, 0, 0),
                      H=[[Fraction(1, 2)], [Fraction(0)]], K=[[Fraction(1, 3)], [Fraction(0)]])
    Z = SiegelPoint(np.array([[0.2 + 0.8j]]))
    prev = theta_eval(spec, Z, eps=1e-8)
    for eps in (5e-9, 2.5e-9, 1.25e-9):
        cur = theta_eval(spec, Z, eps=eps)
        assert abs(cur.value - prev.value) <= prev.tail_bound + 1e-15
        prev = cur


def test_odd_coefficient_cancels_exactly():
    # u -> -u pairs terms of opposite sign; the sum collapses but the gross
    # magnitude records the scale at which the cancellation happened
    spec = theta_spec("e8", P_plus=MatPoly.variable(8, 1, 3, 0))
    val = theta_eval(spec, Z_I, eps=1e-10)
    assert abs(val.value) < 1e-15
    assert val.gross > 1.0


# ==== the +-U pairing against the unpaired sum ==============================


def unpaired_series(spec, Z, R2, dual=False):
    """(value, terms, gross) of theta_eval (dual_theta_eval) over the ellipsoid of radius R2,
    every U of it enumerated and summed on its own: f(U Y^(1/2)) e(tau(U)).

    Needs a float-exact center H (A H for the dual lattice), as H = 0 or 1/2
    gives.
    """
    m, n = spec.m, spec.n
    A = spec.A.astype(float)
    L = np.linalg.inv(A) if dual else np.eye(m)
    H = np.array(spec.H, dtype=float)
    c = (A @ H if dual else H).T.reshape(-1)
    G = np.kron(Z.Y, L.T @ spec.dec.M @ L)
    Ysq = sqrt_posdef(Z.Y)
    phase = theta.term_phase(spec, Z)
    re, im, gross, terms = [], [], [], 0
    for block in lattice_blocks(G, c, R2):
        rows = block.rows
        U = np.einsum("ab,xbj->xaj", L, (rows + c).reshape(-1, n, m).transpose(0, 2, 1))
        vals = eval_batch(spec.coeff.f, U @ Ysq) * phase(U)
        re.append(float(np.sum(vals.real)))
        im.append(float(np.sum(vals.imag)))
        gross.append(float(np.sum(np.abs(vals))))
        terms += rows.shape[0]
    pref = float(np.linalg.det(Z.Y)) ** (-float(spec.lam) / 2.0)
    return pref * complex(math.fsum(re), math.fsum(im)), terms, pref * math.fsum(gross)


PAIRING_ROUNDING = 64  # the two sums differ by rounding: |diff| <= tail + 64 eps gross

_PAIRING_FORMS = st.sampled_from([[[2]], [[-2]], [[2, 1], [1, 2]], "h2", "diag:2,-2",
                                  [[2, 1, 0], [1, 2, 1], [0, 1, 4]], "diag:2,2,-2"])
_SMALL_RATIONAL = st.integers(1, 4).flatmap(
    lambda q: st.builds(Fraction, st.integers(-q, q), st.just(q)))


# Forms with m <= 3 of every signature, genus 1 and 2, H in {0, 1/2}, rational
# K and integer combinations of basis_homopol(m, n, alpha), alpha <= 2 (odd
# degree in genus 1 with alpha = 1).  Time budget: 5 s for all 40 examples
# (about 2 s on a 2-vCPU host).
@settings(derandomize=True, deadline=None, max_examples=40)
@given(form=_PAIRING_FORMS, n=st.integers(1, 2), alpha=st.integers(0, 2),
       weights=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       halves=st.lists(st.booleans(), min_size=6, max_size=6),
       ks=st.lists(_SMALL_RATIONAL, min_size=6, max_size=6),
       x=st.floats(-0.5, 0.5), y=st.floats(0.8, 1.4))
def test_paired_series_equals_the_unpaired_sum(form, n, alpha, weights, halves, ks, x, y):
    m = len(named_form(form)) if isinstance(form, str) else len(form)
    basis = basis_homopol(m, n, alpha)
    assume(basis)
    P = MatPoly.zero(m, n)
    for w, b in zip(weights, basis):
        P = P + b * w
    if P.is_zero():
        P = basis[0]
    H = [[Fraction(1, 2) if halves[a * n + j] else Fraction(0) for j in range(n)] for a in range(m)]
    K = [[ks[a * n + j] for j in range(n)] for a in range(m)]
    spec = theta_spec(form, P_plus=P, H=H, K=K, n=n)
    assume(not spec.coeff.f.is_zero())  # P+ may vanish on the positive eigenspace
    X = np.array([[x, 0.1], [0.1, -x]])[:n, :n]
    Z = SiegelPoint(X + 1j * np.array([[y, 0.1], [0.1, 1.1]])[:n, :n])
    for dual, evaluate in ((False, theta_eval), (True, theta.dual_theta_eval)):
        val = evaluate(spec, Z, eps=1e-8)
        ref, terms, gross = unpaired_series(spec, Z, val.radius2, dual)
        assert val.terms == terms
        assert abs(val.gross - gross) <= 1e-12 * gross
        tol = val.tail_bound + PAIRING_ROUNDING * np.finfo(float).eps * gross
        assert abs(val.value - ref) <= tol, (dual, val, ref)


@pytest.mark.parametrize("H", [[[0], [0]], [[Fraction(1, 2)], [0]], [[0], [Fraction(1, 2)]]], ids=str)
@pytest.mark.parametrize("form", ["diag:2,2", "diag:2,-2", "h2"])
def test_odd_coefficient_pairs_to_zero_with_full_terms_and_gross(form, H):
    # K = 0 and an odd P: each pair sums to exactly 0, yet terms counts every
    # U and gross every |term|, as the unpaired sum does
    spec = theta_spec(form, P_plus=MatPoly.variable(2, 1, 0, 0), H=H)
    val = theta_eval(spec, Z_I, eps=1e-10)
    ref, terms, gross = unpaired_series(spec, Z_I, val.radius2)
    assert val.value == 0
    assert abs(ref) <= PAIRING_ROUNDING * np.finfo(float).eps * gross
    assert val.terms == terms and val.gross > 0
    assert abs(val.gross - gross) <= 1e-12 * gross


_PARITY_FORMS = st.sampled_from([[[2]], [[2, 1], [1, 2]], [[2, 1, 0], [1, 2, 1], [0, 1, 4]], [[-2]], "h2",
                                 "diag:2,-2", [[2, 1], [1, -3]], [[0, 2], [2, 1]], "diag:2,2,-2",
                                 "diag:2,-2,-2"])


def _degree_parities(poly):
    return set((poly.table.degrees % 2).tolist())


# Forms of every signature, irrational |A| among them, genus 1 and 2,
# integer combinations of basis_homopol(m, n, alpha) for P+ (alpha <= 3 in
# genus 1, <= 2 in genus 2) and, on an indefinite form, a basis polynomial
# of degree beta <= 1 for P-.  The paired series read their pair sum off
# this one parity (_summand).  Time budget: 10 s for the 40 examples (about
# 2 s on a 2-vCPU host).
@settings(derandomize=True, deadline=None, max_examples=40)
@given(form=_PARITY_FORMS, n=st.integers(1, 2), alpha=st.integers(0, 3), beta=st.integers(0, 1),
       weights=st.lists(st.integers(-3, 3), min_size=4, max_size=4), y=st.floats(0.5, 2.0))
def test_every_coefficient_and_borcherds_polynomial_has_one_degree_parity(form, n, alpha, beta, weights, y):
    dec = decompose(named_form(form) if isinstance(form, str) else form)
    m = dec.m
    alpha = min(alpha, 4 - n)
    P_plus = P_minus = None
    if alpha:
        basis = basis_homopol(m, n, alpha)
        assume(basis)
        P_plus = MatPoly.zero(m, n)
        for w, b in zip(weights, basis):
            P_plus = P_plus + b * w
        if P_plus.is_zero():
            P_plus = basis[0]
    if beta and dec.s:
        basis = basis_homopol(m, n, beta)
        assume(basis)
        P_minus = basis[-1]
    try:
        spec = theta_spec(dec, P_plus=P_plus, P_minus=P_minus, n=n)
    except ValueError as exc:  # P+ or P- vanishes on an eigenspace
        assume("rounding noise" not in str(exc))
        raise
    assume(not spec.coeff.f.is_zero())
    degree = n * (spec.coeff.alpha + spec.coeff.beta)
    Y = np.array([[y, 0.1], [0.1, 1.3]])[:n, :n]
    for poly in (spec.coeff.compiled(), borcherds_poly(spec, Y)):
        assert _degree_parities(poly) == {degree % 2}, (degree, poly.table.degrees)


def test_a_coefficient_of_both_parities_pairs_with_its_value_at_minus_w():
    # 1 + 1e-12 U_00 passes the float tolerance of the irrational split of
    # [[2, 1], [1, -3]] as a hand-made Coefficient.  The paired sum takes
    # p(-W) from a second evaluation: with p(-W) = p(W) it loses the odd
    # part, 1.0e-13 here against a tolerance of 1.3e-14, and with p(-W) =
    # -p(W) the constant
    dec = decompose([[2, 1], [1, -3]])
    assert not dec.has_exact_split()
    f = MatPoly.one(2, 1) + MatPoly.variable(2, 1, 0, 0) * 1e-12
    coeff = Coefficient(f, f, 0, 0, dec.s)
    spec = ThetaSpec(dec, coeff, [[0], [0]], [[0], [Fraction(1, 3)]])
    assert _degree_parities(coeff.compiled()) == {0, 1}
    Z = SiegelPoint(np.array([[0.1 + 0.2j]]))
    val = theta_eval_direct(spec, Z, eps=1e-15)
    ref, terms, gross = unpaired_series(spec, Z, val.radius2)
    assert val.terms == terms
    assert abs(val.gross - gross) <= 1e-12 * gross
    tol = val.tail_bound + PAIRING_ROUNDING * np.finfo(float).eps * gross
    assert abs(val.value - ref) <= tol, (val, ref)


def test_pairing_follows_the_center(monkeypatch):
    # 2H integral pairs, and so does the dual center A H for A = diag(2, 4)
    # and H = 1/4; K = 1/3 in the dual center does not
    halves = []

    def record(G, center, R2, point_cap=None, block_size=8192, half=False, phase=None, chol=None):
        halves.append(half)
        return lattice_blocks(G, center, R2, point_cap, block_size, half, phase, chol)

    monkeypatch.setattr(theta, "lattice_blocks", record)
    quarter = [[Fraction(1, 4)], [Fraction(1, 4)]]
    spec = theta_spec("diag:2,4", H=quarter, K=[[Fraction(1, 3)], [0]])
    theta_eval(spec, Z_I)
    theta.dual_theta_eval(spec, Z_I)
    theta.dual_theta_eval(spec.with_characteristics(H=spec.K, K=spec.H), Z_I)
    assert halves == [False, True, False]


TAIL_ROUNDING = 64  # two certified sums differ by their tails plus 64 eps gross

_TAIL_FORMS = st.sampled_from([[[2]], [[-2]], [[2, 1], [1, 2]], [[-2, 1], [1, -2]], "h2",
                               [[2, 1], [1, -3]], [[2, 1, 0], [1, 2, 1], [0, 1, 4]],
                               "diag:2,2,-2", "diag:2,-2,-2", "diag:-2,-2,-2", "e8"])


def _generated_series(form, n, alpha, weights, halves, ks, x, y):
    """(spec, Z) from the draws of a generated-series test.

    P is 1 or an integer combination of basis_homopol(m, n, alpha) (alpha
    at most 3 - n for e8), H is 1/2 where halves says so and K reads ks,
    the six draws repeated over the m n entries; Y is about I, 2n I for e8.
    """
    m = len(named_form(form)) if isinstance(form, str) else len(form)
    if m == 8:  # basis_homopol(8, 2, 2) alone takes seconds
        alpha = min(alpha, 3 - n)
    P = MatPoly.one(m, n)
    if alpha:
        basis = basis_homopol(m, n, alpha)
        assume(basis)
        P = MatPoly.zero(m, n)
        for w, b in zip(weights, basis):
            P = P + b * w
        if P.is_zero():
            P = basis[0]
    # e8 has 8 or 16 entries: the six draws repeat
    H = [[Fraction(1, 2) if halves[(a * n + j) % 6] else Fraction(0) for j in range(n)]
         for a in range(m)]
    K = [[ks[(a * n + j) % 6] for j in range(n)] for a in range(m)]
    try:
        spec = theta_spec(form, P_plus=P, H=H, K=K, n=n)
    except ValueError as exc:
        # P+ may vanish on the positive eigenspace: a float split leaves
        # rounding noise there, which build_coeff refuses
        assume("rounding noise" not in str(exc))
        raise
    assume(not spec.coeff.f.is_zero())  # as an exact split leaves it
    # e8 at Im Z = 2n y keeps the finer sum below 50,000 terms
    Y = np.array([[y, 0.1], [0.1, 1.1]])[:n, :n] * (2.0 * n if m == 8 else 1.0)
    return spec, SiegelPoint(np.array([[x, 0.1], [0.1, -x]])[:n, :n] + 1j * Y)


# Forms with m <= 3 of every signature and e8, genus 1 and 2, H in {0, 1/2},
# rational K, a constant or an integer combination of basis_homopol(m, n,
# alpha) with alpha <= 2, plain and Borcherds series.  Time budget: 10 s for
# all 40 examples (about 1 s on a 2-vCPU host).
@settings(derandomize=True, deadline=None, max_examples=40)
@given(form=_TAIL_FORMS, n=st.integers(1, 2), alpha=st.integers(0, 2),
       weights=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       halves=st.lists(st.booleans(), min_size=6, max_size=6),
       ks=st.lists(_SMALL_RATIONAL, min_size=6, max_size=6),
       x=st.floats(-0.5, 0.5), y=st.floats(0.8, 1.4), eps=st.sampled_from([1e-4, 1e-6, 1e-8]))
def test_tail_bound_honesty_on_generated_series(form, n, alpha, weights, halves, ks, x, y, eps):
    # the tail of the plan bounds what a finer sum adds: both the value moved
    # and the mass summed between R^2(eps) and R^2(eps 1e-4)
    spec, Z = _generated_series(form, n, alpha, weights, halves, ks, x, y)
    for evaluate in (theta_eval, theta_eval_borcherds):
        coarse = evaluate(spec, Z, eps=eps)
        fine = evaluate(spec, Z, eps=eps * 1e-4)
        assert coarse.tail_bound <= eps and fine.tail_bound <= eps * 1e-4
        assert fine.radius2 >= coarse.radius2
        rounding = TAIL_ROUNDING * np.finfo(float).eps * fine.gross
        assert fine.gross - coarse.gross <= coarse.tail_bound + rounding
        assert abs(coarse.value - fine.value) <= coarse.tail_bound + fine.tail_bound + rounding


SHARED_ROUNDING = 64  # a side below the walk's R^2 is within 64 eps gross of its own sum


# The inputs of the tail honesty test, each summed as a pair of sides over one
# enumeration (theta_eval_shared): the translation pair, at Z + S with K and
# at Z with the law's shifted K, for a symmetric integer S, or the plain and
# Borcherds series at Z.  Each side has the terms, tail, R^2, rho and
# polynomial rows of its own sum (_sum_series); the side at the larger R^2
# has its bits, the other its value and gross within 64 eps gross.  Time
# budget: 10 s for all 40 examples (about 1.3 s on a 2-vCPU host).
@settings(derandomize=True, deadline=None, max_examples=40)
@given(form=_TAIL_FORMS, n=st.integers(1, 2), alpha=st.integers(0, 2),
       weights=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       halves=st.lists(st.booleans(), min_size=6, max_size=6),
       ks=st.lists(_SMALL_RATIONAL, min_size=6, max_size=6),
       x=st.floats(-0.5, 0.5), y=st.floats(0.8, 1.4), eps=st.sampled_from([1e-4, 1e-6, 1e-8]),
       translation=st.booleans(), s=st.lists(st.integers(-2, 2), min_size=3, max_size=3))
def test_a_shared_walk_sums_each_side_as_its_own_sum(form, n, alpha, weights, halves, ks, x, y,
                                                     eps, translation, s):
    spec, Z = _generated_series(form, n, alpha, weights, halves, ks, x, y)
    if translation:
        S = np.array([[s[0], s[1]], [s[1], s[2]]])[:n, :n]
        Ktil = translation_data(spec, S)[1]
        sides = [(spec, Z.translate(S), False), (spec.with_characteristics(K=Ktil), Z, False)]
    else:
        sides = [(spec, Z, False), (spec, Z, True)]
    rows = []

    def counting(p, W):
        rows.append(W.shape[0])
        return eval_batch(p, W)

    with mock.patch.object(theta, "eval_batch", counting):
        shared = theta.theta_eval_shared(sides, eps)
        shared_rows = sum(rows)
        rows.clear()
        alone = [theta._sum_series(theta._series_plan(sp, W, eps, b), None) for sp, W, b in sides]
    assert shared_rows == sum(rows)
    top = max(val.radius2 for val in alone)
    for got, want in zip(shared, alone):
        assert (got.terms, got.tail_bound, got.radius2, got.rho) == \
            (want.terms, want.tail_bound, want.radius2, want.rho)
        if want.radius2 == top:
            assert (got.value, got.gross) == (want.value, want.gross)
        else:
            rounding = SHARED_ROUNDING * np.finfo(float).eps * want.gross
            assert abs(got.value - want.value) <= rounding
            assert abs(got.gross - want.gross) <= rounding


# A translation pair planned at two eps: two phase forms (the sides' X differ
# by S) at two R^2, so one form has no plan at the walk's R^2.  Summed by
# certified_lattice_sum directly, each plan keeps the rows within its own
# R^2 and gets e(tau) of its own form, and equals its own _sum_series.  Paired
# (H = 1/2) and unpaired (H = 1/3), with constant and linear coefficients.
@pytest.mark.parametrize("form, P, H, K, n", [
    ("diag:2,-2", MatPoly.variable(2, 1, 0, 0), [[Fraction(1, 2)], [0]], [[Fraction(1, 3)], [0]], 1),
    ("diag:2,-2", MatPoly.variable(2, 1, 0, 0), [[Fraction(1, 3)], [0]], [[0], [Fraction(1, 5)]], 1),
    ("h2", None, [[Fraction(1, 2), 0], [0, 0]], [[0, 0], [Fraction(1, 3), 0]], 2),
    ("diag:2,2", None, [[Fraction(1, 3), 0], [0, 0]], [[0, 0], [Fraction(2, 3), 0]], 2),
])
def test_plans_at_two_radii_with_two_forms_each_keep_their_own_sum(form, P, H, K, n):
    spec = theta_spec(form, P_plus=P, H=H, K=K, n=n)
    Z = SiegelPoint(np.array([[0.2 + 0.9j, 0.1 + 0.1j], [0.1 + 0.1j, -0.3 + 1.1j]])[:n, :n])
    S = np.array([[1, -1], [-1, 2]])[:n, :n]
    Ktil = translation_data(spec, S)[1]
    plans = [theta._series_plan(spec, Z.translate(S), 1e-6),
             theta._series_plan(spec.with_characteristics(K=Ktil), Z, 1e-11)]
    assert plans[0].R2 < plans[1].R2 and not np.array_equal(plans[0].B, plans[1].B)
    summands = [theta._summand(plan) for plan in plans]
    sums, tail, terms = theta.certified_lattice_sum(
        plans, plans[0].budget + plans[1].budget, lambda j, rows, eq: summands[j](rows, eq), 10**6)
    assert tail == math.fsum(plan.tail for plan in plans)
    assert terms == sums[0][1] + sums[1][1] and sums[0][1] < sums[1][1]
    for plan, (total, count, gross) in zip(plans, sums):
        want = theta._sum_series(plan, None)
        value = plan.pref * total if plan.unit == 1 else plan.pref * total * plan.unit
        assert count == want.terms
        if plan.R2 == plans[1].R2:
            assert (value, plan.pref * gross) == (want.value, want.gross)
        else:
            rounding = SHARED_ROUNDING * np.finfo(float).eps * want.gross
            assert abs(value - want.value) <= rounding
            assert abs(plan.pref * gross - want.gross) <= rounding


# ==== the phase and q carried through the enumeration =======================

CARRY_ROUNDING = 4  # |e(tau_carried) - term_phase| <= 4 (2 pi (N + 2) eps (1 + scale)) |term_phase|


def _ellipsoid_radius(G, points):
    """R^2 whose ellipsoid of Gram matrix G has about `points` lattice points."""
    N = G.shape[0]
    ball = math.pi ** (N / 2) / math.gamma(N / 2 + 1)
    return (points * math.sqrt(np.linalg.det(G)) / ball) ** (2 / N)


def _carried(G, c, R2, phase, frontier_rows, block_size):
    B, ell = phase
    with mock.patch.object(quadform, "_FRONTIER_ROWS", frontier_rows):
        blocks = list(lattice_blocks(G, c, R2, block_size=block_size, phase=(B[None], ell[None])))
    return tuple(np.concatenate(parts) for parts in zip(*((b.rows, b.q, b.tau[0]) for b in blocks)))


# Forms with m <= 3 of every signature, genus 1 and 2, the plain and the dual
# lattice, H in {0, 1/2} and rational K, each over an ellipsoid of about 60
# points.  The scale of a row is x^T |B| x / 2 + |ell|^T |x| with every
# factor in absolute value (B, ell and L as in _series_plan), the size of
# the largest product either computation of tau rounds; a sum of N(N + 3)/2
# such products is off by at most (N + 2) eps scale in each part, and e()
# turns an error delta in tau into a relative one of about 2 pi delta.  The
# worst case seen is 0.4 of the bound without the factor 4.  Time budget:
# 10 s for all 30 examples (about 1 s on a 2-vCPU host).
@settings(derandomize=True, deadline=None, max_examples=30)
@given(form=_PAIRING_FORMS, n=st.integers(1, 2), dual=st.booleans(),
       halves=st.lists(st.booleans(), min_size=6, max_size=6),
       ks=st.lists(_SMALL_RATIONAL, min_size=6, max_size=6),
       x=st.floats(-0.5, 0.5), y=st.floats(0.8, 1.4))
def test_carried_phase_and_q_match_the_per_term_values(form, n, dual, halves, ks, x, y):
    m = len(named_form(form)) if isinstance(form, str) else len(form)
    H = [[Fraction(1, 2) if halves[a * n + j] else Fraction(0) for j in range(n)] for a in range(m)]
    K = [[ks[a * n + j] for j in range(n)] for a in range(m)]
    spec = theta_spec(form, H=H, K=K, n=n)
    X = np.array([[x, 0.1], [0.1, -x]])[:n, :n]
    Z = SiegelPoint(X + 1j * np.array([[y, 0.1], [0.1, 1.1]])[:n, :n])
    plan = theta._series_plan(spec, Z, 1e-10, dual=dual)
    G, c, B, ell, L = plan.G, plan.c, plan.B, plan.ell, plan.L
    R2 = _ellipsoid_radius(G, 60)
    # bitwise the same however the frontier and the blocks are cut
    runs = [_carried(G, c, R2, (B, ell), f, b) for f, b in itertools.product((1, 3, 1024), (1, 8192))]
    rows, q, tau = runs[0]
    for other in runs[1:]:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(runs[0], other))
    assert rows.tobytes() == np.concatenate([b.rows for b in lattice_blocks(G, c, R2)]).tobytes()
    # q against the exact rational q(x) of the float Gram matrix
    N = G.shape[0]
    Gf = [[Fraction(float(v)) for v in row] for row in G]
    slack = 1e-9 * (1.0 + R2)
    for row, qk in zip(rows, q):
        xf = [Fraction(float(ci)) + int(v) for ci, v in zip(c, row)]
        exact = sum(Gf[i][j] * xf[i] * xf[j] for i in range(N) for j in range(N))
        assert abs(Fraction(float(qk)) - exact) <= slack
    # tau against term_phase at U = L (V + c)
    xs = rows + c
    U = xs.reshape(-1, n, m).transpose(0, 2, 1)
    absL = np.eye(m)
    if L is not None:
        U = np.einsum("ab,xbj->xaj", L, U)
        absL = np.abs(L)
    ref = theta.term_phase(spec, Z)(U)
    # the plan carries ell less its integer part, which turns every term by plan.unit
    got = np.exp(-2.0 * math.pi * tau.imag + 2j * math.pi * (tau.real - np.round(tau.real))) * plan.unit
    aminus = np.abs(spec.dec.aminus) if spec.dec.s else np.zeros((m, m))
    Babs = np.kron(np.abs(Z.Z), absL.T @ (np.abs(spec.A) + 2.0 * aminus) @ absL)
    ell_abs = (absL.T @ np.abs(spec.A) @ np.abs(spec.K_floats())).T.reshape(-1)
    ax = np.abs(xs)
    scale = 0.5 * np.einsum("ij,jk,ik->i", ax, Babs, ax) + ax @ ell_abs
    bound = CARRY_ROUNDING * 2.0 * math.pi * (N + 2) * np.finfo(float).eps * (1.0 + scale)
    assert np.all(np.abs(got - ref) <= bound * np.abs(ref))


# E4 at z = 0.3 + 0.6i (the float point) from its q-series at 40 digits.
E4_NEAR_CUSP = complex(-1.5706063592856028, 4.54369188628833)


def test_e8_near_the_cusp_is_accurate_to_rounding():
    # 1,113,841 terms at Im z = 0.6 and eps = 1e-12 (the five-value rho grid
    # took as many at 1e-10); the carried Im tau reads 1.1e-14 from E4, where
    # a magnitude exp(-pi q) from the Cholesky recurrence reads 1.2e-13
    z = complex(0.3, 0.6)
    with mpmath.workdps(40):
        qm = mpmath.exp(2j * mpmath.pi * mpmath.mpc(z.real, z.imag))
        e4 = 1 + 240 * mpmath.fsum(mpmath.fsum(d ** 3 for d in range(1, k + 1) if k % d == 0) * qm ** k
                                   for k in range(1, 40))
        assert abs(complex(e4) - E4_NEAR_CUSP) <= 1e-15
    val = theta_eval_direct(theta_spec("e8"), SiegelPoint(np.array([[z]])), eps=1e-12)
    assert val.terms == 1113841
    assert abs(val.value - E4_NEAR_CUSP) <= 3e-14


def test_e8_near_the_cusp_sums_the_dual_series():
    # |z|^8 = 0.04: theta_eval sums the dual series at -1/z = -2/3 + 4i/3
    # (26,641 terms against 1,113,841 direct) and lands within its
    # transported tail, plus rounding, of E4
    val = theta_eval(theta_spec("e8"), SiegelPoint(np.array([[0.3 + 0.6j]])), eps=1e-12)
    assert val.terms == 26641
    assert val.tail_bound <= 1e-12
    assert abs(val.value - E4_NEAR_CUSP) <= val.tail_bound + 64 * np.finfo(float).eps * val.gross


def test_e8_deep_in_the_cusp_evaluates_through_the_inversion_law():
    # Im z = 0.05: the direct ellipsoid holds about 3e10 points and once ran
    # into the point cap after 32-76 s; -1/z = -8 + 4i needs 241 terms
    z = complex(0.1, 0.05)
    start = time.perf_counter()
    val = theta_eval(theta_spec("e8"), SiegelPoint(np.array([[z]])))
    assert time.perf_counter() - start < 1.0
    assert val.terms == 241 and val.tail_bound <= 1e-10
    # E4 from its q-series at 40 digits: |q| = 0.73, and 300 terms leave
    # 240 sigma_3(300) |q|^300 = 9e-32
    kmax = 300
    sigma3 = [0] * (kmax + 1)
    for d in range(1, kmax + 1):
        for k in range(d, kmax + 1, d):
            sigma3[k] += d ** 3
    with mpmath.workdps(40):
        qm = mpmath.exp(2j * mpmath.pi * mpmath.mpc(z.real, z.imag))
        e4 = complex(1 + 240 * mpmath.fsum(sigma3[k] * qm ** k for k in range(1, kmax + 1)))
    assert abs(val.value - e4) <= val.tail_bound  # 1.7e-11 on a 2-vCPU host


def test_predicted_rows_band():
    # predicted / enumerated rows on the frozen grid ellipsoids (at their
    # recorded R^2) read 0.51-1.69, the thin h2+e8 and e8/g2 ones at the ends;
    # the dual sums of the cusp points read 1.46 (13,321 rows) and 1.67 (121)
    from test_quadform import GRID_ELLIPSOIDS

    ratios = []
    for _, form, _, _, Y, _, R2, points, _ in GRID_ELLIPSOIDS:
        G = np.kron(np.array(Y), decompose(named_form(form)).M)
        ratios.append(theta.predicted_rows(G, R2) / points)
    spec = theta_spec("e8")
    for z, eps in ((0.3 + 0.6j, 1e-12), (0.1 + 0.05j, 1e-10)):
        Z = SiegelPoint(np.array([[z]]))
        plan, _ = theta._inversion(spec, Z, eps)
        G = plan.G
        val = theta_eval(spec, Z, eps)
        # a paired sum with the origin: one row for it and one per pair
        ratios.append(plan.rows / ((val.terms + 1) // 2))
    assert 0.5 <= min(ratios) and max(ratios) <= 1.7, ratios
    assert theta.predicted_rows(G, 0.0) == 0.0
    assert theta.predicted_rows(G, 4.0, paired=True) == theta.predicted_rows(G, 4.0) / 2


def test_each_side_is_planned_once(monkeypatch):
    # theta_eval plans the direct series and, past the screen, the dual one,
    # each with one _tail_plan, and sums the chosen plan as it is
    calls = []
    tail_plan = theta._tail_plan
    monkeypatch.setattr(theta, "_tail_plan", lambda *args: calls.append(args) or tail_plan(*args))
    spec = theta_spec("e8")
    # inverted, inverted, planned but direct, and screened out (|z|^8 > 1)
    for z, sides, inverted in ((0.3 + 0.6j, 2, True), (0.1 + 0.05j, 2, True),
                               (0.05 + 0.95j, 2, False), (0.3 + 1.1j, 1, False)):
        Z = SiegelPoint(np.array([[z]]))
        assert (theta._inversion(spec, Z, 1e-10)[1] is not None) == inverted
        calls.clear()
        theta_eval(spec, Z)
        assert len(calls) == sides, z


def test_a_plan_factorises_its_gram_matrix_once(monkeypatch):
    # the plan keeps its Cholesky factor and hands it to the enumeration,
    # which no longer factorises G again; a shared walk takes one plan's
    spec = theta_spec("diag:2,-2", n=2, H=[[Fraction(1, 2)] * 2, [0, 0]])
    Z = SiegelPoint(np.array([[0.2 + 1.1j, 0.1], [0.1, -0.3 + 0.9j]]))
    shapes = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(np.shape(a)) or cholesky(a))
    theta_eval_direct(spec, Z)
    assert shapes == [(4, 4)]
    shapes.clear()
    assert check_borcherds_form(spec, Z).passed
    assert shapes == [(4, 4)] * 2
    shapes.clear()
    list(lattice_blocks(np.eye(2), [0.0, 0.0], 4.0))
    assert shapes == [(2, 2)]


# (form, genus, beta): every signature, genus 1-3, with a P- of degree beta
# in every column where s >= n; P+ has degree alpha where r >= n.
_FACTOR_FORMS = st.sampled_from([
    ([[2, 1], [1, 2]], 1, 0), ([[2, 1], [1, 2]], 2, 0), ([[2, 1, 0], [1, 2, 1], [0, 1, 4]], 3, 0),
    ("diag:2,-2", 1, 1), ("h2", 1, 2), ("diag:2,-2,-2", 2, 1), ("diag:2,2,-2", 2, 0),
    ("diag:2,-2,-2,-2", 3, 1), ([[-2, 1], [1, -2]], 2, 1), ("diag:-2,-2,-2", 3, 1), ([[-3]], 1, 2)])


# The plain series evaluates f at W = U Yfac, Yfac the lower-triangular
# factor of Y read off the plan's Cholesky factor, where the series is
# defined with U Y^(1/2): f(U O) = f(U) for O in SO(n), since P+- are
# det-homogeneous in the columns.  Generated P+- (odd alpha, P- nonconstant
# where s >= n) on every signature in genus 1-3, direct and dual lattice,
# at a Y whose square root is not triangular: both evaluations agree within
# 64 ulps of the absolute evaluation, which sums |c_t| |U| |B| per term.
# Time budget: 10 s for all 30 examples (about 2 s on a 2-vCPU host).
@settings(derandomize=True, deadline=None, max_examples=30)
@given(form_n_beta=_FACTOR_FORMS, alpha=st.integers(0, 1), dual=st.booleans(),
       weights=st.lists(st.integers(-3, 3), min_size=8, max_size=8),
       y=st.tuples(st.floats(0.6, 1.6), st.floats(-0.3, 0.3), st.floats(0.6, 1.6),
                   st.floats(-0.3, 0.3), st.floats(0.6, 1.6)),
       seed=st.integers(0, 2**16))
def test_triangular_factor_of_y_evaluates_the_coefficient_as_the_square_root(
        form_n_beta, alpha, dual, weights, y, seed):
    form, n, beta = form_n_beta
    dec = decompose(named_form(form) if isinstance(form, str) else form)
    m = dec.m

    def combination(degree):
        basis = basis_homopol(m, n, degree)
        P = sum((b * w for w, b in zip(weights, basis)), MatPoly.zero(m, n))
        return basis[0] if P.is_zero() else P

    P_plus = combination(alpha) if alpha and dec.r >= n else None
    P_minus = combination(beta) if beta else None
    try:
        spec = theta_spec(dec, P_plus=P_plus, P_minus=P_minus, n=n)
    except ValueError as exc:
        assume("rounding noise" not in str(exc))
        raise
    assume(spec.coeff.f.degree() > 0)
    L = np.eye(3)
    L[1, 0], L[2, 0], L[2, 1] = y[1], y[3], -y[3]
    Y = (L @ np.diag([y[0], y[2], y[4]]) @ L.T)[:n, :n]
    Z = SiegelPoint(0.1 * np.eye(n) + 1j * Y)
    plan = theta._series_plan(spec, Z, 1e-8, dual=dual)
    B = plan.Yfac
    assert np.array_equal(B, np.tril(B))
    assert np.allclose(B @ B.T, Y, rtol=0, atol=1e-14)
    rng = np.random.default_rng(seed)
    rows = rng.integers(-3, 4, size=(20, m * n))
    U = (rows + plan.c).reshape(-1, n, m).transpose(0, 2, 1)
    if plan.L is not None:
        U = np.einsum("ab,xbj->xaj", plan.L, U)
    f = plan.poly
    gross = polyalg.CompiledPoly(m, n, f.table, np.abs(f.coef))
    values, scale = [], 0.0
    for factor in (B, sqrt_posdef(Y)):
        values.append(eval_batch(f, U @ factor))
        scale = np.maximum(scale, eval_batch(gross, np.abs(U) @ np.abs(factor)).real)
    assert np.all(np.abs(values[0] - values[1]) <= 64 * np.finfo(float).eps * scale)


def test_a_determinant_beyond_the_float_range_sums_directly():
    # |det A| = 10^320: the screen takes the logarithm of the exact integer,
    # so theta_eval sums directly, as theta_eval_direct does: the origin alone
    spec = theta_spec("diag:" + ",".join(["10000000000000000"] * 20))
    Z = SiegelPoint(np.array([[1j]]))
    for val in (theta_eval(spec, Z), theta_eval_direct(spec, Z)):
        assert val.terms == 1 and abs(val.value - 1.0) <= val.tail_bound <= 1e-10


# Definite forms: m <= 3 in genus 1 and 2, and e8 in genus 1, whose direct
# sums stay below about 1e6 terms.  Z = s (X + i Y0), X in [-1/2, 1/2] and
# Y0 = [[1, t], [t, 1]], with s in a band per (m, n) that makes |det Z|
# small, so that theta_eval sums the dual series at -Z^-1 in most examples
# (41 of 42 on a 2-vCPU host).
_INVERTING_FORMS = st.sampled_from([[[2]], [[4]], [[2, 1], [1, 2]], [[2, 1], [1, 4]],
                                    [[2, 1, 0], [1, 2, 1], [0, 1, 4]], "e8"])
_INVERTING_SCALE = {(1, 1): (0.05, 0.3), (2, 1): (0.1, 0.4), (3, 1): (0.1, 0.35), (8, 1): (0.55, 0.7),
                    (1, 2): (0.05, 0.3), (2, 2): (0.1, 0.3), (3, 2): (0.15, 0.35)}


def test_inverted_theta_eval_matches_the_direct_series():
    # H in {0, 1/2}, rational K, P = 1 or an integer combination of
    # basis_homopol(m, n, alpha) with alpha <= 2.  Budget: 10 s for the 40
    # generated and 2 explicit e8 examples (about 3 s on a 2-vCPU host).
    inverted = []

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(form=_INVERTING_FORMS, n=st.integers(1, 2), alpha=st.integers(0, 2),
           weights=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
           halves=st.lists(st.booleans(), min_size=6, max_size=6),
           ks=st.lists(_SMALL_RATIONAL, min_size=6, max_size=6),
           x=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
           y=st.floats(0.0, 1.0), t=st.floats(-0.2, 0.2))
    @example(form="e8", n=1, alpha=0, weights=[0] * 4, halves=[False] * 6, ks=[Fraction(0)] * 6,
             x=[0.3, 0.0, 0.0], y=0.0, t=0.0)
    @example(form="e8", n=1, alpha=2, weights=[1, -2, 0, 0], halves=[True] * 6,
             ks=[Fraction(1, 3)] * 6, x=[-0.45, 0.0, 0.0], y=0.5, t=0.0)
    def check(form, n, alpha, weights, halves, ks, x, y, t):
        m = len(named_form(form)) if isinstance(form, str) else len(form)
        n = 1 if m == 8 else n
        P = None
        basis = basis_homopol(m, n, alpha) if alpha else []
        if basis:
            P = MatPoly.zero(m, n)
            for w, b in zip(weights, basis):
                P = P + b * w
            if P.is_zero():
                P = basis[0]
        H = [[Fraction(1, 2) if halves[(a * n + j) % 6] else Fraction(0) for j in range(n)]
             for a in range(m)]
        K = [[ks[(a * n + j) % 6] for j in range(n)] for a in range(m)]
        spec = theta_spec(form, P_plus=P, H=H, K=K, n=n)
        lo, hi = _INVERTING_SCALE[(m, n)]
        X = np.array([[x[0], x[1]], [x[1], x[2]]])[:n, :n]
        Z = SiegelPoint((lo + (hi - lo) * y) * (X + 1j * np.array([[1.0, t], [t, 1.0]])[:n, :n]))
        eps = 1e-9
        inverted.append(theta._inversion(spec, Z, eps)[1] is not None)
        val = theta_eval(spec, Z, eps)
        ref = theta_eval_direct(spec, Z, eps)
        assert val.tail_bound <= eps
        tol = val.tail_bound + ref.tail_bound + 64 * 2.0**-52 * (val.gross + ref.gross)
        assert abs(val.value - ref.value) <= tol, (val, ref)

    check()
    assert sum(inverted) > len(inverted) / 2, inverted


# Indefinite forms with m <= 3, among them the irrational split of
# [[2, 1], [1, -3]], in genus 1 at Im z in [0.1, 0.4]: theta_eval takes the
# inversion route whenever the plans predict it cheaper, as for a definite
# form, and lands within both tails of the direct sum.
_INDEFINITE_FORMS = st.sampled_from([[[-2]], "h2", "diag:2,-2", [[2, 1], [1, -3]], [[-2, 1], [1, -2]],
                                     "diag:2,2,-2", "diag:2,-2,-2"])


def test_inverted_theta_eval_matches_the_direct_series_on_indefinite_forms():
    # P in {1, x_11} as P+ or P-, H in {0, 1/2}, K in {0, 1/3}.  Budget: 10 s
    # for the 40 examples (about 1 s on a 2-vCPU host).
    inverted = []

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(form=_INDEFINITE_FORMS, poly=st.sampled_from(["one", "plus", "minus"]),
           half=st.booleans(), third=st.booleans(), x=st.floats(-0.5, 0.5), y=st.floats(0.1, 0.4))
    def check(form, poly, half, third, x, y):
        dec = decompose(named_form(form) if isinstance(form, str) else form)
        m = dec.m
        x11 = MatPoly.variable(m, 1, 0, 0)
        spec = theta_spec(dec, P_plus=x11 if poly == "plus" else None,
                          P_minus=x11 if poly == "minus" else None,
                          H=[[Fraction(1, 2) if half and a == 0 else 0] for a in range(m)],
                          K=[[Fraction(1, 3) if third and a == m - 1 else 0] for a in range(m)])
        assume(not spec.coeff.f.is_zero())  # x_11 vanishes on an eigenspace of a diagonal form
        Z = SiegelPoint(np.array([[complex(x, y)]]))
        eps = 1e-10
        inverted.append(theta._inversion(spec, Z, eps)[1] is not None)
        val = theta_eval(spec, Z, eps)
        ref = theta_eval_direct(spec, Z, eps)
        assert val.tail_bound <= eps
        tol = val.tail_bound + ref.tail_bound + 1e-13 * (val.gross + ref.gross)
        assert abs(val.value - ref.value) <= tol, (val, ref)

    check()
    assert any(inverted) and not all(inverted), inverted


def test_indefinite_h2_e8_in_the_cusp_evaluates_through_the_inversion_law():
    # 1.4e10 direct rows predicted, which ran into the point cap; -1/z needs
    # 249 terms.  h2+e8 is block diagonal: its series is the h2 series, a box
    # sum of sqrt(y) e(x a b) exp(-pi y (a^2 + b^2)), times E4
    z = complex(0.1, 0.15)
    start = time.perf_counter()
    val = theta_eval(theta_spec("h2+e8"), SiegelPoint(np.array([[z]])))
    assert time.perf_counter() - start < 1.0
    assert val.terms == 249 and val.tail_bound <= 1e-10
    # |q| = 0.39 and exp(-pi y 40^2) = 2e-328: both truncations are below 1e-30
    kmax = 150
    sigma3 = [0] * (kmax + 1)
    for d in range(1, kmax + 1):
        for k in range(d, kmax + 1, d):
            sigma3[k] += d ** 3
    with mpmath.workdps(40):
        xm, ym = mpmath.mpf(z.real), mpmath.mpf(z.imag)
        qm = mpmath.exp(2j * mpmath.pi * mpmath.mpc(xm, ym))
        e4 = 1 + 240 * mpmath.fsum(sigma3[k] * qm ** k for k in range(1, kmax + 1))
        h2 = mpmath.sqrt(ym) * mpmath.fsum(mpmath.exp(2j * mpmath.pi * xm * a * b - mpmath.pi * ym * (a * a + b * b))
                                           for a in range(-40, 41) for b in range(-40, 41))
        ref = complex(h2 * e4)
    assert abs(val.value - ref) <= val.tail_bound  # 3.2e-12 on a 2-vCPU host


# The integer part of a characteristic never enters a float: H + D leaves
# the set of U as it is, and K + D turns every term by e(tr(D^T A U)) =
# e(tr(D^T A H)), D integral.  Each case sums through the route it names.
# A direct sum keeps its bits.  Through the inversion law the exact phase
# e(tr(H^T A K)) of the law factor turns too: bitwise for H + D when K = 0,
# within a few ulps of gross otherwise.
_BIG = 10**20


@pytest.mark.parametrize("form, H, K, z, route", [
    ("diag:2", [[Fraction(1, 2)]], [[Fraction(1, 3)]], 0.2 + 1.1j, "direct"),
    ("diag:2", [[Fraction(1, 4)]], [[Fraction(1, 3)]], 0.2 + 1.1j, "direct"),
    ("h2", [[Fraction(1, 2)], [0]], [[0], [Fraction(1, 3)]], 0.2 + 1.1j, "direct"),
    ("e8", [[Fraction(1, 2)]] + [[0]] * 7, [[0]] * 8, 0.3 + 0.2j, "inverted"),
    ("e8", [[Fraction(1, 3)]] + [[0]] * 7, [[0]] * 7 + [[Fraction(1, 3)]], 0.3 + 0.6j, "inverted"),
    ("h2+e8", [[Fraction(1, 2)]] + [[0]] * 9, [[0]] * 10, 0.1 + 0.15j, "inverted"),
], ids=lambda v: str(v) if isinstance(v, str) else None)
def test_characteristics_with_a_large_integer_part(form, H, K, z, route):
    spec = theta_spec(form, H=H, K=K)
    Z = SiegelPoint(np.array([[z]]))
    assert (theta._inversion(spec, Z, 1e-10)[1] is not None) == (route == "inverted")
    want = theta_eval(spec, Z)
    A = named_form(form)
    turn = sum(_BIG * int(A[a][b]) * H[b][0] for a in range(len(A)) for b in range(len(A)))
    moved_H = theta_eval(spec.with_characteristics(H=[[h + _BIG for h in row] for row in H]), Z)
    moved_K = theta_eval(spec.with_characteristics(K=[[k + _BIG for k in row] for row in K]), Z)
    for got, phase, exact in ((moved_H, 1.0, route == "direct" or not any(k for (k,) in K)),
                              (moved_K, theta.e_of_fraction(turn), route == "direct")):
        assert (got.tail_bound, got.terms, got.gross) == (want.tail_bound, want.terms, want.gross)
        if exact:
            assert got.value == phase * want.value
        else:
            assert abs(got.value - phase * want.value) <= 8 * 2.0**-52 * want.gross


def test_genus_two_even_unimodular_at_scaled_identity():
    spec = theta_spec("e8", n=2)
    Z = SiegelPoint(3j * np.eye(2))
    val = theta_eval(spec, Z, eps=1e-10)
    # both paths agree and the value is close to 1 (the constant term wins)
    alt = theta_eval_borcherds(spec, Z, eps=1e-10)
    assert val.value == pytest.approx(alt.value, rel=1e-10)
    assert val.value.real == pytest.approx(1.0, abs=1e-2)


def test_point_cap_raises():
    with pytest.raises(ResourceCapError):
        theta_eval(theta_spec([[2]]), Z_I, eps=1e-12, point_cap=2)


@pytest.mark.parametrize("y", [1e-40, 1e-100, 1e-20])
def test_degenerate_point_fails_fast_instead_of_a_bogus_certificate(y):
    # the interval bounds at 1e-40j and 1e-100j do not fit in int64 (the
    # cast once gave 0.948 with terms=1, against a true value near 7e19);
    # at 1e-20j one interval alone holds about 5.6e10 points
    spec, Z = theta_spec("diag:2"), SiegelPoint([[y * 1j]])
    with pytest.raises(ResourceCapError):
        theta_eval_direct(spec, Z, point_cap=10**6)
    # theta_eval sums the dual series at i / y instead, whose tail beyond the
    # origin is exp(-pi / (2 y)): the value is (2 y)^(-1/2) to rounding
    val = theta_eval(spec, Z, point_cap=10**6)
    assert val.terms == 1 and val.tail_bound <= 1e-10
    want = (2.0 * y) ** -0.5
    assert abs(val.value - want) <= val.tail_bound + 64 * np.finfo(float).eps * val.gross


@pytest.mark.parametrize("y", [1e200, 1e-200])
def test_prefactor_outside_the_float_range_is_a_value_error(y):
    # det(Y) overflows (underflows), so det(Y)^(-lam/2) is 0.0 (inf), lam = 1
    spec = theta_spec("diag:2,2", P_plus=basis_homopol(2, 2, 1)[0], n=2)
    with pytest.raises(ValueError, match="prefactor"):
        theta_eval(spec, SiegelPoint(y * 1j * np.eye(2)))


def test_env_point_cap(monkeypatch):
    monkeypatch.setenv("THETA_MAX_POINTS", "2")
    with pytest.raises(ResourceCapError):
        theta_eval(theta_spec([[2]]), Z_I, eps=1e-12)


@pytest.mark.parametrize("eps", [0.0, -1e-10, float("nan"), float("inf")])
def test_eps_must_be_finite_and_positive(eps):
    spec = theta_spec([[2]])
    for evaluate in (theta_eval, theta_eval_borcherds):
        with pytest.raises(ValueError, match="eps"):
            evaluate(spec, Z_I, eps=eps)
    # at 0.1i theta_eval plans both sums before it picks one, and still refuses
    with pytest.raises(ValueError, match="eps"):
        theta_eval(spec, SiegelPoint([[0.1j]]), eps=eps)


def test_empty_characteristic_is_rejected():
    with pytest.raises(ValueError):
        theta_spec([[2]], H=[])


@pytest.mark.parametrize("entry", [float("inf"), float("-inf"), float("nan"), "1/0", "x", None],
                         ids=["inf", "-inf", "nan", "1/0", "x", "None"])
def test_a_characteristic_entry_that_is_no_finite_rational_is_named(entry):
    # inf raised a bare OverflowError and nan Fraction's own message
    with pytest.raises(ValueError, match=r"K\[1\]\[0\] = %s is not a finite rational" % re.escape(repr(entry))):
        theta_spec("h2", K=[[0], [entry]])
    with pytest.raises(ValueError, match=r"H\[0\]\[0\] = "):
        theta_spec([[2]], H=[[entry]])


def test_spec_validation_rejects_wrong_form():
    # coefficient built for 2u^2 fails the eigen equation for the form 4u^2
    dec2 = decompose(np.array([[2]], dtype=np.int64))
    P = MatPoly.variable(1, 1, 0, 0) * MatPoly.variable(1, 1, 0, 0)
    coeff = build_coeff(dec2, P)
    dec4 = decompose(np.array([[4]], dtype=np.int64))
    with pytest.raises(ValueError):
        ThetaSpec(dec4, coeff, [[0]], [[0]])


def test_an_underflowing_tail_budget_names_eps_and_the_prefactor():
    # eps / det(Y)^(-lam/2) = 1e-300 / 1e24 underflows to 0: the error used to
    # report "eps ... got 0.0", a budget the caller never passed
    spec = theta_spec("e8", P_plus=basis_homopol(8, 1, 2)[0])
    Z = SiegelPoint(np.array([[1e-24j]]))
    for evaluate in (theta_eval, theta_eval_direct):
        with pytest.raises(ValueError, match=r"^eps 1e-300 divided by the series prefactor 9\.9"):
            evaluate(spec, Z, eps=1e-300)


@pytest.mark.parametrize("eps", [1e-310, 5e-324])
def test_a_subnormal_eps_is_certified(eps):
    # lead / eps overflowed the float range: R^2 was inf, and the sum a
    # ResourceCapError "an enumeration bound of inf is beyond 2^52"
    spec = theta_spec("diag:2")
    Z = SiegelPoint(np.array([[0.1 + 1j]]))
    ref, val = theta_eval(spec, Z, eps=1e-300), theta_eval(spec, Z, eps=eps)
    assert val.tail_bound <= eps and math.isfinite(val.radius2)
    assert abs(val.value - ref.value) <= val.tail_bound + ref.tail_bound
    # the tail bounds the exact lead exp(-pi rho R^2), which lies in the
    # subnormals, where the rounded product keeps few digits
    rho, R2, tail = theta._tail_plan(1.0, 0, 1.0, [2.0], eps)
    assert math.isfinite(R2) and tail <= eps
    lead = mpmath.mpf(theta.theta1_majorant(math.pi * (1.0 - rho) * 2.0))
    assert lead * mpmath.exp(-mpmath.pi * mpmath.mpf(rho) * mpmath.mpf(R2)) <= tail


def test_plans_that_do_not_share_a_walk_are_refused():
    # certified_lattice_sum reads G, centre and pairing off the first plan
    spec = theta_spec("diag:2,-2", H=[[Fraction(1, 2)], [0]])
    Z = SiegelPoint(np.array([[0.1 + 1j]]))
    moved = spec.with_characteristics(H=[[Fraction(1, 3)], [0]])
    for other in ((spec, SiegelPoint(np.array([[0.1 + 1.2j]])), False), (moved, Z, False)):
        with pytest.raises(ValueError, match="must share G, centre and pairing"):
            theta.theta_eval_shared([(spec, Z, False), other])


def test_a_spec_plans_its_characteristic_algebra_once(monkeypatch):
    # the reduced centre, ell, unit and pairing depend on the spec alone:
    # built on its first plan, from one exact product, and kept
    calls = []
    times_form = theta._times_form
    monkeypatch.setattr(theta, "_times_form", lambda *args: calls.append(args) or times_form(*args))
    spec = theta_spec("diag:2,-2", H=[[Fraction(1, 2)], [0]], K=[[0], [Fraction(7, 3)]])
    Z = SiegelPoint(np.array([[0.1 + 1j]]))
    first = theta_eval(spec, Z)
    assert len(calls) == 1
    calls.clear()
    assert theta_eval(spec, Z).value == first.value
    assert calls == []
    moved = spec.with_characteristics(K=[[0], [Fraction(1, 5)]])
    assert theta_eval(moved, Z).value != first.value
    assert len(calls) == 1
    assert moved.route()[1].tolist() != spec.route()[1].tolist()
    assert spec.route(dual=True) is spec.route(dual=True) and len(calls) == 2


@pytest.mark.parametrize("scale", [Fraction(1, 10**170), Fraction(1, 10**200), Fraction(10**200)])
def test_coefficients_outside_the_squared_float_range_keep_their_value(scale):
    # |c|^2 underflows below about 1e-162 and overflows above 1e154: the tail
    # constant once read 0 there, summing a nonzero series as 0 with tail 0,
    # or inf, ending in a nan tail
    P = basis_homopol(8, 1, 2)[0]
    Z = SiegelPoint(np.array([[0.1 + 1.5j]]))
    ref = theta_eval(theta_spec("e8", P_plus=P), Z, eps=1e-8)
    got = theta_eval(theta_spec("e8", P_plus=P * scale), Z, eps=1e-8 * float(scale))
    want = ref.value * float(scale)
    assert got.value != 0 and 0 < got.tail_bound <= 1e-8 * float(scale)
    assert got.terms == ref.terms
    assert abs(got.value - want) <= got.tail_bound + float(scale) * (ref.tail_bound + 1e-12 * ref.gross)


@pytest.mark.parametrize("eps", [0.0, -1e-10, math.nan, math.inf])
@pytest.mark.parametrize("evaluate", [theta_eval, theta_eval_direct, theta_eval_borcherds,
                                      dual_theta_eval])
def test_entry_points_reject_an_eps_that_is_not_finite_and_positive(evaluate, eps):
    spec = theta_spec("diag:2,2", n=1)
    with pytest.raises(ValueError, match=r"^eps must be finite and positive, got %r$" % eps):
        evaluate(spec, SiegelPoint(np.array([[1j]])), eps=eps)


def test_an_underflowing_det_y_is_a_value_error_naming_it():
    # a weight of power 0 read 1 at det(Y) = 0, and the plans' tail came out
    # nan: "the plans' tail nan exceeds eps", naming neither det(Y) nor Z
    spec = theta_spec("diag:2,2", n=2)
    Z = SiegelPoint(1e-200j * np.eye(2))
    for call in (theta_eval_direct, check_borcherds_form):
        with pytest.raises(ValueError, match=r"^det\(Y\) = 0\.0 .*1e-200.*underflows"):
            call(spec, Z)


def test_coefficient_outside_the_float_range_is_a_value_error():
    # the irrational |A| validates within a float tolerance scaled by
    # coeff_norm, which raised a bare OverflowError at pi^100000
    huge = MatPoly.constant(2, 1, PiScalar.from_parts(1, 0, 100000))
    with pytest.raises(ValueError, match="float range"):
        theta_spec([[2, 1], [1, -3]], P_plus=huge)


def test_build_coeff_rejects_minus_poly_on_definite_form():
    dec = decompose(named_form("e8"))
    with pytest.raises(ValueError):
        build_coeff(dec, MatPoly.one(8, 1), MatPoly.variable(8, 1, 0, 0))


def test_build_coeff_requires_homogeneous_polynomials():
    bad = MatPoly.variable(2, 1, 0, 0) + MatPoly.one(2, 1)
    with pytest.raises(ValueError):
        build_coeff(decompose([[2, 0], [0, 2]]), bad)


def test_build_coeff_indefinite_lambda_bookkeeping():
    dec = decompose(named_form("h2"))
    g = build_coeff(dec, basis_homopol(2, 1, 2)[0], MatPoly.variable(2, 1, 0, 0))
    assert g.alpha == 2 and g.beta == 1
    assert g.lam == 2 - 1 - 1


@pytest.mark.parametrize("alpha", [1, 2])
def test_build_coeff_refuses_rounding_noise(alpha):
    # det(U)^alpha vanishes on the rank-1 positive eigenspace of [[0, 2], [2, 1]],
    # whose split is irrational: the float projectors left a coefficient of norm
    # 1e-33 (alpha = 2), on which check_inversion and check_poisson failed with
    # residuals 0.72 and 0.81 at Z = 1.1i I + 0.1
    dec = decompose([[0, 2], [2, 1]])
    assert not dec.has_exact_split()
    with pytest.raises(ValueError, match="rounding noise"):
        build_coeff(dec, basis_homopol(2, 2, alpha)[0])
    # a P+ that the projection keeps is built
    assert build_coeff(dec, MatPoly.variable(2, 1, 0, 0) ** alpha).source.coeff_norm() > 0.1


@pytest.mark.parametrize("form", ["e8", "h2", [[2, 1], [1, -3]]], ids=str)
def test_theta_spec_accepts_a_decomposition(form):
    A = named_form(form) if isinstance(form, str) else np.array(form)
    m = A.shape[0]
    P = MatPoly.variable(m, 1, 0, 0)
    H = [[Fraction(1, 2) if a == 0 else 0] for a in range(m)]
    K = [[Fraction(1, 3) if a == m - 1 else 0] for a in range(m)]
    dec = decompose(A)
    a, b = theta_spec(dec, P, H=H, K=K), theta_spec(A, P, H=H, K=K)
    assert a.dec is dec
    assert (a.coeff.f, a.coeff.source, a.lam) == (b.coeff.f, b.coeff.source, b.lam)
    assert (a.H, a.K) == (b.H, b.K)


@pytest.mark.parametrize("genus", [1, 2])
@pytest.mark.parametrize("form", ["diag:2,-2", "h2", "diag:2,2,-2"])
def test_indefinite_validation_needs_the_true_gaussian(form, genus):
    # the Gaussian exp(2 pi tr(U^T A- U)) lives in the form's A-: the exact
    # residual vanishes with it and with nothing else
    dec = decompose(named_form(form))
    m = dec.m
    if genus == 1:
        P_plus, P_minus = MatPoly.variable(m, 1, 0, 0), MatPoly.variable(m, 1, m - 1, 0)
    else:  # a rank-1 projection kills every minor, so P+ = P- = 1
        P_plus = P_minus = MatPoly.one(m, genus)
    coeff = build_coeff(dec, P_plus, P_minus)
    A = [[int(x) for x in row] for row in dec.A.tolist()]
    aminus = dec.fraction_matrix("aminus")
    assert not coeff.f.is_zero()
    assert vigneras_residual(coeff.f, A, coeff.lam, aminus).is_zero()
    assert not vigneras_residual(coeff.f, A, coeff.lam, [[-x for x in row] for row in aminus]).is_zero()
    assert not vigneras_residual(coeff.f, A, coeff.lam).is_zero()
    assert not vigneras_residual(coeff.f, A, coeff.lam + 1, aminus).is_zero()
    zero = [[0] * genus for _ in range(m)]
    ThetaSpec(dec, coeff, zero, zero)
    wrong = Coefficient(coeff.f, coeff.source, coeff.alpha + 1, coeff.beta, coeff.s)
    with pytest.raises(ValueError, match="eigenvalue equation"):
        ThetaSpec(dec, wrong, zero, zero)


@pytest.mark.parametrize("make", [
    lambda: _combination_spec(A3, 2, 4, seed=4),
    lambda: theta_spec("diag:2,-2,-2", P_minus=basis_homopol(3, 2, 1)[0], n=2),
], ids=["definite-alpha4", "exact-split-P-minus"])
def test_the_exact_validation_refuses_the_smallest_changes(make):
    # the full residual of f is tested for exact zero: 2^-60 in one
    # coefficient, f + 1 and a wrong alpha are each refused
    spec = make()
    coeff = spec.coeff
    assert coeff.f.degree() > 0 and spec.dec.has_exact_split()
    last = list(coeff.f.terms)[-1]
    nudge = MatPoly(coeff.f.m, coeff.f.n, {last: Fraction(1, 2**60)})
    ThetaSpec(spec.dec, Coefficient(coeff.f, coeff.source, coeff.alpha, coeff.beta, coeff.s), spec.H, spec.K)
    for f, alpha in ((coeff.f + nudge, coeff.alpha), (coeff.f + 1, coeff.alpha), (coeff.f, coeff.alpha + 1)):
        with pytest.raises(ValueError, match="eigenvalue equation"):
            ThetaSpec(spec.dec, Coefficient(f, coeff.source, alpha, coeff.beta, coeff.s), spec.H, spec.K)


def test_the_float_validation_refuses_f_plus_one():
    # |A| of [[2, 1], [1, -3]] is irrational: the residual is held to a float tolerance
    spec = theta_spec([[2, 1], [1, -3]], P_plus=MatPoly.variable(2, 1, 0, 0), n=1)
    coeff = spec.coeff
    assert not spec.dec.has_exact_split()
    with pytest.raises(ValueError, match="beyond float tolerance"):
        ThetaSpec(spec.dec, Coefficient(coeff.f + 1, coeff.source, coeff.alpha, coeff.beta, coeff.s),
                  spec.H, spec.K)


# ==== generated genus-1 diagonal forms against mpmath.jtheta ================


def _jacobi_product(diag, z):
    """prod_i sum_{u in h_i + Z} exp(pi i a_i u^2 tau_i + 2 pi i a_i k_i u), 30 digits.

    tau_i = z for a_i > 0 and conj(z) for a_i < 0; each factor is a Jacobi
    theta_3 after the shift u = h_i + j.
    """
    with mpmath.workdps(30):
        zc = mpmath.mpc(z.real, z.imag)
        val = mpmath.mpc(1)
        for a, h, k in diag:
            tau = zc if a > 0 else mpmath.conj(zc)
            h = mpmath.mpf(h.numerator) / h.denominator
            k = mpmath.mpf(k.numerator) / k.denominator
            val *= (mpmath.exp(1j * mpmath.pi * a * h * h * tau + 2j * mpmath.pi * a * k * h)
                    * mpmath.jtheta(3, mpmath.pi * a * (h * tau + k),
                                    mpmath.exp(1j * mpmath.pi * a * tau)))
        return complex(val)


_CHAR = st.integers(1, 6).flatmap(
    lambda q: st.builds(Fraction, st.integers(-q, q), st.just(q)))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(diag=st.lists(st.tuples(st.integers(1, 4).flatmap(lambda a: st.sampled_from([a, -a])),
                               _CHAR, _CHAR), min_size=1, max_size=3),
       x=st.floats(-0.5, 0.5), y=st.floats(0.5, 2.0))
def test_diagonal_forms_match_jacobi_theta_products(diag, x, y):
    spec = theta_spec(np.diag([a for a, _, _ in diag]),
                      H=[[h] for _, h, _ in diag], K=[[k] for _, _, k in diag])
    s = sum(a < 0 for a, _, _ in diag)
    Z = SiegelPoint(np.array([[complex(x, y)]]))
    oracle = _jacobi_product(diag, complex(x, y))
    # theta_eval = det(Y)^(s/2 + beta) theta_eval_borcherds, with beta = 0 here
    for val, want in ((theta_eval(spec, Z, eps=1e-10), y ** (s / 2) * oracle),
                      (theta_eval_borcherds(spec, Z, eps=1e-10), oracle)):
        assert abs(val.value - want) <= val.tail_bound + 1e-12 * val.gross
