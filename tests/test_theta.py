"""Theta evaluation against independent direct-sum oracles and closed forms."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from siegeltheta.errors import ResourceCapError
from siegeltheta.polyalg import MatPoly, basis_homopol
import siegeltheta.theta as theta
from siegeltheta.quadform import decompose, lattice_blocks, named_form
from siegeltheta.siegel import SiegelPoint
from siegeltheta.theta import (
    ThetaSpec,
    build_coeff,
    build_f_posdef,
    build_g_indef,
    theta_eval,
    theta_eval_borcherds,
    theta_spec,
)


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


def test_tail_bound_honesty():
    spec = theta_spec("e8")
    Z = SiegelPoint(np.array([[0.37 + 0.91j]]))
    coarse = theta_eval(spec, Z, eps=1e-6)
    fine = theta_eval(spec, Z, eps=1e-13)
    assert abs(coarse.value - fine.value) <= coarse.tail_bound + 1e-13


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


def test_env_point_cap(monkeypatch):
    monkeypatch.setenv("THETA_MAX_POINTS", "2")
    with pytest.raises(ResourceCapError):
        theta_eval(theta_spec([[2]]), Z_I, eps=1e-12)


def test_spec_validation_rejects_wrong_form():
    # coefficient built for 2u^2 fails the eigen equation for the form 4u^2
    dec2 = decompose(np.array([[2]], dtype=np.int64))
    P = MatPoly.variable(1, 1, 0, 0) * MatPoly.variable(1, 1, 0, 0)
    coeff = build_coeff(dec2, P)
    dec4 = decompose(np.array([[4]], dtype=np.int64))
    with pytest.raises(ValueError):
        ThetaSpec(dec4, coeff, [[0]], [[0]])


def test_build_coeff_rejects_minus_poly_on_definite_form():
    dec = decompose(named_form("e8"))
    with pytest.raises(ValueError):
        build_coeff(dec, MatPoly.one(8, 1), MatPoly.variable(8, 1, 0, 0))


def test_build_f_posdef_requires_homogeneous():
    bad = MatPoly.variable(2, 1, 0, 0) + MatPoly.one(2, 1)
    with pytest.raises(ValueError):
        build_f_posdef(bad, [[2, 0], [0, 2]])


def test_build_g_indef_lambda_bookkeeping():
    dec = decompose(named_form("h2"))
    g = build_g_indef(basis_homopol(2, 1, 2)[0], MatPoly.variable(2, 1, 0, 0), dec)
    assert g.alpha == 2 and g.beta == 1
    assert g.lam == 2 - 1 - 1
