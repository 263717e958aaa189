"""Upper half-space points, symplectic action, branch-locked det powers."""

import math

import numpy as np
import pytest

from siegeltheta.siegel import (
    SiegelPoint,
    SymplecticMatrix,
    act,
    det_power,
    random_siegel_point,
    sqrt_posdef,
)


def test_point_validation():
    with pytest.raises(ValueError):
        SiegelPoint(np.array([[1j, 0.5], [0.2, 1j]]))  # not symmetric
    with pytest.raises(ValueError):
        SiegelPoint(np.array([[1.0 + 0j]]))  # Y not positive definite
    with pytest.raises(ValueError):
        SiegelPoint.from_xy(np.array([[math.nan]]), np.array([[1.0]]))  # summed to a NaN value
    with pytest.raises(ValueError):
        SiegelPoint.from_xy(np.array([[0.0]]), np.array([[math.inf]]))  # exceeded the point cap
    Z = SiegelPoint.from_xy(np.array([[0.5]]), np.array([[2.0]]))
    assert Z.n == 1
    assert Z.X[0, 0] == 0.5 and Z.Y[0, 0] == 2.0


def test_translate_and_inverse():
    Z = SiegelPoint(np.array([[0.25 + 1j]]))
    W = Z.translate(np.array([[3]]))
    assert W.Z[0, 0] == pytest.approx(3.25 + 1j)
    V = Z.inverse_point()
    assert V.Z[0, 0] == pytest.approx(-1.0 / (0.25 + 1j))


def test_symplectic_constructors():
    S = SymplecticMatrix.translation(np.array([[2, 1], [1, 0]]))
    J = SymplecticMatrix.inversion(2)
    assert isinstance(S @ J, SymplecticMatrix)
    with pytest.raises(ValueError):
        SymplecticMatrix(np.eye(4, dtype=np.int64) * 2)  # not symplectic


def test_action_matches_translation_and_inversion():
    rng = np.random.default_rng(0)
    Z = random_siegel_point(2, rng)
    S = np.array([[1, -2], [-2, 3]])
    W = act(SymplecticMatrix.translation(S), Z)
    assert np.allclose(W.Z, Z.Z + S, atol=1e-12)
    V = act(SymplecticMatrix.inversion(2), Z)
    assert np.allclose(V.Z, -np.linalg.inv(Z.Z), atol=1e-12)


def test_action_composition():
    rng = np.random.default_rng(1)
    Z = random_siegel_point(2, rng)
    M1 = SymplecticMatrix.translation(np.array([[1, 0], [0, -1]]))
    M2 = SymplecticMatrix.inversion(2)
    lhs = act(M1 @ M2, Z)
    rhs = act(M1, act(M2, Z))
    assert np.allclose(lhs.Z, rhs.Z, atol=1e-10)


def test_random_point_is_valid():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        Z = random_siegel_point(n, rng)
        assert np.allclose(Z.Z, Z.Z.T, atol=1e-14)
        assert min(np.linalg.eigvalsh(Z.Y)) > 0


def test_sqrt_posdef():
    rng = np.random.default_rng(3)
    B = rng.normal(size=(3, 3))
    Y = B @ B.T + np.eye(3)
    R = sqrt_posdef(Y)
    assert np.allclose(R @ R, Y, atol=1e-10)
    with pytest.raises(ValueError):
        sqrt_posdef(np.diag([1.0, -1.0]))


def test_det_power_integer_matches_det():
    rng = np.random.default_rng(4)
    Z = random_siegel_point(2, rng).Z
    for k in (1, 2, 3):
        assert det_power(Z, k) == pytest.approx(np.linalg.det(Z) ** k, rel=1e-12)
    assert det_power(Z, 0) == pytest.approx(1.0)


def test_det_power_half_integer_branch():
    rng = np.random.default_rng(5)
    Z = random_siegel_point(2, rng).Z
    half = det_power(Z, 0.5)
    assert half ** 2 == pytest.approx(np.linalg.det(Z), rel=1e-12)
    # principal branch: positive determinant of iY gives the positive root
    Y = np.diag([4.0, 9.0])
    assert det_power(Y.astype(complex), 0.5) == pytest.approx(6.0)


def test_det_power_negative_axis_rejected():
    W = np.array([[-1.0 + 0j]])
    with pytest.raises(ValueError):
        det_power(W, 0.5)
    with pytest.raises(ValueError):
        det_power(np.array([[0.0 + 0j]]), 0.5)


def test_det_power_multiplicative_in_exponent():
    Z = SiegelPoint(np.array([[0.3 + 0.8j, 0.1], [0.1, -0.2 + 1.1j]])).Z
    a = det_power(Z, 1.5)
    b = det_power(Z, 0.5) * det_power(Z, 1.0)
    assert a == pytest.approx(b, rel=1e-12)
