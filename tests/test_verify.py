"""The identity checks themselves: green on fixtures, honest on failures."""

import math
from fractions import Fraction

import numpy as np
import pytest

from siegeltheta.polyalg import MatPoly, basis_homopol, exp_trace_laplace_weighted
from siegeltheta.quadform import named_form
from siegeltheta.scalars import PiScalar
from siegeltheta.siegel import SiegelPoint, det_power
from siegeltheta.theta import term_phase, theta_eval, theta_spec
from siegeltheta.verify import (
    check_borcherds_form,
    check_commutator,
    check_fourier,
    check_gauss_transform,
    check_inversion,
    check_poisson,
    check_translation,
    check_vigneras,
    e_of_fraction,
    fourier_closed_form,
    run_suite,
    translation_data,
)

Z_I = SiegelPoint(np.array([[1j]]))
Z_GEN = SiegelPoint(np.array([[0.4 + 1.1j]]))

H2_SPEC = theta_spec("h2", P_plus=MatPoly.variable(2, 1, 0, 0),
                     H=[[Fraction(1, 2)], [Fraction(0)]],
                     K=[[Fraction(0)], [Fraction(1, 3)]])


def test_e_of_fraction_exact_reduction():
    assert e_of_fraction(Fraction(10**18 + 1, 4)) == pytest.approx(1j, abs=1e-15)
    assert e_of_fraction(Fraction(-3, 2)) == pytest.approx(-1.0, abs=1e-15)


def test_translation_data_exact():
    spec = theta_spec([[2]], H=[[Fraction(1, 2)]], K=[[Fraction(1, 3)]])
    phase, Ktil = translation_data(spec, [[3]])
    # -tr(H^T A H S)/2 - tr(S0 1 A0 H)/2 = -3/4 - 3/2 = -9/4
    assert phase == Fraction(-9, 4)
    # K + HS + A^-1 A0 1 S0 / 2 = 1/3 + 3/2 + 3/2 = 10/3
    assert Ktil == [[Fraction(10, 3)]]


def test_translation_passes():
    rep = check_translation(theta_spec([[2]], H=[[Fraction(1, 2)]]), Z_GEN, [[2]])
    assert rep.passed
    rep = check_translation(H2_SPEC, Z_GEN, [[1]])
    assert rep.passed


def test_translation_rejects_bad_shift():
    with pytest.raises(ValueError):
        check_translation(theta_spec([[2]]), Z_GEN, [[0.5]])
    with pytest.raises(ValueError):
        check_translation(theta_spec("h2", n=1), Z_GEN, [[1, 0], [0, 1]])


def test_inversion_passes_on_fixtures():
    assert check_inversion(theta_spec([[2]]), Z_I).passed
    assert check_inversion(theta_spec("diag:2,-2"), Z_GEN).passed
    assert check_inversion(H2_SPEC, Z_I).passed


def test_inversion_records_coset_count():
    rep = check_inversion(theta_spec("diag:2,-2"), Z_I)
    assert rep.metadata["cosets"] == 4


@pytest.mark.parametrize("P_plus,H,K", [
    (None, None, None),
    (MatPoly.variable(2, 1, 0, 0), [[Fraction(1, 2)], [Fraction(0)]], [[Fraction(0)], [Fraction(1, 3)]]),
])
def test_irrational_majorant_form_satisfies_the_laws(P_plus, H, K):
    # the matrix absolute value of [[2,1],[1,-3]] is irrational, so the split
    # and the projectors are floats embedded as exact rationals
    spec = theta_spec([[2, 1], [1, -3]], P_plus=P_plus, H=H, K=K, n=1)
    assert not spec.dec.has_exact_split()
    val = theta_eval(spec, Z_GEN, eps=1e-10)
    assert val.tail_bound <= 1.1e-10 and val.gross > 0
    assert check_inversion(spec, Z_GEN).passed
    assert check_translation(spec, Z_GEN, [[1]]).passed
    assert check_borcherds_form(spec, Z_GEN).passed


def test_borcherds_form_passes():
    assert check_borcherds_form(theta_spec("diag:2,-2"), Z_GEN).passed
    assert check_borcherds_form(H2_SPEC, Z_GEN).passed


def test_zero_series_checks_stay_honest():
    # odd coefficient on a symmetric lattice: the series is identically zero,
    # and the checks must compare at the gross scale instead of 0/0
    spec = theta_spec("diag:2,-2", P_plus=MatPoly.variable(2, 1, 0, 0),
                      H=[[Fraction(1, 2)], [Fraction(0)]])
    val = theta_eval(spec, Z_I, eps=1e-12)
    assert abs(val.value) < 1e-14 and val.gross > 0.1
    assert check_borcherds_form(spec, Z_GEN).passed
    assert check_inversion(spec, Z_I).passed


def test_vigneras_check_passes_and_fails():
    assert check_vigneras(theta_spec("h2")).passed
    bad = MatPoly.variable(2, 1, 0, 0) * MatPoly.variable(2, 1, 0, 0)
    rep = check_vigneras(bad, [[2, 0], [0, 2]], 2)
    assert not rep.passed and rep.residual > 0


def test_commutator_exact():
    rep = check_commutator(m=2, n=2, degree=4, kmax=2, n_forms=2, seed=5)
    assert rep.passed and rep.residual == 0.0
    assert rep.metadata["identities"] == 2 * 2 * 4


def test_gauss_transform():
    p = MatPoly.variable(1, 2, 0, 0) * MatPoly.variable(1, 2, 0, 1) + MatPoly.one(1, 2) * 3
    assert check_gauss_transform(p, [[0.5, -0.25]]).passed


def test_fourier_plain_and_eigen_agree():
    spec = theta_spec([[2]], P_plus=MatPoly.variable(1, 1, 0, 0) * MatPoly.variable(1, 1, 0, 0))
    Z = SiegelPoint(np.array([[(1 + 3j) / 5]]))
    assert check_fourier(spec, Z, [[0.5]], form="plain").passed
    assert check_fourier(spec, Z, [[0.5]], form="eigen").passed


@pytest.mark.parametrize("A, P, Z", [
    ([[2]], MatPoly.variable(1, 1, 0, 0) ** 4, SiegelPoint(np.array([[(1 + 3j) / 5]]))),
    ([[2, 1], [1, 2]], basis_homopol(2, 2, 1)[0],
     SiegelPoint.from_xy([[0.2, -0.1], [-0.1, 0.3]], [[0.9, 0.2], [0.2, 0.7]])),
], ids=["genus1", "genus2"])
def test_plain_fourier_closed_form_matches_the_exact_flow_of_f(A, P, Z):
    # the closed form flows P once under (i/4 pi) Z^-1 - I/(8 pi); the exact
    # route flows f = exp(-tr(Delta_A)/8 pi) P under (i/4 pi) Z^-1
    spec = theta_spec(A, P_plus=P, n=Z.n)
    m, n = spec.m, spec.n
    V = np.linspace(0.5, -0.25, m * n).reshape(m, n)
    Zinv = np.linalg.inv(Z.Z)
    heat = exp_trace_laplace_weighted(
        spec.coeff.f, A, [[PiScalar.from_number(complex(x)) for x in row] for row in Zinv.tolist()],
        PiScalar.from_parts(0, Fraction(1, 4), -1))
    phase = term_phase(spec, SiegelPoint(-Zinv))(V[None])[0]
    want = (float(np.linalg.det(A)) ** (-n / 2.0) * det_power(-1j * Z.Z, -m / 2.0)
            * phase * heat.eval(-V @ Zinv))
    assert fourier_closed_form(spec, Z, V, "plain") == pytest.approx(want, rel=1e-13)


def test_fourier_indefinite():
    assert check_fourier(theta_spec("diag:2,-2"), SiegelPoint(np.array([[0.3 + 1.1j]])),
                         [[0.5], [0.25]]).passed
    assert check_fourier(H2_SPEC, Z_I, [[0.4], [-0.3]]).passed


def test_fourier_rejects_large_dimension():
    with pytest.raises(ValueError):
        check_fourier(theta_spec("e8"), Z_I, [[0.0]] * 8)
    with pytest.raises(ValueError):
        check_fourier(theta_spec("diag:2,-2"), Z_I, [[0.0], [0.0]], form="plain")


def test_poisson_reproduces_classical_value():
    rep = check_poisson(theta_spec([[2]]), Z_I)
    assert rep.passed
    direct = sum(math.exp(-2 * math.pi * k * k) for k in range(-40, 41))
    assert rep.lhs == pytest.approx(direct, abs=1e-10)
    assert rep.rhs == pytest.approx(direct, abs=1e-10)


def test_poisson_indefinite():
    assert check_poisson(theta_spec("diag:2,-2"), Z_GEN).passed
    assert check_poisson(theta_spec("h2"), Z_GEN).passed


def test_run_suite_all_green_and_deterministic():
    a = run_suite("all", seed=1)
    b = run_suite("all", seed=1)
    assert all(rep.passed for rep in a)
    assert [rep.residual for rep in a] == [rep.residual for rep in b]
    assert [rep.name for rep in a] == [rep.name for rep in b]


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_report_dict_shape():
    rep = check_vigneras(theta_spec([[2]]))
    d = rep.as_dict()
    assert d["passed"] is True
    assert set(d) == {"name", "passed", "residual", "tolerance", "lhs", "rhs", "metadata"}
