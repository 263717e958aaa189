"""Siegel theta series of integral quadratic forms with executable transformation-law checks."""

from .errors import ResourceCapError
from .polyalg import (
    MatPoly,
    basis_homopol,
    vigneras_apply,
    vigneras_residual,
)
from .quadform import (
    FIXTURES,
    QuadForm,
    QuadFormDecomposition,
    coset_reps,
    decompose,
    lattice_points,
    named_form,
)
from .scalars import PiScalar
from .siegel import SiegelPoint, SymplecticMatrix, act, det_power, random_siegel_point
from .theta import (
    ThetaSpec,
    ThetaValue,
    build_coeff,
    predicted_rows,
    theta_eval,
    theta_eval_borcherds,
    theta_eval_direct,
    theta_spec,
)
from .verify import (
    CheckReport,
    check_borcherds_form,
    check_commutator,
    check_fourier,
    check_gauss_transform,
    check_inversion,
    check_poisson,
    check_translation,
    check_vigneras,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "FIXTURES",
    "MatPoly",
    "PiScalar",
    "QuadForm",
    "QuadFormDecomposition",
    "ResourceCapError",
    "SiegelPoint",
    "SymplecticMatrix",
    "ThetaSpec",
    "ThetaValue",
    "act",
    "basis_homopol",
    "build_coeff",
    "check_borcherds_form",
    "check_commutator",
    "check_fourier",
    "check_gauss_transform",
    "check_inversion",
    "check_poisson",
    "check_translation",
    "check_vigneras",
    "coset_reps",
    "decompose",
    "det_power",
    "lattice_points",
    "named_form",
    "predicted_rows",
    "random_siegel_point",
    "run_suite",
    "theta_eval",
    "theta_eval_borcherds",
    "theta_eval_direct",
    "theta_spec",
    "vigneras_apply",
    "vigneras_residual",
    "__version__",
]
