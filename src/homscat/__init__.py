"""Scattering matrices of perturbed centre dynamics, inertia classification,
and majorization-based signature realization."""

from .classify import (
    EnsembleSummary,
    RealizationError,
    RealizationReport,
    ReversibilityReport,
    center_reversal,
    hessian_from_scattering,
    indefiniteness_ensemble,
    realize_signature,
    reversible_signature,
)
from .flow import (
    ScatteringConvergenceError,
    ScatteringProblem,
    ScatteringResult,
    fundamental_solution,
    scattering_matrix,
)
from .majorize import (
    MajorizationError,
    MajorizationWitness,
    hessian_bracket,
    indefinite_spectrum,
    majorizes,
    mirsky_matrix,
)
from .matkit import (
    CenterBlock,
    SignatureReport,
    classification_tol,
    inertia,
    matrix_exponential,
    max_abs,
    standard_symplectic_form,
    symplectic_rotation,
)
from .models import (
    HamiltonianSystem,
    ModelSpec,
    bump,
    homoclinic_orbit,
    scattering_problem,
)

__version__ = "0.1.0"
