"""Scattering matrices of perturbed centre dynamics, inertia classification,
and majorization-based signature realization."""

from .classify import (
    EnsembleSummary,
    RealizationError,
    RealizationReport,
    ReversibilityReport,
    center_reversal,
    check_reversibility,
    hessian_from_scattering,
    indefiniteness_ensemble,
    random_reversible_form,
    random_symplectic,
    realize_signature,
    reversible_signature,
)
from .flow import (
    ScatteringConvergenceError,
    ScatteringProblem,
    ScatteringResult,
    center_linear_flow,
    fundamental_solution,
    scattering_matrix,
)
from .majorize import (
    CenterBlock,
    MajorizationError,
    MajorizationWitness,
    hessian_bracket,
    in_bracket_range,
    indefinite_spectrum,
    majorizes,
    mirsky_matrix,
    solve_bracket,
)
from .matkit import (
    SignatureReport,
    center_diagonal,
    center_frequencies,
    classification_tol,
    eigh,
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
    center_variational_field,
    homoclinic_orbit,
    scattering_problem,
)

__version__ = "0.1.0"
