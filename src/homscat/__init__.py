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
    bracket_kernel_basis,
    hessian_bracket,
    hessian_bracket_adjoint,
    in_bracket_range,
    indefinite_spectrum,
    majorizes,
    mirsky_matrix,
    solve_bracket,
)
from .matkit import (
    NotPositiveDefiniteError,
    SignatureReport,
    center_diagonal,
    center_frequencies,
    classification_tol,
    eigh,
    inertia,
    is_symmetric,
    is_symplectic,
    matrix_exponential,
    max_abs,
    spd_sqrt,
    standard_symplectic_form,
    symplectic_rotation,
)
from .models import (
    HamiltonianSystem,
    ModelSpec,
    bump,
    center_variational_field,
    homoclinic_orbit,
    hyperbolic_variational_field,
    scattering_problem,
)

__version__ = "0.1.0"
