"""Minimum-error discrimination of qubit ensembles.

Closed-form solvers for two-state, three-state, diagonal, cone, shell, and
mirror-symmetric ensembles, an independent convex minimax oracle, and a
weak-duality certificate that every solver output must pass; first-order
(KKT) residuals are computed on first access to result.kkt.
"""

from .bloch import (
    DiscriminationResult,
    HelstromCertificate,
    Povm,
    PovmElement,
    WeightedEnsemble,
    validate_ensemble,
)
from .closed_form import (
    MirrorRegime,
    ThreeStateCoefficients,
    cone_ensemble,
    gram_identity_residual,
    lambdas_three_state,
    mirror_ensemble,
    mirror_regime,
    mirror_threshold,
    solve_auto,
    solve_cone,
    solve_diagonal,
    solve_mirror_symmetric,
    solve_symmetric_shell,
    solve_three_state,
    solve_two_state,
)
from .errors import (
    CertificateError,
    ConvergenceError,
    DegenerateGeometryError,
    DegenerateRatioError,
    DiscriminationError,
    GramConsistencyError,
    WeightSystemInfeasible,
)
from .family import (
    assemble_result,
    family_residual,
    povm_from_weights,
    success_probability,
    verify_optimality,
    verify_weak_family,
)
from .kkt import KktReport, kkt_residuals
from .oracle import (
    MinimaxSolution,
    classical_diagonal_oracle,
    minimax_common_point,
    minimax_objective,
    random_povm_sample,
    recover_povm,
    solve_oracle,
)
from .platonic import (
    PLATONIC_KINDS,
    PRINTED_EDGE_COEFFICIENTS,
    PlatonicReference,
    PlatonicSolid,
    edge_coefficient_report,
    measured_edge_coefficient,
    platonic_ensemble,
    platonic_vertices,
    unit_edge_length,
)
from .weights import min_norm_nonneg_weights, subset_support_weights

__version__ = "0.1.0"

__all__ = [
    "WeightedEnsemble",
    "PovmElement",
    "Povm",
    "HelstromCertificate",
    "DiscriminationResult",
    "validate_ensemble",
    "ThreeStateCoefficients",
    "MirrorRegime",
    "solve_two_state",
    "solve_three_state",
    "solve_diagonal",
    "solve_symmetric_shell",
    "solve_cone",
    "solve_mirror_symmetric",
    "solve_auto",
    "cone_ensemble",
    "mirror_ensemble",
    "mirror_regime",
    "mirror_threshold",
    "lambdas_three_state",
    "gram_identity_residual",
    "PLATONIC_KINDS",
    "PRINTED_EDGE_COEFFICIENTS",
    "PlatonicSolid",
    "PlatonicReference",
    "platonic_ensemble",
    "platonic_vertices",
    "unit_edge_length",
    "measured_edge_coefficient",
    "edge_coefficient_report",
    "MinimaxSolution",
    "minimax_common_point",
    "minimax_objective",
    "solve_oracle",
    "recover_povm",
    "classical_diagonal_oracle",
    "random_povm_sample",
    "KktReport",
    "kkt_residuals",
    "assemble_result",
    "family_residual",
    "verify_weak_family",
    "verify_optimality",
    "success_probability",
    "povm_from_weights",
    "min_norm_nonneg_weights",
    "subset_support_weights",
    "DiscriminationError",
    "DegenerateRatioError",
    "DegenerateGeometryError",
    "GramConsistencyError",
    "WeightSystemInfeasible",
    "ConvergenceError",
    "CertificateError",
]
