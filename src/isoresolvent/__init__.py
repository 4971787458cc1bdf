"""Extension theory of closed isometric operators on C^n.

Defect subspaces, Cayley-type transforms, contraction-parametrized
generalized resolvents with interior and exterior branches, spectral
measures of in-space unitary extensions, and certification of spectral gaps
on arcs of the unit circle.
"""

from .numerics import (
    DEFAULT_TOL,
    NonUnitaryOperator,
    SingularOperator,
    SpectralAtom,
    Subspace,
    TolerancePolicy,
    UnitarySpectralData,
    guarded_inverse,
    max_abs,
    operator_norm,
    orthogonal_complement,
    orthonormalize,
    projector,
    subspace_gap,
    unitary_eig,
)
from .isometry import (
    INF,
    DefectPair,
    DecompositionReport,
    IsometricOperator,
    PreconditionViolated,
    RegularType,
    decompositions,
    defect_spaces,
    projection_identity_residual,
    reflected_point,
    regular_type,
)
from .transforms import (
    MoebiusMap,
    cayley,
    disk_bound,
    inverse_cayley,
    regular_type_correspondence,
    relate_resolvents,
    scalar_maps,
)
from .extensions import (
    ContractionOp,
    DefectFrame,
    ExtensionOp,
    FamilyEvaluationError,
    FamilyValidation,
    ParameterFamily,
    ReconstructionMismatch,
    blaschke_family,
    constant_family,
    defect_parameter,
    extend_full,
    orthogonal_extension,
    recover_parameter,
    table_family,
    validate_family,
)
from .resolvents import (
    HerglotzSample,
    ResolventFn,
    chumakin,
    continuation_consistency,
    exterior_value,
    gap_on_arc,
    herglotz_check,
    herglotz_samples,
    inin,
    reflect,
    verify_inversion,
)
from .gap import (
    GAP_CERTIFIED,
    NOT_CERTIFIED,
    ArcSample,
    CriteriaReport,
    EigenResult,
    GapOperators,
    GapReport,
    arc_scan,
    build_gap_operators,
    eigen_criterion,
    surjectivity_criterion,
)

__version__ = "0.1.0"
