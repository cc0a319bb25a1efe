"""Graded loop algebras, energy-ideal quotients, and generalized Inonu-Wigner
contractions over exact rational arithmetic, with a numerical Poisson-bracket
oracle for the perturbed 2-D Kepler system."""

from .scalars import (
    InexactPower,
    InputError,
    NegativeExponent,
    NotSymmetric,
    PuiseuxScalar,
    Rejected,
    signature,
)
from .liealg import (
    CLASS_LABELS,
    ContractionUndefined,
    JacobiViolation,
    LieAlgebra,
    LinearlyDependent,
    SymbolicAlgebra,
    WrongDimension,
    algebra_from_matrices,
    center_dim,
    classify3,
    contract,
    derived_subalgebra_dim,
    is_classic_iw,
    killing_form,
    rescale_basis,
)
from .loop import (
    DEFAULT_MAX_LEVEL,
    BracketMismatch,
    EmbeddingReport,
    GradeMismatch,
    LoopElement,
    LoopSpec,
    SpecFormatError,
    TowerSelection,
    bundled_spec,
    check_selection,
    embedding_check,
    factor_algebra,
    loop_bracket,
    selection_ok,
)
from .kepler import (
    BoundaryTooClose,
    IdentityFailed,
    KeplerParams,
    OracleReport,
    PhasePoint,
    cross_check_loop_spec,
    evaluate,
    identity_suite,
    poisson,
    poisson_fn,
    sample_points,
)

__version__ = "0.1.0"
