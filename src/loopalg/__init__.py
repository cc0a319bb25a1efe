"""Graded loop algebras, energy-ideal quotients, and generalized Inonu-Wigner
contractions over exact rational arithmetic, with a numerical Poisson-bracket
oracle for the perturbed 2-D Kepler system.

The oracle module ``kepler`` and the names below that come from it are
imported on first use, so a program that never touches the oracle does not
pay for loading it.
"""

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

__version__ = "0.1.0"

_KEPLER_NAMES = (
    "BoundaryTooClose",
    "KeplerParams",
    "OracleReport",
    "PhasePoint",
    "cross_check_loop_spec",
    "evaluate",
    "identity_suite",
    "poisson",
    "poisson_fn",
    "sample_points",
)

# every public name imported above (the submodules included), and the lazy ones
__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | {"kepler", *_KEPLER_NAMES})


def __getattr__(name):
    if name == "kepler" or name in _KEPLER_NAMES:
        from importlib import import_module

        kepler = import_module(".kepler", __name__)
        value = kepler if name == "kepler" else getattr(kepler, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
