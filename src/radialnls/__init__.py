"""Numerical lab for the radial focusing cubic NLS with a repulsive
inverse-power potential: ground states, variational functionals, time
evolution, localized virial diagnostics, and the scattering/blow-up
dichotomy below the threshold."""

from time import perf_counter as _perf_counter

_import_started = _perf_counter()

__version__ = "0.1.0"

from .radial_grid import (
    EquationParams,
    RadialField,
    RadialGrid,
    build_grid,
    gradient_norm_sq,
    integrate,
)
from .functionals import (
    DEFAULT_PAIRS,
    FunctionalReport,
    ScalingPair,
    report,
)
from .ground_state import (
    GroundStateResult,
    minimize_quotient,
    shoot_ode,
)
from .evolve import (
    EvolutionConfig,
    EvolutionTrace,
    Outcome,
    run,
)
from .localized_virial import (
    VirialCutoff,
    I_double_prime,
    I_prime,
    I_value,
    build_cutoff,
    rigidity_probe,
)
from .classify import (
    ClassificationVerdict,
    Empirical,
    FamilySpec,
    Predicted,
    classify,
    sweep,
    verify_empirically,
)

#: seconds this package's import took, numpy and scipy's LAPACK included;
#: every manifest records it as import_s
_IMPORT_S = _perf_counter() - _import_started

__all__ = [
    "EquationParams",
    "RadialField",
    "RadialGrid",
    "build_grid",
    "gradient_norm_sq",
    "integrate",
    "DEFAULT_PAIRS",
    "FunctionalReport",
    "ScalingPair",
    "report",
    "GroundStateResult",
    "minimize_quotient",
    "shoot_ode",
    "EvolutionConfig",
    "EvolutionTrace",
    "Outcome",
    "run",
    "VirialCutoff",
    "I_double_prime",
    "I_prime",
    "I_value",
    "build_cutoff",
    "rigidity_probe",
    "ClassificationVerdict",
    "Empirical",
    "FamilySpec",
    "Predicted",
    "classify",
    "sweep",
    "verify_empirically",
]
