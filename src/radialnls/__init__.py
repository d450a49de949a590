"""Numerical lab for the radial focusing cubic NLS with a repulsive
inverse-power potential: ground states, variational functionals, time
evolution, localized virial diagnostics, and the scattering/blow-up
dichotomy below the threshold."""

__version__ = "0.1.0"

from .radial_grid import (
    EquationParams,
    RadialField,
    RadialGrid,
    apply_lap_gamma,
    build_grid,
    embed_field,
    gradient_norm_sq,
    integrate,
    solve_cn,
)
from .functionals import (
    DEFAULT_PAIRS,
    FunctionalReport,
    ScalingPair,
    fd_check_k,
    k_alpha_beta,
    nehari,
    radial_sobolev_ratio,
    report,
    t_alpha_beta,
    virial,
)
from .ground_state import (
    GroundStateResult,
    minimize_quotient,
    shoot_ode,
    validate_pohozaev,
)
from .evolve import (
    EvolutionConfig,
    EvolutionTrace,
    Outcome,
    monitor_k_bound,
    run,
    step,
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
    mass_energy_criterion,
    sign_splitting_check,
    sweep,
    verify_empirically,
)

__all__ = [
    "EquationParams",
    "RadialField",
    "RadialGrid",
    "apply_lap_gamma",
    "build_grid",
    "embed_field",
    "gradient_norm_sq",
    "integrate",
    "solve_cn",
    "DEFAULT_PAIRS",
    "FunctionalReport",
    "ScalingPair",
    "fd_check_k",
    "k_alpha_beta",
    "nehari",
    "radial_sobolev_ratio",
    "report",
    "t_alpha_beta",
    "virial",
    "GroundStateResult",
    "minimize_quotient",
    "shoot_ode",
    "validate_pohozaev",
    "EvolutionConfig",
    "EvolutionTrace",
    "Outcome",
    "monitor_k_bound",
    "run",
    "step",
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
    "mass_energy_criterion",
    "sign_splitting_check",
    "sweep",
    "verify_empirically",
]
