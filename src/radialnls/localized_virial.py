"""Localized virial diagnostics: the cutoff weight, I(t) and its derivatives,
the remainder decomposition, and the convexity probe behind rigidity.

The unit cutoff equals r^2 up to r = 1, a fixed degree-7 Hermite bridge on
[1, 3], and a constant plateau beyond 3 (the derivative conditions are what
the estimates use; the plateau value is the bridge value at 3, which is
23/7).  The bridge matches value and first three derivatives of r^2 at r = 1
and first four derivatives of the constant at r = 3; its second derivative
never exceeds 2, verified on a fine sample at build time.  The scaled weight
is chi_R(r) = R^2 chi(r/R).

I''(t) is assembled in two algebraically identical forms: the five-integral
form of the virial identity and the decomposition 4 K_gamma + R1 + R2 + R3 +
R4 whose remainders live entirely in r >= R.  Both forms share the same
node samples (including a node-centered gradient inside K_gamma), so they
agree to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import functionals
from .evolve import EvolutionConfig, _Stepper, FlowBlowup
from .radial_grid import (
    EquationParams,
    RadialField,
    RadialGrid,
    integrate,
    node_gradient,
)

#: degree-7 bridge coefficients on [1, 3] (ascending powers), exact rationals
_BRIDGE = tuple(
    float(c)
    for c in (
        Fraction(-151, 28),
        Fraction(405, 16),
        Fraction(-189, 4),
        Fraction(765, 16),
        Fraction(-105, 4),
        Fraction(127, 16),
        Fraction(-5, 4),
        Fraction(9, 112),
    )
)
#: plateau value chi(3) = 23/7
PLATEAU = float(Fraction(23, 7))

#: the remainder terms of the decomposed I'', supported in r >= R
REMAINDER_TERMS = ("R1", "R2", "R3", "R4")


def _bridge_deriv(d: int, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for k in range(d, 8):
        fac = 1.0
        for j in range(d):
            fac *= k - j
        out += _BRIDGE[k] * fac * x ** (k - d)
    return out


def chi_derivatives(x) -> np.ndarray:
    """Unit cutoff chi and derivatives 1..4 at points x >= 0, shape (5, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((5, x.size))
    core = x <= 1.0
    out[0][core] = x[core] ** 2
    out[1][core] = 2.0 * x[core]
    out[2][core] = 2.0
    mid = (x > 1.0) & (x < 3.0)
    for d in range(5):
        out[d][mid] = _bridge_deriv(d, x[mid])
    out[0][x >= 3.0] = PLATEAU
    return out


@lru_cache(maxsize=1)
def _verify_bridge() -> None:
    xs = np.linspace(0.0, 4.0, 40001)
    d2 = chi_derivatives(xs)[2]
    if d2.max() > 2.0 + 1e-10:
        raise RuntimeError(
            "internal error: cutoff bridge violates the curvature bound"
        )


@lru_cache(maxsize=1)
def remainder_constants() -> tuple[float, float, float, float]:
    """Sup bounds (c1, c2, c3, c4) of the remainder brace factors over x >= 1."""
    xs = np.linspace(1.0, 4.0, 200001)
    d = chi_derivatives(xs)
    c1 = max(float(np.abs(d[2] - 2.0).max()), 2.0)
    c2 = max(float(np.abs(d[2] + 2.0 * d[1] / xs - 6.0).max()), 6.0)
    c3 = float(np.abs(d[4] + 4.0 * d[3] / xs).max())
    c4 = max(float(np.abs(d[1] / xs - 2.0).max()), 2.0)
    return c1, c2, c3, c4


def remainder_bound_constant(params: EquationParams) -> float:
    """C such that |R1+..+R4| <= C * int_{r>=R}(|grad u|^2 + |u|^4 + R^-mu

    |u|^2) dx for every R >= 1, from the cutoff derivative bounds."""
    c1, c2, c3, c4 = remainder_constants()
    return max(4.0 * c1, c2, c3 + 2.0 * params.mu * params.gamma * c4)


@dataclass(frozen=True)
class VirialCutoff:
    """chi_R and its first four derivatives sampled at the grid nodes."""

    R: float
    grid: RadialGrid
    w0: np.ndarray  # chi_R
    w1: np.ndarray  # chi_R'
    w2: np.ndarray  # chi_R''
    w3: np.ndarray  # chi_R'''
    w4: np.ndarray  # chi_R''''


def build_cutoff(R: float, grid: RadialGrid) -> VirialCutoff:
    """Sample the scaled cutoff; requires the plateau to fit: 3R < R_max."""
    if not (R > 0.0):
        raise ValueError("R must be positive")
    if not (3.0 * R < grid.r_max):
        raise ValueError(
            f"cutoff needs 3R < R_max: R={R}, R_max={grid.r_max}"
        )
    _verify_bridge()
    d = chi_derivatives(grid.r / R)
    return VirialCutoff(
        R=float(R),
        grid=grid,
        w0=R**2 * d[0],
        w1=R * d[1],
        w2=d[2].copy(),
        w3=d[3] / R,
        w4=d[4] / R**2,
    )


def I_value(u: RadialField, cutoff: VirialCutoff) -> float:
    """I = int chi_R |u|^2 dx."""
    return integrate(u.grid, cutoff.w0 * np.abs(u.values) ** 2)


def I_prime(
    u: RadialField, cutoff: VirialCutoff, params: EquationParams, du=None
) -> float:
    """I' = 2 Im int (chi_R'(r)/r) conj(u) (r d_r u) dx.

    du is the node gradient of u when the caller already has it.
    """
    grid = u.grid
    if du is None:
        du = node_gradient(grid, u.values)
    dens = np.imag(np.conj(u.values) * du)
    return 2.0 * integrate(grid, cutoff.w1 * dens)


@dataclass
class VirialSecondDerivative:
    total: float            # five-integral form of the identity
    total_decomposed: float  # 4 K_gamma + R1 + R2 + R3 + R4
    k_gamma_node: float     # virial functional with the node-centered gradient
    terms: dict             # individual integrals of both forms


def I_double_prime(
    u: RadialField, cutoff: VirialCutoff, params: EquationParams, du=None
) -> VirialSecondDerivative:
    """Both assemblies of I''(t) from shared node samples.

    The decomposition uses a node-centered gradient inside K_gamma so the two
    forms are algebraically identical; the module-level virial functional
    (face-centered gradient) differs from k_gamma_node by O(h^2).  du is the
    node gradient of u when the caller already has it.
    """
    grid = u.grid
    r = grid.r
    gamma, mu = params.gamma, params.mu
    if du is None:
        du = node_gradient(grid, u.values)
    du2 = np.abs(du) ** 2
    uu2 = np.abs(u.values) ** 2
    uu4 = uu2**2
    w1_over_r = cutoff.w1 / r

    t_shear = integrate(grid, 4.0 * (cutoff.w2 - w1_over_r) * du2)
    t_grad = integrate(grid, 4.0 * w1_over_r * du2)
    t_bilap = -integrate(grid, (cutoff.w4 + 4.0 * cutoff.w3 / r) * uu2)
    t_quart = -integrate(grid, (cutoff.w2 + 2.0 * w1_over_r) * uu4)
    t_pot = 2.0 * mu * integrate(grid, w1_over_r * gamma / r**mu * uu2)
    total = t_shear + t_grad + t_bilap + t_quart + t_pot

    k_node = (
        2.0 * integrate(grid, du2)
        + mu * integrate(grid, gamma / r**mu * uu2)
        - 1.5 * integrate(grid, uu4)
    )
    r1 = 4.0 * integrate(grid, (cutoff.w2 - 2.0) * du2)
    r2 = -integrate(grid, (cutoff.w2 + 2.0 * w1_over_r - 6.0) * uu4)
    r3 = t_bilap
    r4 = 2.0 * mu * integrate(grid, (w1_over_r - 2.0) * gamma / r**mu * uu2)
    total_dec = 4.0 * k_node + r1 + r2 + r3 + r4

    return VirialSecondDerivative(
        total=total,
        total_decomposed=total_dec,
        k_gamma_node=k_node,
        terms={
            "F1": t_shear,
            "grad": t_grad,
            "F2": t_bilap,
            "F3": t_quart,
            "potential": t_pot,
            **dict(zip(REMAINDER_TERMS, (r1, r2, r3, r4))),
        },
    )


def tail_integral(
    u: RadialField, R: float, params: EquationParams, du=None
) -> float:
    """int_{r>=R} (|grad u|^2 + |u|^4 + R^-mu |u|^2) dx (node-centered gradient).

    du is the node gradient of u when the caller already has it.
    """
    grid = u.grid
    mask = grid.r >= R
    if du is None:
        du = node_gradient(grid, u.values)
    du2 = np.abs(du) ** 2
    uu2 = np.abs(u.values) ** 2
    dens = du2 + uu2**2 + R ** (-params.mu) * uu2
    return integrate(grid, np.where(mask, dens, 0.0))


@dataclass
class RigidityReport:
    R: float
    delta0: float
    min_Ipp: float
    bound_ok: bool  # ipp_floor_ok and remainder_bound_ok
    ipp_floor_ok: bool
    remainder_bound_ok: bool
    bound_constant: float
    Iprime_max: float
    iprime_linear_ratio: float
    second_diff_max_rel_err: float
    forms_max_rel_gap: float
    times: list
    terms: dict


def select_cutoff_radius(
    u0: RadialField, params: EquationParams, delta0: float
) -> float:
    """Largest admissible R whose initial tail satisfies C * tail <= delta0/2.

    The rigidity estimate needs the region beyond R to stay quiet, and tails
    only shrink with R, so among radii that pass the initial-datum criterion
    the largest one that still fits the plateau (3R < R_max) delays any
    outgoing flux reaching the bridge for as long as the domain allows.
    """
    grid = u0.grid
    C = remainder_bound_constant(params)
    candidates = np.arange(1.0, grid.r_max / 3.0, 0.5)
    du = node_gradient(grid, u0.values)
    feasible = [
        R for R in candidates
        if C * tail_integral(u0, R, params, du) <= 0.5 * delta0
    ]
    if not feasible:
        raise ValueError(
            "tail-smallness criterion unsatisfiable on this grid; enlarge R_max"
        )
    return float(feasible[-1])


def rigidity_probe(
    u0: RadialField,
    params: EquationParams,
    level: float,
    T: float,
    cfg: EvolutionConfig | None = None,
) -> RigidityReport:
    """Run the flow for round(T/dt) steps and certify strict convexity of I(t).

    delta0 is the action gap level - S(u0); R is chosen by tail smallness of
    the initial datum.  The monitor ticks are the multiples of monitor_every
    and the last step.  I is evaluated at each tick and at the steps on
    either side of it, so the discrete second difference there can be
    compared against the assembled I''; the flow runs as one merged
    ``_Stepper.step`` call between consecutive such steps.  Of cfg only dt,
    monitor_every and splitting_order shape the run, and only they are
    validated: the run is conservative and T is its horizon, which must be
    finite and span more than monitor_every steps, so that at least one tick
    has steps on both sides for the second difference.
    """
    grid = u0.grid
    cfg = cfg or EvolutionConfig(dt=min(5e-4, grid.h), t_end=T)
    if not (np.isfinite(T) and T >= cfg.dt):
        raise ValueError(
            f"probe horizon T must be finite and at least dt; got T={T}, dt={cfg.dt}"
        )
    # the identity holds for the conservative flow only, so absorb stays off
    EvolutionConfig(
        dt=cfg.dt, t_end=T, monitor_every=cfg.monitor_every,
        splitting_order=cfg.splitting_order,
    ).validate(grid)
    n_steps = int(round(T / cfg.dt))
    if not cfg.monitor_every < n_steps:
        raise ValueError(
            f"probe horizon T must span more than monitor_every steps; got "
            f"round(T/dt) = {n_steps} steps with monitor_every = {cfg.monitor_every}"
        )
    rep0 = functionals.report(u0, params)
    if not (rep0.action < level):
        raise ValueError("rigidity probe requires S(u0) < level")
    if not (rep0.k(functionals.VIRIAL_PAIR, params) > 0.0):
        raise ValueError("rigidity probe requires positive initial virial")
    delta0 = level - rep0.action
    R = select_cutoff_radius(u0, params, delta0)
    cutoff = build_cutoff(R, grid)
    C = remainder_bound_constant(params)
    stepper = _Stepper(grid, params, cfg.dt, cfg.splitting_order, None)

    tick_steps = list(range(cfg.monitor_every, n_steps + 1, cfg.monitor_every))
    if tick_steps[-1:] != [n_steps]:
        tick_steps.append(n_steps)
    tick_set = set(tick_steps)
    # I is read at each tick and at the steps on either side of it (for the
    # second difference); between those marks the flow runs as one call
    marks = sorted(
        {m for k in tick_steps for m in (k - 1, k, k + 1) if 0 <= m <= n_steps}
    )
    I_at = {}  # step index -> I at that mark
    ticks = {}  # step index -> the quantities recorded at that monitor tick
    u = u0.values.astype(complex)
    k_prev = 0
    try:
        for k in marks:
            if k > k_prev:
                u = stepper.step(u, k - k_prev)
                k_prev = k
            f = RadialField(grid, u)
            I_at[k] = I_value(f, cutoff)
            if k in tick_set:
                du = node_gradient(grid, u)
                d2 = I_double_prime(f, cutoff, params, du)
                ticks[k] = {
                    "I": I_at[k],
                    "Iprime": I_prime(f, cutoff, params, du),
                    "Ipp": d2.total,
                    "Ipp_decomposed": d2.total_decomposed,
                    **d2.terms,
                    "remainder_sum": sum(d2.terms[key] for key in REMAINDER_TERMS),
                    "remainder_bound": C * tail_integral(f, R, params, du),
                    "h1_norm_sq": functionals.report(f, params).h1_omega_gamma_sq,
                }
    except FlowBlowup as exc:
        raise RuntimeError(
            "rigidity probe flow left floating-point range; the datum does "
            "not satisfy the convexity hypotheses numerically"
        ) from exc

    terms = {key: [row[key] for row in ticks.values()] for key in ticks[tick_steps[0]]}
    ipp = np.array(terms["Ipp"])
    ipp_dec = np.array(terms["Ipp_decomposed"])
    forms_gap = float(
        np.max(np.abs(ipp - ipp_dec) / np.maximum(np.abs(ipp), 1e-300))
    )
    min_ipp = float(ipp.min())
    rem_ok = all(
        abs(s) <= b + 1e-12
        for s, b in zip(terms["remainder_sum"], terms["remainder_bound"])
    )
    ipm = float(np.max(np.abs(terms["Iprime"])))
    lin_ratio = float(
        np.max(
            np.abs(terms["Iprime"]) / (R * np.array(terms["h1_norm_sq"]))
        )
    )
    # discrete second difference of I at tick points
    errs = []
    for k, ipp_k in zip(tick_steps, ipp):
        if 1 <= k <= n_steps - 1:
            d2_num = (I_at[k + 1] - 2.0 * I_at[k] + I_at[k - 1]) / cfg.dt**2
            errs.append(abs(d2_num - ipp_k) / max(abs(ipp_k), 1e-300))
    sd_err = float(max(errs))

    ipp_ok = bool(min_ipp >= 0.5 * delta0)
    return RigidityReport(
        R=R,
        delta0=delta0,
        min_Ipp=min_ipp,
        bound_ok=ipp_ok and rem_ok,
        ipp_floor_ok=ipp_ok,
        remainder_bound_ok=rem_ok,
        bound_constant=C,
        Iprime_max=ipm,
        iprime_linear_ratio=lin_ratio,
        second_diff_max_rel_err=sd_err,
        forms_max_rel_gap=forms_gap,
        times=[k * cfg.dt for k in tick_steps],
        terms=terms,
    )
