"""Variational quantities of the flow: mass, energy, action, and the scaling
functional family K^{alpha,beta} together with its Nehari and virial members.

K^{alpha,beta}(f) is the lambda-derivative at 0 of the action along the
two-parameter scaling e^{alpha lambda} f(e^{beta lambda} x).  Each term of the
action scales as a pure exponential, so the derivative has closed
coefficients (d = p = 3):

    mass      2*alpha - 3*beta
    gradient  2*alpha - beta
    potential 2*alpha - (3 - mu)*beta
    quartic   4*alpha - 3*beta

The pair (1,0) reproduces the Nehari functional and (3,2) the virial
functional 2||grad f||^2 + mu*int gamma/r^mu |f|^2 - (3/2)||f||_4^4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radial_grid import (
    EquationParams,
    RadialField,
    gradient_norm_sq,
    integrate,
    interpolant,
    node_gradient,
)


@dataclass(frozen=True)
class ScalingPair:
    """Admissible scaling exponents: alpha > 0, beta >= 0, 2 alpha >= 3 beta."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (self.beta >= 0.0):
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if not (2.0 * self.alpha - 3.0 * self.beta >= 0.0):
            raise ValueError(
                f"need 2*alpha - 3*beta >= 0, got pair ({self.alpha}, {self.beta})"
            )


NEHARI_PAIR = ScalingPair(1.0, 0.0)
VIRIAL_PAIR = ScalingPair(3.0, 2.0)

#: pairs used for ground-state residuals and sign-splitting checks
DEFAULT_PAIRS = (
    ScalingPair(1.0, 0.0),
    ScalingPair(3.0, 2.0),
    ScalingPair(2.0, 1.0),
    ScalingPair(3.0, 0.0),
    ScalingPair(3.0, 1.0),
)


@dataclass(frozen=True)
class FunctionalReport:
    mass: float
    kinetic: float
    potential_term: float
    quartic: float
    energy: float
    action: float
    sobolev_gamma_sq: float
    h1_omega_gamma_sq: float

    def k(self, pair: ScalingPair, params: EquationParams) -> float:
        """K^{alpha,beta} of the reported field: its four integrals dotted
        with k_coefficients, so no quadrature is repeated."""
        cm, ck, cp, cq = k_coefficients(pair, params.mu)
        return (
            cm * params.omega * self.mass
            + ck * self.kinetic
            + cp * self.potential_term
            + cq * self.quartic
        )


def report(f: RadialField, params: EquationParams) -> FunctionalReport:
    """Evaluate the four integrals (mass, kinetic, potential, quartic) once,
    and the energy, action and norms derived from them."""
    grid, u = f.grid, f.values
    dens = np.abs(u) ** 2
    mass = integrate(grid, dens)
    kinetic = gradient_norm_sq(f)
    potential = integrate(grid, params.gamma / grid.r**params.mu * dens)
    quartic = integrate(grid, dens**2)
    energy = 0.5 * kinetic + 0.5 * potential - 0.25 * quartic
    action = 0.5 * params.omega * mass + energy
    sobolev = kinetic + potential
    return FunctionalReport(
        mass=mass,
        kinetic=kinetic,
        potential_term=potential,
        quartic=quartic,
        energy=energy,
        action=action,
        sobolev_gamma_sq=sobolev,
        h1_omega_gamma_sq=params.omega * mass + sobolev,
    )


def k_coefficients(pair: ScalingPair, mu: float):
    """Scaling-derivative coefficients (mass, kinetic, potential, quartic)."""
    a, b = pair.alpha, pair.beta
    return (
        (2.0 * a - 3.0 * b) / 2.0,
        (2.0 * a - b) / 2.0,
        (2.0 * a - (3.0 - mu) * b) / 2.0,
        -(4.0 * a - 3.0 * b) / 4.0,
    )


def k_alpha_beta(f: RadialField, pair: ScalingPair, params: EquationParams) -> float:
    """K^{alpha,beta}(f), the action derivative along the (alpha,beta) scaling."""
    return report(f, params).k(pair, params)


def nehari(f: RadialField, params: EquationParams) -> float:
    """Nehari functional, alias of K^{1,0}."""
    return k_alpha_beta(f, NEHARI_PAIR, params)


def virial(f: RadialField, params: EquationParams) -> float:
    """Virial functional, alias of K^{3,2}; mass-independent by construction."""
    return k_alpha_beta(f, VIRIAL_PAIR, params)


def t_alpha_beta(f: RadialField, pair: ScalingPair, params: EquationParams) -> float:
    """T^{alpha,beta} = S - K^{alpha,beta} / (2 alpha - beta)."""
    rep = report(f, params)
    return rep.action - rep.k(pair, params) / (2.0 * pair.alpha - pair.beta)


def rescaled_field(f: RadialField, lam: float, pair: ScalingPair) -> RadialField:
    """e^{alpha lam} f(e^{beta lam} r) resampled onto f's grid.

    Raises if f carries visible amplitude at the outer boundary, where an
    expanding rescale would need data beyond R_max.
    """
    grid = f.grid
    tail = np.max(np.abs(f.values[-3:]))
    peak = np.max(np.abs(f.values))
    if peak > 0.0 and tail > 1e-9 * peak:
        raise ValueError(
            "field support reaches R_max; enlarge the domain before rescaling"
        )
    itp = interpolant(f)
    xs = np.minimum(grid.r * np.exp(pair.beta * lam), grid.r_max)
    vals = np.asarray(itp(xs), dtype=complex)
    return RadialField(grid, np.exp(pair.alpha * lam) * vals)


def fd_check_k(
    f: RadialField, pair: ScalingPair, params: EquationParams, eps: float
) -> tuple[float, float]:
    """(analytic K, centered finite difference of S under the scaling).

    The finite difference realizes the defining lambda-derivative directly;
    agreement is O(eps^2) plus resampling error.
    """
    if not (0.0 < eps <= 1e-2):
        raise ValueError(f"eps must lie in (0, 1e-2], got {eps}")
    analytic = k_alpha_beta(f, pair, params)
    s_plus = report(rescaled_field(f, eps, pair), params).action
    s_minus = report(rescaled_field(f, -eps, pair), params).action
    return analytic, (s_plus - s_minus) / (2.0 * eps)


def radial_sobolev_ratio(f: RadialField, R: float) -> float:
    """Diagnostic ratio ||f||_{L4(r>=R)}^4 / (R^-2 ||f||_{L2(r>=R)}^3 ||grad f||_{L2(r>=R)}).

    Finiteness over test families evidences the radial Sobolev inequality;
    the implicit constant is recorded, never asserted.
    """
    grid = f.grid
    if not (0.0 < R < grid.r_max):
        raise ValueError(f"need 0 < R < R_max, got R={R}")
    mask = grid.r >= R
    dens = np.abs(f.values) ** 2
    l4 = integrate(grid, np.where(mask, dens**2, 0.0))
    l2 = integrate(grid, np.where(mask, dens, 0.0))
    du = node_gradient(grid, f.values)
    grad = integrate(grid, np.where(mask, np.abs(du) ** 2, 0.0))
    denom = R**-2.0 * l2**1.5 * np.sqrt(grad)
    if denom <= 0.0 or not np.isfinite(denom) or denom < 1e-300:
        raise ValueError("field vanishes outside R")
    return float(l4 / denom)
