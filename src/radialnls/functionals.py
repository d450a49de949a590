"""Variational quantities of the flow: mass, energy, action, and the scaling
functional family K^{alpha,beta}, read off one report per field.

K^{alpha,beta}(f) is the lambda-derivative at 0 of the action along the
two-parameter scaling e^{alpha lambda} f(e^{beta lambda} x).  Each term of the
action scales as a pure exponential, so the derivative has closed
coefficients (d = p = 3):

    mass      2*alpha - 3*beta
    gradient  2*alpha - beta
    potential 2*alpha - (3 - mu)*beta
    quartic   4*alpha - 3*beta

The pair (1,0) reproduces the Nehari functional (NEHARI_PAIR) and (3,2) the
virial functional 2||grad f||^2 + mu*int gamma/r^mu |f|^2 - (3/2)||f||_4^4
(VIRIAL_PAIR).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radial_grid import (
    EquationParams,
    RadialField,
    gradient_norm_sq,
    integrate,
    r_pow,
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
    potential = integrate(grid, params.gamma / r_pow(grid, params.mu) * dens)
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
