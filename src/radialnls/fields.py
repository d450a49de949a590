"""Ready-made radial profiles: Gaussians, bump mixtures, random smooth fields."""

from __future__ import annotations

import numpy as np

from .radial_grid import RadialField, RadialGrid


def gaussian(grid: RadialGrid, amplitude: float = 1.0, width: float = 1.0) -> RadialField:
    """amplitude * exp(-(r/width)^2); the width must be positive and finite."""
    if not (0.0 < width < np.inf):
        raise ValueError(f"width must lie in (0, inf), got {width}")
    vals = amplitude * np.exp(-((grid.r / width) ** 2))
    return RadialField(grid, vals.astype(complex))


def random_smooth_field(
    grid: RadialGrid,
    rng: np.random.Generator,
    complex_phase: bool = False,
) -> RadialField:
    """Sum of 1..3 random Gaussian bumps under the envelope exp(-(r/6)^2).

    Deterministic given the generator state; supports the randomized
    property checks and sweep seeds.
    """
    r = grid.r
    u = np.zeros(grid.n)
    for _ in range(int(rng.integers(1, 4))):
        amp = rng.uniform(-1.0, 1.0)
        wid = rng.uniform(0.5, 2.0)
        cen = rng.uniform(0.0, 3.0)
        u += amp * np.exp(-(((r - cen) / wid) ** 2))
    u *= np.exp(-((r / 6.0) ** 2))
    vals = u.astype(complex)
    if complex_phase:
        vals = vals * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi) * np.tanh(r))
    return RadialField(grid, vals)
