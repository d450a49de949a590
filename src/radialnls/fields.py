"""Ready-made radial profiles: the Gaussian data of the command line."""

from __future__ import annotations

import numpy as np

from .radial_grid import RadialField, RadialGrid


def gaussian(grid: RadialGrid, amplitude: float = 1.0, width: float = 1.0) -> RadialField:
    """amplitude * exp(-(r/width)^2); the width must be positive and finite."""
    if not (0.0 < width < np.inf):
        raise ValueError(f"width must lie in (0, inf), got {width}")
    vals = amplitude * np.exp(-((grid.r / width) ** 2))
    return RadialField(grid, vals.astype(complex))
