"""Fields and checks that only the tests use: random smooth fields, the
zero-padded embedding onto a larger domain, the finite-difference check of
K^{alpha,beta} (with the rescaling and interpolant behind it), the
radial Sobolev ratio, and the evolve constants under which a run aborts."""

from __future__ import annotations

import numpy as np
from scipy.interpolate import PchipInterpolator

from radialnls import EquationParams, RadialField, RadialGrid, ScalingPair, integrate, report
from radialnls.evolve import _Stepper
from radialnls.radial_grid import lap_gamma_diagonals, node_gradient

#: probe and floor constants under which every window refines until dt
#: passes the floor, so a run aborts
ABORTING = dict(LOCAL_ERROR_TOL=1e-30, MIN_DT=1e-5)


def make_stepper(grid: RadialGrid, params: EquationParams, dt: float, order: int = 2,
                 absorb_w=None) -> _Stepper:
    """evolve._Stepper of dt on the Delta_gamma of (grid, params)."""
    lap = lap_gamma_diagonals(grid, params.gamma, params.mu)
    return _Stepper(lap, dt, order, absorb_w)


def random_smooth_field(
    grid: RadialGrid,
    rng: np.random.Generator,
    complex_phase: bool = False,
) -> RadialField:
    """Sum of 1..3 random Gaussian bumps under the envelope exp(-(r/6)^2).

    Deterministic given the generator state; supports the randomized
    property checks.
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


def embed_field(field: RadialField, grid: RadialGrid) -> RadialField:
    """Extend a field to a larger domain with the same spacing.

    The values are copied node for node and zero-padded beyond the old
    R_max; a grid with a different spacing or fewer cells is rejected.
    """
    src = field.grid
    if not (grid.n >= src.n and abs(grid.h - src.h) < 1e-14 * src.h):
        raise ValueError(
            f"embed_field needs the same spacing and at least as many cells; "
            f"got n={grid.n}, h={grid.h} for a field with n={src.n}, h={src.h}"
        )
    out = np.zeros(grid.n, dtype=complex)
    out[: src.n] = field.values
    return RadialField(grid, out)


def interpolant(field: RadialField):
    """Monotone cubic interpolant of a field on [0, R_max].

    Anchored by an even-extension value at r = 0 and the Dirichlet zero at
    r = R_max.  Returns a callable; used for rescaling.
    """
    grid, u = field.grid, field.values
    x = np.concatenate(([0.0], grid.r, [grid.r_max]))
    u0 = (9.0 * u[0] - u[1]) / 8.0  # quadratic even extension through r_0, r_1
    y = np.concatenate(([u0], u, [0.0]))
    if np.iscomplexobj(u) and np.any(u.imag != 0.0):
        re = PchipInterpolator(x, y.real, extrapolate=False)
        im = PchipInterpolator(x, y.imag, extrapolate=False)
        return lambda xs: re(xs) + 1j * im(xs)
    return PchipInterpolator(x, y.real, extrapolate=False)


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
    analytic = report(f, params).k(pair, params)
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
