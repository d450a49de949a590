"""Staggered radial grid on [0, R_max] with quadrature and the Delta_gamma operator.

Nodes sit at cell centers r_j = (j + 1/2) h, so the singular inverse-power
potential is never evaluated at r = 0.  Fluxes live on cell faces r = j h;
the face at r = 0 carries zero flux (radial regularity) and the domain is
closed with a homogeneous Dirichlet condition at r = R_max.  With the
midpoint quadrature weighted by 4 pi r^2 this makes the discrete operator
exactly self-adjoint and negative semidefinite in the quadrature inner
product, which the Crank-Nicolson propagator inherits as exact norm
preservation.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import numpy as np
import scipy


def _scipy_module(name: str, suffixes: list[str]) -> ModuleType:
    """scipy's module `name` (dotted, under scipy) loaded straight from its
    file: the first of its path plus one of `suffixes` that exists.  No
    __init__ of a scipy subpackage runs, and sys.modules is left as it was
    found.  A missing file raises ImportError naming the paths looked for."""
    stem = Path(scipy.__file__).parent.joinpath(*name.split(".")[1:])
    paths = [stem.with_name(stem.name + suffix) for suffix in suffixes]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"{name} not found: none of {', '.join(map(str, paths))} exists")
    loaded = name in sys.modules
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not loaded:
        # creating a single-phase extension module, as f2py's are, adds it
        # to sys.modules; a later import of it reuses the same routines
        sys.modules.pop(name, None)
    return module


#: scipy's f2py LAPACK wrappers, the module scipy.linalg.lapack reads its
#: routines from; loaded by path, so no command imports scipy.linalg
_FLAPACK = _scipy_module("scipy.linalg._flapack", EXTENSION_SUFFIXES)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform staggered grid: n cells of width h, nodes at (j+1/2)h."""

    n: int
    h: float

    @property
    def r_max(self) -> float:
        return self.n * self.h

    @cached_property
    def r(self) -> np.ndarray:
        """Node radii, shape (n,)."""
        return (np.arange(self.n) + 0.5) * self.h

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weights 4 pi h r_j^2 (midpoint rule in r)."""
        return 4.0 * np.pi * self.h * self.r**2

    @cached_property
    def faces(self) -> np.ndarray:
        """Face radii j h for j = 0..n."""
        return np.arange(self.n + 1) * self.h


def build_grid(n: int, r_max: float) -> RadialGrid:
    """Build the staggered grid with n cells on [0, r_max].

    Requires n >= 16 and r_max > 1 so that virial cutoff radii R >= 1 fit.
    """
    if not isinstance(n, (int, np.integer)) or n < 16:
        raise ValueError(f"n too small: need n >= 16, got {n}")
    if not (r_max > 1.0):
        raise ValueError(f"R_max must exceed 1, got {r_max}")
    if not np.isfinite(r_max):
        raise ValueError(f"R_max must be finite, got {r_max}")
    return RadialGrid(n=int(n), h=float(r_max) / int(n))


@dataclass(frozen=True)
class EquationParams:
    """Equation parameters (gamma, mu, omega); d = p = 3 are fixed.

    gamma = 0 is accepted as the exact free limit, where the ground-state
    level obeys the sqrt(omega) scaling law; the scattering/blow-up
    classification itself assumes gamma > 0.
    """

    gamma: float
    mu: float
    omega: float

    def __post_init__(self) -> None:
        if not (self.gamma >= 0.0):
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not (0.0 < self.mu < 2.0):
            raise ValueError(f"mu must satisfy 0 < mu < 2, got {self.mu}")
        if not (self.omega > 0.0):
            raise ValueError(f"omega must be positive, got {self.omega}")
        for name in ("gamma", "omega"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass
class RadialField:
    """Radial profile sampled at the grid nodes.

    A float64 array is kept real, so the ground-state descent evaluates its
    real iterates without a complex copy; any other dtype is held complex.
    Every functional of a real field equals, bit for bit, that of its complex
    promotion (see ``gradient_norm_sq``), so the dtype never shows in a result.
    """

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"values must have shape ({self.grid.n},), got {vals.shape}"
            )
        if vals.dtype != np.float64 and not np.issubdtype(vals.dtype, np.complexfloating):
            vals = vals.astype(complex)
        self.values = vals
        self.check_finite()

    def check_finite(self) -> None:
        if not np.isfinite(self.values).all():
            raise ValueError("field contains non-finite entries")


def integrate(grid: RadialGrid, samples: np.ndarray) -> float:
    """Integral over R^3 of a radial sample set: 4 pi h sum g_j r_j^2."""
    samples = np.asarray(samples)
    if not np.isfinite(samples).all():
        raise ValueError("integrand contains non-finite entries")
    return float(np.real(np.dot(grid.weights, samples)))


def gradient_norm_sq(field: RadialField) -> float:
    """int |d_r u|^2 dx with face-centered differences.

    The r = 0 face carries no flux; the outer face uses the Dirichlet value
    u(R_max) = 0.  The differences are multiplied by 1/h, not divided by h:
    numpy divides a complex array by a real scalar as a multiply by its
    reciprocal, so only the multiply gives a real field the bits of its
    complex promotion when h is not a power of two.
    """
    grid, u = field.grid, field.values
    inv_h = 1.0 / grid.h
    faces = grid.faces[1:]  # r = h .. R_max; the r = 0 face contributes 0
    du = np.empty(grid.n, dtype=u.dtype)
    du[:-1] = (u[1:] - u[:-1]) * inv_h
    du[-1] = (0.0 - u[-1]) * inv_h
    return float(4.0 * np.pi * grid.h * np.sum(faces**2 * np.abs(du) ** 2))


def node_gradient(grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    """Node-centered d_r u with even extension at r = 0, Dirichlet at R_max."""
    h = grid.h
    du = np.empty(grid.n, dtype=u.dtype)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    du[0] = (u[1] - u[0]) / (2.0 * h)
    du[-1] = (0.0 - u[-2]) / (2.0 * h)
    return du


class Tridiagonal(NamedTuple):
    """Tridiagonal matrix held as its (lower, diag, upper) diagonals."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The matrix-vector product."""
        out = self.diag * u
        out[:-1] += self.upper * u[1:]
        out[1:] += self.lower * u[:-1]
        return out

    def factor(self) -> "TridiagonalLU":
        """LU factorisation with partial pivoting (LAPACK ?gttrf); n >= 3.
        The double-precision routines: z for a complex diagonal, d otherwise."""
        if np.iscomplexobj(self.diag):
            gttrf, gttrs = _FLAPACK.zgttrf, _FLAPACK.zgttrs
        else:
            gttrf, gttrs = _FLAPACK.dgttrf, _FLAPACK.dgttrs
        dl, d, du, du2, ipiv, info = gttrf(self.lower, self.diag, self.upper)
        _check_info(info, "gttrf")
        return TridiagonalLU(gttrs, (dl, d, du, du2, ipiv))


class TridiagonalLU:
    """Factors of a Tridiagonal; each solve costs one ?gttrs call."""

    def __init__(self, gttrs, factors):
        self._gttrs = gttrs
        self._factors = factors

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(rhs) and not np.iscomplexobj(self._factors[1]):
            # a real ?gttrs would drop the imaginary part
            return self.solve(rhs.real) + 1j * self.solve(rhs.imag)
        x, info = self._gttrs(*self._factors, rhs)
        _check_info(info, "gttrs")
        return x


def _check_info(info: int, routine: str) -> None:
    if info > 0:
        raise np.linalg.LinAlgError("singular tridiagonal matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


@lru_cache(maxsize=32)
def r_pow(grid: RadialGrid, mu: float) -> np.ndarray:
    """The node powers r_j^mu, computed once per (grid, mu) and shared by
    every caller, hence read-only."""
    out = grid.r**mu
    out.setflags(write=False)
    return out


def lap_gamma_diagonals(grid: RadialGrid, gamma: float, mu: float) -> Tridiagonal:
    """Tridiagonal Delta_gamma = Delta - gamma/r^mu.

    Flux form of u'' + (2/r) u' on the staggered grid; symmetric under the
    quadrature weights and negative semidefinite.
    """
    n, h, r = grid.n, grid.h, grid.r
    area = grid.faces**2
    inv = 1.0 / (r**2 * h * h)
    lower = area[1:n] * inv[1:]
    upper = area[1:n] * inv[:-1]
    diag = -(area[:n] + area[1 : n + 1]) * inv
    diag = diag - gamma / r_pow(grid, mu)
    return Tridiagonal(lower, diag, upper)


#: levels of odd-even reduction in front of the ?gttrs solve; each halves
#: the sequential system
_REDUCTION_LEVELS = 2


class _Reduction(NamedTuple):
    """One odd-even reduction level of a tridiagonal system of size n.

    Row 2k + 1 gives x_{2k+1} = f_{2k+1}/d_{2k+1} - gl_k x_{2k} - gu_k x_{2k+2};
    substituted into the even rows it leaves a tridiagonal system in the
    even unknowns whose right-hand side is f_{2k} - al_k f_{2k-1} - be_k f_{2k+1}.
    """

    inv_odd: np.ndarray  # 1/d at the odd rows
    gl: np.ndarray  # lower/d at the odd rows
    gu: np.ndarray  # upper/d at the odd rows that have an even right neighbour
    al: np.ndarray  # even row 2k (k >= 1): lower_{2k-1}/d_{2k-1}
    be: np.ndarray  # even row 2k with an odd right neighbour: upper_{2k}/d_{2k+1}

    def reduce_rhs(self, f: np.ndarray) -> np.ndarray:
        """Right-hand side of the even system."""
        odd = f[1::2]
        g = f[0::2].copy()
        g[1:] -= self.al * odd[: len(self.al)]
        g[: len(self.be)] -= self.be * odd
        return g

    def back_substitute(self, f: np.ndarray, x_even: np.ndarray) -> np.ndarray:
        """The full solution from the original right-hand side and x_even."""
        x = np.empty_like(f)
        x[0::2] = x_even
        odd = x[1::2]
        np.multiply(f[1::2], self.inv_odd, out=odd)
        odd -= self.gl * x_even[: len(odd)]
        odd[: len(self.gu)] -= self.gu * x_even[1:]
        return x


def _reduce(op: Tridiagonal) -> tuple[_Reduction, Tridiagonal]:
    """Eliminate the odd unknowns of op: the level and the even Schur complement.

    Stable without pivoting when op is strictly diagonally dominant by rows,
    which the complement then is too.
    """
    lower, diag, upper = op
    n_even = (len(diag) + 1) // 2
    inv_odd = 1.0 / diag[1::2]
    n_odd = len(inv_odd)
    al = lower[1::2] * inv_odd[: n_even - 1]
    be = upper[0::2] * inv_odd
    gl = lower[0::2] * inv_odd
    gu = upper[1::2] * inv_odd[: n_even - 1]
    d = diag[0::2].copy()
    d[1:] -= al * upper[1::2]
    d[:n_odd] -= be * lower[0::2]
    reduced = Tridiagonal(
        -al * lower[0::2][: n_even - 1], d, -be[: n_even - 1] * upper[1::2]
    )
    return _Reduction(inv_odd, gl, gu, al, be), reduced


class _OddEvenLU:
    """Solver of a tridiagonal system: _REDUCTION_LEVELS odd-even reduction
    levels (Hockney 1965; Buzbee, Golub and Nielson 1970), then ?gttrf/?gttrs
    on the remaining even system, all set up once."""

    def __init__(self, op: Tridiagonal):
        self._levels = []
        for _ in range(_REDUCTION_LEVELS):
            level, op = _reduce(op)
            self._levels.append(level)
        self._lu = op.factor()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs_at = []
        for level in self._levels:
            rhs_at.append(rhs)
            rhs = level.reduce_rhs(rhs)
        x = self._lu.solve(rhs)
        for level, f in zip(reversed(self._levels), reversed(rhs_at)):
            x = level.back_substitute(f, x)
        return x


class CrankNicolson:
    """Crank-Nicolson propagator v = (Id - zL)^{-1} (Id + zL) u, z = i tau/2,
    of L = Delta_gamma, evaluated as v = u + 2 (Id - zL)^{-1} zLu.

    The increment form keeps the fixed rounding of the prepared solve acting
    on zLu, which is small next to u for resolved fields, so the mass drift
    stays below that of 2 (Id - zL)^{-1} u - u.  The factor 2 sits in the
    matrix: the solve is with (Id - zL)/2.  Id - zL is strictly diagonally
    dominant by rows, so the solve runs through odd-even reduction without
    pivoting, prepared at construction.
    """

    def __init__(self, lap: Tridiagonal, tau: float):
        z = 0.5j * tau
        self._zlap = Tridiagonal(z * lap.lower, z * lap.diag, z * lap.upper)
        w = 0.5 * z
        self._lu = _OddEvenLU(
            Tridiagonal(-w * lap.lower, 0.5 - w * lap.diag, -w * lap.upper)
        )

    def __call__(self, u: np.ndarray) -> np.ndarray:
        v = self._lu.solve(self._zlap.apply(u))
        v += u
        return v


@lru_cache(maxsize=1)
def _helmholtz_lu(grid: RadialGrid, params: EquationParams) -> TridiagonalLU:
    """Factors of omega - Delta_gamma; one is held, so a descent factors once."""
    lower, diag, upper = lap_gamma_diagonals(grid, params.gamma, params.mu)
    return Tridiagonal(-lower, params.omega - diag, -upper).factor()


def solve_helmholtz(
    grid: RadialGrid, rhs: np.ndarray, params: EquationParams
) -> np.ndarray:
    """Solve (omega - Delta_gamma) x = rhs; the operator is positive definite."""
    return _helmholtz_lu(grid, params).solve(rhs)
