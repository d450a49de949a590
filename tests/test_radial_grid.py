import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

import radialnls
from radialnls import (
    EquationParams,
    RadialField,
    build_grid,
    gradient_norm_sq,
    integrate,
)
from radialnls.radial_grid import (
    CrankNicolson, Tridiagonal, _OddEvenLU, _scipy_module, lap_gamma_diagonals, r_pow,
)

from helpers import embed_field, random_smooth_field


def lap_of(grid, params):
    return lap_gamma_diagonals(grid, params.gamma, params.mu)


def inner_product(grid, u, v):
    """Quadrature inner product <u, v> = int conj(u) v dx."""
    return complex(np.dot(grid.weights, np.conj(u) * v))


def gaussian_field(grid, width=1.0):
    return RadialField(grid, np.exp(-((grid.r / width) ** 2)).astype(complex))


class TestBuildGrid:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n too small"):
            build_grid(4, 10.0)

    def test_rejects_bad_rmax(self):
        with pytest.raises(ValueError):
            build_grid(100, 0.5)
        with pytest.raises(ValueError):
            build_grid(100, -3.0)

    def test_rejects_infinite_rmax(self):
        with pytest.raises(ValueError, match="R_max must be finite"):
            build_grid(64, np.inf)

    def test_node_layout(self):
        g = build_grid(100, 10.0)
        assert g.h == pytest.approx(0.1)
        assert g.r[0] == pytest.approx(0.05)
        assert g.r[99] == pytest.approx(9.95)
        assert np.allclose(np.diff(g.r), g.h)

    def test_fine_layout(self):
        g = build_grid(2048, 64.0)
        assert g.h == pytest.approx(0.03125)
        assert g.r[0] == pytest.approx(0.015625)
        assert g.r_max == pytest.approx(64.0)


class TestEquationParams:
    @pytest.mark.parametrize("name", ["gamma", "omega"])
    def test_rejects_infinite(self, name):
        values = {"gamma": 1.0, "mu": 1.0, "omega": 1.0, name: np.inf}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            EquationParams(**values)


class TestIntegrate:
    def test_zero(self, grid_small):
        assert integrate(grid_small, np.zeros(grid_small.n)) == 0.0

    def test_gaussian_closed_form(self):
        # int e^{-2r^2} dx = (pi/2)^{3/2}; staggered midpoint is
        # spectrally accurate for smooth even integrands
        g = build_grid(4096, 16.0)
        val = integrate(g, np.exp(-2.0 * g.r**2))
        assert val == pytest.approx((np.pi / 2.0) ** 1.5, rel=1e-6)

    def test_inverse_r_weight(self):
        # int e^{-2r^2}/r dx = 4 pi int r e^{-2r^2} dr = pi; the odd
        # integrand needs the finer spacing R_max=8 at n=4096 for 1e-6
        g = build_grid(4096, 8.0)
        val = integrate(g, np.exp(-2.0 * g.r**2) / g.r)
        assert val == pytest.approx(np.pi, rel=1e-6)

    def test_second_order_on_odd_integrand(self):
        vals = []
        for n in (2048, 4096):
            g = build_grid(n, 16.0)
            vals.append(integrate(g, np.exp(-2.0 * g.r**2) / g.r))
        err = [abs(v - np.pi) for v in vals]
        assert 3.0 < err[0] / err[1] < 5.0

    def test_rejects_nonfinite(self, grid_small):
        bad = np.zeros(grid_small.n)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            integrate(grid_small, bad)


class TestGradientNorm:
    def test_zero(self, grid_small):
        f = RadialField(grid_small, np.zeros(grid_small.n, dtype=complex))
        assert gradient_norm_sq(f) == 0.0

    def test_constant_boundary_only(self, grid_small):
        f = RadialField(grid_small, np.ones(grid_small.n, dtype=complex))
        # only the Dirichlet face at R_max contributes
        expected = 4.0 * np.pi * grid_small.r_max**2 / grid_small.h
        assert gradient_norm_sq(f) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_closed_form(self):
        # oracle: 16 pi int r^4 e^{-2r^2} dr = (3/2) pi^{3/2} / sqrt(2)
        g = build_grid(4096, 16.0)
        exact = 1.5 * np.pi**1.5 / np.sqrt(2.0)
        assert gradient_norm_sq(gaussian_field(g)) == pytest.approx(exact, rel=1e-4)

    def test_second_order(self):
        exact = 1.5 * np.pi**1.5 / np.sqrt(2.0)
        errs = []
        for n in (2048, 4096):
            g = build_grid(n, 16.0)
            errs.append(abs(gradient_norm_sq(gaussian_field(g)) - exact))
        assert 3.0 < errs[0] / errs[1] < 5.0


class TestLapGamma:
    def test_zero(self, grid_small, params_default):
        lap = lap_of(grid_small, params_default)
        assert np.all(lap.apply(np.zeros(grid_small.n, dtype=complex)) == 0.0)

    def test_quadratic_form_identity(self, grid_small, params_default, rng):
        # summation by parts: -<Lu, u> = ||grad u||^2 + int gamma r^-mu |u|^2
        lap = lap_of(grid_small, params_default)
        for _ in range(5):
            f = random_smooth_field(grid_small, rng)
            lhs = -np.real(inner_product(grid_small, f.values, lap.apply(f.values)))
            pot = integrate(
                grid_small,
                params_default.gamma / grid_small.r**params_default.mu * np.abs(f.values) ** 2,
            )
            rhs = gradient_norm_sq(f) + pot
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_symmetry(self, grid_small, params_default, rng):
        u = random_smooth_field(grid_small, rng)
        v = random_smooth_field(grid_small, rng)
        lap = lap_of(grid_small, params_default)
        lu = lap.apply(u.values)
        lv = lap.apply(v.values)
        a = inner_product(grid_small, lu, v.values)
        b = inner_product(grid_small, u.values, lv)
        assert a.real == pytest.approx(b.real, rel=1e-12, abs=1e-12)

    def test_negative_semidefinite(self, grid_small, params_default, rng):
        lap = lap_of(grid_small, params_default)
        for _ in range(5):
            f = random_smooth_field(grid_small, rng)
            quad = -np.real(inner_product(grid_small, f.values, lap.apply(f.values)))
            assert quad >= 0.0

    def test_gaussian_node_value(self, params_default):
        # Delta_gamma e^{-r^2} at r = 1 is (4-6)/e - 1/e = -3/e, up to O(h^2)
        g = build_grid(4096, 16.0)
        f = gaussian_field(g)
        out = lap_of(g, params_default).apply(f.values)
        j = int(np.argmin(np.abs(g.r - 1.0)))
        expected = (4.0 * g.r[j] ** 2 - 6.0) * np.exp(-g.r[j] ** 2) - np.exp(
            -g.r[j] ** 2
        ) / g.r[j]
        assert out[j].real == pytest.approx(expected, abs=5e-4)


class TestSolveCN:
    def test_zero(self, grid_small, params_default):
        cn = CrankNicolson(lap_of(grid_small, params_default), 1e-3)
        v = cn(np.zeros(grid_small.n, dtype=complex))
        assert np.all(v == 0.0)

    def test_norm_preservation(self, grid_small, params_default, rng):
        f = random_smooth_field(grid_small, rng, complex_phase=True)
        m0 = integrate(grid_small, np.abs(f.values) ** 2)
        v = CrankNicolson(lap_of(grid_small, params_default), 1e-3)(f.values)
        m1 = integrate(grid_small, np.abs(v) ** 2)
        assert m1 == pytest.approx(m0, rel=1e-12)

    def test_small_tau_identity(self, grid_small, params_default, rng):
        f = random_smooth_field(grid_small, rng)
        lap = lap_of(grid_small, params_default)
        scale = np.sqrt(integrate(grid_small, np.abs(lap.apply(f.values)) ** 2))
        tau = 1e-9
        v = CrankNicolson(lap, tau)(f.values)
        diff = np.sqrt(integrate(grid_small, np.abs(v - f.values) ** 2))
        assert diff <= 2.0 * tau * scale


_cn_cases = dict(
    n=st.integers(16, 300),
    r_max=st.floats(2.0, 64.0),
    gamma=st.floats(0.0, 4.0),
    mu=st.floats(0.05, 1.95),
    tau_over_h=st.floats(1e-5, 1.0),
    seed=st.integers(0, 2**32 - 1),
)


def _cn_case(n, r_max, gamma, mu, tau_over_h, seed):
    """(grid, lap, tau, u): tau in (0, h] as the stepper allows, u random."""
    grid = build_grid(n, r_max)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    return grid, lap_gamma_diagonals(grid, gamma, mu), tau_over_h * grid.h, u


class TestOddEvenReduction:
    """The reduced solve behind CrankNicolson, on Id - (i tau/2) Delta_gamma."""

    @settings(max_examples=60, deadline=None)
    @given(**_cn_cases)
    def test_matches_gttrs(self, n, r_max, gamma, mu, tau_over_h, seed):
        grid, lap, tau, f = _cn_case(n, r_max, gamma, mu, tau_over_h, seed)
        z = 0.5j * tau
        op = Tridiagonal(-z * lap.lower, 1.0 - z * lap.diag, -z * lap.upper)
        want = op.factor().solve(f)
        got = _OddEvenLU(op).solve(f)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @settings(max_examples=60, deadline=None)
    @given(**_cn_cases)
    def test_crank_nicolson_equation(self, n, r_max, gamma, mu, tau_over_h, seed):
        # (Id - zL) v = (Id + zL) u
        grid, lap, tau, u = _cn_case(n, r_max, gamma, mu, tau_over_h, seed)
        z = 0.5j * tau
        v = CrankNicolson(lap, tau)(u)
        lhs = Tridiagonal(-z * lap.lower, 1.0 - z * lap.diag, -z * lap.upper).apply(v)
        rhs = Tridiagonal(z * lap.lower, 1.0 + z * lap.diag, z * lap.upper).apply(u)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)

    @settings(max_examples=60, deadline=None)
    @given(**_cn_cases)
    def test_preserves_weighted_norm(self, n, r_max, gamma, mu, tau_over_h, seed):
        grid, lap, tau, u = _cn_case(n, r_max, gamma, mu, tau_over_h, seed)
        m0 = integrate(grid, np.abs(u) ** 2)
        m1 = integrate(grid, np.abs(CrankNicolson(lap, tau)(u)) ** 2)
        assert abs(m1 - m0) <= 1e-13 * m0

    def test_argument_not_mutated(self, grid_small, params_default, rng):
        u = random_smooth_field(grid_small, rng, complex_phase=True).values
        before = u.copy()
        CrankNicolson(lap_of(grid_small, params_default), 1e-3)(u)
        assert np.array_equal(u, before)


class TestTridiagonal:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(3, 300),
        seed=st.integers(0, 2**32 - 1),
        complex_matrix=st.booleans(),
        complex_vector=st.booleans(),
    )
    def test_solve_inverts_apply(self, n, seed, complex_matrix, complex_vector):
        rng = np.random.default_rng(seed)

        def draw(size, complex_entries):
            x = rng.uniform(-1.0, 1.0, size)
            if complex_entries:
                x = x + 1j * rng.uniform(-1.0, 1.0, size)
            return x

        # diagonal dominance keeps the condition number below ~5
        lower, upper = draw(n - 1, complex_matrix), draw(n - 1, complex_matrix)
        diag = draw(n, complex_matrix) + 3.0 * np.sign(rng.uniform(-1.0, 1.0, n))
        op = Tridiagonal(lower, diag, upper)
        x = draw(n, complex_vector)
        y = op.factor().solve(op.apply(x))
        assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(3, 300),
        seed=st.integers(0, 2**32 - 1),
        complex_matrix=st.booleans(),
        complex_vector=st.booleans(),
        dominant=st.booleans(),
        zero_row=st.none() | st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_lapack_matches_scipy_linalg(
        self, n, seed, complex_matrix, complex_vector, dominant, zero_row
    ):
        """factor() and solve() run scipy's LAPACK pair loaded by path, so
        every factor, the pivots included, and every solution equal, bit for
        bit, those of the routines scipy.linalg.lapack hands out; a real
        factorisation solves a complex right-hand side part by part.  A zero
        row makes the matrix singular, which both report."""
        from scipy.linalg.lapack import get_lapack_funcs

        rng = np.random.default_rng(seed)

        def draw(size, complex_entries):
            x = rng.uniform(-1.0, 1.0, size)
            if complex_entries:
                x = x + 1j * rng.uniform(-1.0, 1.0, size)
            return x

        lower, diag, upper = (draw(m, complex_matrix) for m in (n - 1, n, n - 1))
        if dominant:
            diag += 3.0 * np.sign(rng.uniform(-1.0, 1.0, n))
        if zero_row is not None:
            k = int(zero_row * n)
            diag[k] = 0.0
            lower[k - 1 : k] = 0.0
            upper[k : k + 1] = 0.0
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (diag,))
        *want, info = gttrf(lower, diag, upper)
        op = Tridiagonal(lower, diag, upper)
        if zero_row is not None:
            assert info > 0
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                op.factor()
            return
        assert info == 0
        lu = op.factor()
        assert len(lu._factors) == len(want) == 5
        for got, ref in zip(lu._factors, want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        rhs = draw(n, complex_vector)
        if complex_vector and not complex_matrix:
            ref = gttrs(*want, rhs.real)[0] + 1j * gttrs(*want, rhs.imag)[0]
        else:
            ref = gttrs(*want, rhs)[0]
        got = lu.solve(rhs)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_singular_raises(self):
        op = Tridiagonal(np.zeros(3), np.zeros(4), np.zeros(3))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            op.factor()

    def test_missing_scipy_file_names_the_paths(self):
        name = "scipy.linalg._no_such_module"
        with pytest.raises(ImportError) as excinfo:
            _scipy_module(name, EXTENSION_SUFFIXES)
        stem = Path(scipy.__file__).parent / "linalg" / "_no_such_module"
        for suffix in EXTENSION_SUFFIXES:
            assert f"{stem}{suffix}" in str(excinfo.value)
        assert name not in sys.modules


class TestFieldValidation:
    def test_wrong_length(self, grid_small):
        with pytest.raises(ValueError):
            RadialField(grid_small, np.zeros(3, dtype=complex))

    def test_nonfinite_rejected(self, grid_small):
        vals = np.zeros(grid_small.n, dtype=complex)
        vals[0] = np.inf
        with pytest.raises(ValueError):
            RadialField(grid_small, vals)


class TestRPow:
    def test_one_read_only_array_per_grid_and_mu(self, grid_small):
        rmu = r_pow(grid_small, 0.7)
        assert r_pow(grid_small, 0.7) is rmu
        assert not rmu.flags.writeable
        assert np.array_equal(rmu, grid_small.r**0.7)


class TestEmbed:
    def test_zero_pad_same_h(self, grid_small):
        f = gaussian_field(grid_small)
        big = build_grid(2 * grid_small.n, 2 * grid_small.r_max)
        g = embed_field(f, big)
        assert np.allclose(g.values[: grid_small.n], f.values)
        assert np.all(g.values[grid_small.n :] == 0.0)

    @pytest.mark.parametrize("n,r_max", [(128, 16.0), (1024, 8.0)], ids=["other-h", "fewer-cells"])
    def test_other_grid_rejected(self, grid_small, n, r_max):
        grid = build_grid(n, r_max)
        with pytest.raises(ValueError, match="^embed_field needs the same spacing"):
            embed_field(gaussian_field(grid_small), grid)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            EquationParams(gamma=-1.0, mu=1.0, omega=1.0)
        with pytest.raises(ValueError):
            EquationParams(gamma=1.0, mu=2.5, omega=1.0)
        with pytest.raises(ValueError):
            EquationParams(gamma=1.0, mu=1.0, omega=0.0)
        # gamma = 0 is the exact free-limit mode
        EquationParams(gamma=0.0, mu=1.0, omega=1.0)


def test_public_names_resolve_once():
    assert len(set(radialnls.__all__)) == len(radialnls.__all__)
    for name in radialnls.__all__:
        assert getattr(radialnls, name) is not None, name
