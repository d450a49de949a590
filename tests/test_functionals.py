import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from radialnls import (
    EquationParams,
    RadialField,
    ScalingPair,
    build_grid,
    gradient_norm_sq,
    report,
)
from radialnls.classify import gaussian
from radialnls.functionals import DEFAULT_PAIRS, NEHARI_PAIR, VIRIAL_PAIR

from helpers import fd_check_k, radial_sobolev_ratio, random_smooth_field

# closed forms for f = e^{-r^2} at gamma = mu = omega = 1
MASS_EXACT = (np.pi / 2.0) ** 1.5
KIN_EXACT = 1.5 * np.pi**1.5 / np.sqrt(2.0)
POT_EXACT = np.pi
QUART_EXACT = np.pi * (np.pi / 64.0) ** 0.5  # 4 pi int r^2 e^{-4 r^2} dr


def t_alpha_beta(f, pair, params):
    """T^{alpha,beta} = S - K^{alpha,beta} / (2 alpha - beta), from one report."""
    rep = report(f, params)
    return rep.action - rep.k(pair, params) / (2.0 * pair.alpha - pair.beta)


@pytest.fixture(scope="module")
def fine_grid():
    return build_grid(4096, 16.0)


@pytest.fixture(scope="module")
def gauss(fine_grid):
    return gaussian(fine_grid, 1.0, 1.0)


class TestScalingPair:
    def test_admissible(self):
        ScalingPair(1.0, 0.0)
        ScalingPair(3.0, 2.0)  # boundary 2a - 3b = 0

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (-1.0, 0.0), (1.0, -0.5), (1.0, 1.0)])
    def test_inadmissible(self, a, b):
        with pytest.raises(ValueError):
            ScalingPair(a, b)


class TestReport:
    def test_zero_field(self, fine_grid, params_default):
        f = RadialField(fine_grid, np.zeros(fine_grid.n, dtype=complex))
        rep = report(f, params_default)
        assert rep.mass == rep.kinetic == rep.quartic == 0.0
        assert rep.energy == rep.action == 0.0

    def test_gaussian_closed_forms(self, gauss, params_default):
        rep = report(gauss, params_default)
        assert rep.mass == pytest.approx(MASS_EXACT, rel=1e-6)
        assert rep.kinetic == pytest.approx(KIN_EXACT, rel=1e-4)
        assert rep.potential_term == pytest.approx(POT_EXACT, rel=1e-4)
        assert rep.quartic == pytest.approx(QUART_EXACT, rel=1e-6)
        energy = 0.5 * KIN_EXACT + 0.5 * POT_EXACT - 0.25 * QUART_EXACT
        assert rep.energy == pytest.approx(energy, rel=1e-4)
        assert rep.action == pytest.approx(0.5 * MASS_EXACT + energy, rel=1e-4)
        assert rep.sobolev_gamma_sq == rep.kinetic + rep.potential_term
        assert rep.h1_omega_gamma_sq == rep.mass + rep.sobolev_gamma_sq

    def test_amplitude_homogeneity(self, fine_grid, params_default, rng):
        f = random_smooth_field(fine_grid, rng)
        lam = 0.37
        g = RadialField(fine_grid, np.exp(lam) * f.values)
        r0, r1 = report(f, params_default), report(g, params_default)
        s = np.exp(2.0 * lam)
        assert r1.mass == pytest.approx(s * r0.mass, rel=1e-13)
        assert r1.kinetic == pytest.approx(s * r0.kinetic, rel=1e-13)
        assert r1.potential_term == pytest.approx(s * r0.potential_term, rel=1e-13)
        assert r1.quartic == pytest.approx(s**2 * r0.quartic, rel=1e-13)


class TestKFamilies:
    def test_nehari_is_k10(self, gauss, params_default):
        rep = report(gauss, params_default)
        expected = (
            rep.h1_omega_gamma_sq - rep.quartic
        )  # omega*mass + sobolev - quartic
        assert rep.k(NEHARI_PAIR, params_default) == expected

    def test_virial_is_k32(self, gauss, params_default):
        rep = report(gauss, params_default)
        expected = (
            2.0 * rep.kinetic
            + params_default.mu * rep.potential_term
            - 1.5 * rep.quartic
        )
        assert rep.k(VIRIAL_PAIR, params_default) == pytest.approx(expected, rel=1e-14)

    def test_gaussian_virial_value(self, gauss, params_default):
        expected = 2.0 * KIN_EXACT + POT_EXACT - 1.5 * QUART_EXACT
        k32 = report(gauss, params_default).k(VIRIAL_PAIR, params_default)
        assert k32 == pytest.approx(expected, rel=1e-4)

    def test_virial_mass_independent(self, fine_grid, params_default, rng):
        # the (3,2) mass coefficient vanishes identically
        from radialnls.functionals import k_coefficients

        cm, _, _, _ = k_coefficients(ScalingPair(3.0, 2.0), params_default.mu)
        assert cm == 0.0

    def test_zero_field(self, fine_grid, params_default):
        f = RadialField(fine_grid, np.zeros(fine_grid.n, dtype=complex))
        rep = report(f, params_default)
        assert rep.k(NEHARI_PAIR, params_default) == 0.0
        assert rep.k(VIRIAL_PAIR, params_default) == 0.0


class TestKFromReport:
    grid = build_grid(256, 16.0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        complex_phase=st.booleans(),
        alpha=st.floats(0.01, 5.0),
        beta_frac=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 4.0),
        mu=st.floats(0.05, 1.95),
        omega=st.floats(0.05, 4.0),
    )
    def test_linear_in_the_pair(self, seed, complex_phase, alpha, beta_frac,
                                gamma, mu, omega):
        params = EquationParams(gamma=gamma, mu=mu, omega=omega)
        # beta < 2 alpha / 3 keeps the pair admissible through rounding
        pair = ScalingPair(alpha, 0.6 * beta_frac * alpha)
        f = random_smooth_field(self.grid, np.random.default_rng(seed),
                                complex_phase=complex_phase)
        rep = report(f, params)
        # K is linear in the pair: K^{a,b} = a K^{1,0} + b (K^{3,2} - 3 K^{1,0}) / 2
        k10, k32 = rep.k(NEHARI_PAIR, params), rep.k(VIRIAL_PAIR, params)
        scale = (pair.alpha + pair.beta) * (
            omega * rep.mass + rep.kinetic + rep.potential_term + rep.quartic)
        assert rep.k(pair, params) == pytest.approx(
            pair.alpha * k10 + pair.beta * (k32 - 3.0 * k10) / 2.0,
            rel=1e-12, abs=1e-12 * scale)


class TestTFunctional:
    def test_t10_is_quartic_over_four(self, fine_grid, params_default, rng):
        for _ in range(5):
            f = random_smooth_field(fine_grid, rng)
            rep = report(f, params_default)
            t = t_alpha_beta(f, ScalingPair(1.0, 0.0), params_default)
            assert t == pytest.approx(rep.quartic / 4.0, rel=1e-12, abs=1e-14)

    def test_zero(self, fine_grid, params_default):
        f = RadialField(fine_grid, np.zeros(fine_grid.n, dtype=complex))
        assert t_alpha_beta(f, ScalingPair(3.0, 2.0), params_default) == 0.0

    def test_gaussian_t32(self, gauss, params_default):
        rep = report(gauss, params_default)
        t = t_alpha_beta(gauss, ScalingPair(3.0, 2.0), params_default)
        assert t == pytest.approx(rep.action - rep.k(VIRIAL_PAIR, params_default) / 4.0)


class TestFdCheck:
    def test_zero_field(self, fine_grid, params_default):
        f = RadialField(fine_grid, np.zeros(fine_grid.n, dtype=complex))
        analytic, fd = fd_check_k(f, ScalingPair(1.0, 0.0), params_default, 1e-3)
        assert analytic == 0.0
        assert fd == 0.0

    def test_gaussian_nehari_fd(self, gauss, params_default):
        analytic, fd = fd_check_k(gauss, ScalingPair(1.0, 0.0), params_default, 1e-3)
        assert fd == pytest.approx(analytic, abs=1e-4 * (1.0 + abs(analytic)))

    def test_richardson_order(self, gauss, params_default):
        pair = ScalingPair(3.0, 2.0)
        analytic, fd1 = fd_check_k(gauss, pair, params_default, 1e-2)
        _, fd2 = fd_check_k(gauss, pair, params_default, 5e-3)
        e1, e2 = abs(fd1 - analytic), abs(fd2 - analytic)
        order = np.log2(e1 / e2)
        assert 1.5 < order < 2.5

    def test_eps_validation(self, gauss, params_default):
        with pytest.raises(ValueError):
            fd_check_k(gauss, ScalingPair(1.0, 0.0), params_default, 0.0)
        with pytest.raises(ValueError):
            fd_check_k(gauss, ScalingPair(1.0, 0.0), params_default, 0.1)

    def test_support_guard(self, fine_grid, params_default):
        wide = gaussian(fine_grid, 1.0, 20.0)  # visible amplitude at R_max
        with pytest.raises(ValueError, match="domain"):
            fd_check_k(wide, ScalingPair(3.0, 2.0), params_default, 1e-3)


class TestEquivalenceInequality:
    def test_two_sided_bound(self, fine_grid, params_default, rng):
        # 2(a-b) S <= (a-b) ||f||^2_{H1} <= (4a-3b) S whenever K >= 0
        pairs = list(DEFAULT_PAIRS)
        checked = 0
        for _ in range(60):
            f = random_smooth_field(fine_grid, rng)
            rep = report(f, params_default)
            for pair in pairs:
                if rep.k(pair, params_default) < 0.0:
                    continue
                a, b = pair.alpha, pair.beta
                lhs = 2.0 * (a - b) * rep.action
                mid = (a - b) * rep.h1_omega_gamma_sq
                rhs = (4.0 * a - 3.0 * b) * rep.action
                scale = abs(mid) + 1e-30
                assert lhs <= mid + 1e-10 * scale
                assert mid <= rhs + 1e-10 * scale
                checked += 1
        assert checked > 50


class TestPositivityOfK:
    def test_flattening_family(self, params_default):
        # widening, flattening Gaussians with bounded H^1 norm have
        # vanishing gradient and eventually positive K for every pair
        grid = build_grid(4096, 64.0)
        became_positive = {pair: None for pair in DEFAULT_PAIRS}
        for i, w in enumerate([1.0, 2.0, 4.0, 8.0, 12.0]):
            rep = report(gaussian(grid, amplitude=w**-0.75, width=w), params_default)
            for pair in DEFAULT_PAIRS:
                k = rep.k(pair, params_default)
                if k > 0.0 and became_positive[pair] is None:
                    became_positive[pair] = i
        assert all(v is not None for v in became_positive.values())

    def test_final_member_positive(self, params_default):
        grid = build_grid(4096, 64.0)
        rep = report(gaussian(grid, amplitude=12.0**-0.75, width=12.0), params_default)
        for pair in DEFAULT_PAIRS:
            assert rep.k(pair, params_default) > 0.0


class TestNehariRescaling:
    def test_unique_zero_and_t_decrease(self, fine_grid, params_default):
        # for K^{1,0}(f) < 0 the rescale lambda = sqrt(h1/quartic) lies in
        # (0,1), zeroes the Nehari functional, and decreases T^{1,0}
        f = gaussian(fine_grid, 6.0, 1.0)
        params = params_default
        rep = report(f, params)
        assert rep.k(NEHARI_PAIR, params) < 0.0
        lam = np.sqrt(rep.h1_omega_gamma_sq / rep.quartic)
        assert 0.0 < lam < 1.0
        g = RadialField(fine_grid, lam * f.values)
        rep_g = report(g, params)
        assert abs(rep_g.k(NEHARI_PAIR, params)) <= 1e-12 * rep_g.h1_omega_gamma_sq
        pair = ScalingPair(1.0, 0.0)
        assert t_alpha_beta(g, pair, params) < t_alpha_beta(f, pair, params)


class TestRadialSobolevRatio:
    def test_interior_support_errors(self, fine_grid):
        vals = np.zeros(fine_grid.n)
        vals[: fine_grid.n // 8] = 1.0  # supported inside r < 2
        f = RadialField(fine_grid, vals.astype(complex))
        with pytest.raises(ValueError, match="vanishes"):
            radial_sobolev_ratio(f, 8.0)

    def test_gaussian_finite(self, gauss):
        ratio = radial_sobolev_ratio(gauss, 1.0)
        assert np.isfinite(ratio)
        assert ratio > 0.0

    def test_scale_invariance(self, gauss, fine_grid):
        ratio1 = radial_sobolev_ratio(gauss, 1.0)
        f2 = RadialField(fine_grid, 3.7 * gauss.values)
        ratio2 = radial_sobolev_ratio(f2, 1.0)
        assert ratio2 == pytest.approx(ratio1, rel=1e-12)

    def test_r_validation(self, gauss, fine_grid):
        with pytest.raises(ValueError):
            radial_sobolev_ratio(gauss, fine_grid.r_max + 1.0)


def complex_gradient_norm_sq(grid, u):
    """The face-centered gradient norm as the complex formula with ``/ h``
    computes it: the reference a real field must match bit for bit."""
    u = u.astype(complex)
    faces = grid.faces[1:]
    du = np.empty(grid.n, dtype=complex)
    du[:-1] = (u[1:] - u[:-1]) / grid.h
    du[-1] = (0.0 - u[-1]) / grid.h
    return float(4.0 * np.pi * grid.h * np.sum(faces**2 * np.abs(du) ** 2))


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


class TestRealField:
    """A float64 field stays real, and its report is that of its complex
    promotion: the descent evaluates real iterates through the one report."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(16, 512),
        r_max=st.floats(1.01, 64.0),
        seed=st.integers(0, 2**32 - 1),
        exponents=st.tuples(st.integers(-150, 150), st.integers(-150, 150)),
        zero_share=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 8.0),
        mu=st.floats(0.01, 1.99),
        omega=st.floats(0.01, 8.0),
    )
    def test_report_equals_that_of_the_complex_promotion(
        self, n, r_max, seed, exponents, zero_share, gamma, mu, omega
    ):
        grid = build_grid(n, r_max)
        assume(math.frexp(grid.h)[0] != 0.5)  # h is not a power of two
        rng = np.random.default_rng(seed)
        lo, hi = sorted(exponents)
        # signed entries of magnitude 10^lo .. 10^hi, some exactly zero
        u = rng.standard_normal(n) * 10.0 ** rng.uniform(lo, hi, n)
        u[rng.random(n) < zero_share] = 0.0
        params = EquationParams(gamma=gamma, mu=mu, omega=omega)
        real = RadialField(grid, u)
        assert real.values.dtype == np.float64
        promoted = RadialField(grid, u.astype(complex))
        with np.errstate(over="ignore"):  # large entries overflow the quartic
            assert outcome(report, real, params) == outcome(report, promoted, params)
            assert gradient_norm_sq(real) == complex_gradient_norm_sq(grid, u)

    def test_only_float64_stays_real(self):
        grid = build_grid(64, 8.0)
        assert RadialField(grid, np.ones(grid.n)).values.dtype == np.float64
        for dtype in (np.float32, np.int64):
            field = RadialField(grid, np.ones(grid.n, dtype=dtype))
            assert field.values.dtype == np.complex128

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_real_field_rejected(self, bad):
        grid = build_grid(64, 8.0)
        vals = np.ones(grid.n)
        vals[5] = bad
        with pytest.raises(ValueError, match="^field contains non-finite entries$"):
            RadialField(grid, vals)
