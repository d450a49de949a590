import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import DOP853, solve_ivp

import radialnls
from radialnls import (
    EquationParams,
    RadialField,
    ScalingPair,
    build_grid,
    ground_state,
    minimize_quotient,
    nehari,
    report,
    shoot_ode,
)
from radialnls.fields import gaussian, random_smooth_field
from radialnls.ground_state import (
    MAX_CORE_SPACING,
    SHOOT_ATOL,
    SHOOT_BRACKET,
    SHOOT_RTOL,
    _dense_sample,
    _dop853_step,
    _residuals,
    _shoot_accel,
    _shoot_classify,
    _shoot_start,
)


def _solve_ivp_shot(params, r0, r_end, a, dense=False):
    """The oracle's shot through solve_ivp: DOP853 at the oracle's tolerances,
    stopped when q falls through 0 or q' rises through 0."""
    accel = _shoot_accel(params)

    def cross(r, y):
        return y[0]

    def turn(r, y):
        return y[1]

    cross.terminal = turn.terminal = True
    cross.direction, turn.direction = -1, 1
    return solve_ivp(
        lambda r, y: (y[1], accel(r, y[0], y[1])), (r0, r_end),
        _shoot_start(params, r0, a), method="DOP853", events=(cross, turn),
        rtol=SHOOT_RTOL, atol=SHOOT_ATOL, dense_output=dense,
    )


def _loop_step(r, h, r_new, q, p, fp, omega, gamma, mu):
    """One DOP853 attempt as a loop over scipy's tableau with zero entries
    dropped, each sum started at 0.0: the reference for the generated kernel."""
    accel = _shoot_accel(EquationParams(gamma, mu, omega))

    def wsum(weights, k):
        total = 0.0
        for j, w in enumerate(weights):
            if w != 0.0:
                total += float(w) * k[j]
        return total

    n = DOP853.n_stages
    kq, kp = [p] + [0.0] * n, [fp] + [0.0] * n
    for s in range(1, n):
        ys, ps = q + h * wsum(DOP853.A[s, :s], kq), p + h * wsum(DOP853.A[s, :s], kp)
        kq[s], kp[s] = ps, accel(r + float(DOP853.C[s]) * h, ys, ps)
    q_new, p_new = q + h * wsum(DOP853.B, kq), p + h * wsum(DOP853.B, kp)
    kq[n], kp[n] = p_new, accel(r_new, q_new, p_new)
    return (q_new, p_new, kp[n], wsum(DOP853.E5, kq), wsum(DOP853.E5, kp),
            wsum(DOP853.E3, kq), wsum(DOP853.E3, kp), tuple(kq), tuple(kp))


def _flat(record):
    for x in record:
        yield from (_flat(x) if isinstance(x, tuple) else (x,))


class TestMinimizeQuotient:
    def test_converges_and_positive(self, ground_default):
        res = ground_default
        assert res.converged
        q = res.profile.values.real
        assert np.all(q >= 0.0)
        assert q.max() > 1.0
        # decreasing past the core maximum
        peak = int(np.argmax(q))
        tail = q[peak + 5 :]
        assert np.all(np.diff(tail) <= 1e-12 * q.max())

    def test_level_positive_and_el_residual(self, ground_default):
        assert ground_default.level > 0.0
        assert ground_default.ode_residual < 1e-8

    def test_nehari_residual_tiny(self, ground_default, params_default):
        h1 = report(ground_default.profile, params_default).h1_omega_gamma_sq
        k10 = ground_default.k_residuals[ScalingPair(1.0, 0.0)]
        assert abs(k10) <= 1e-8 * h1

    def test_k_residuals_within_tolerance(self, ground_default, params_default):
        h1 = report(ground_default.profile, params_default).h1_omega_gamma_sq
        for pair, val in ground_default.k_residuals.items():
            assert abs(val) <= 1e-4 * h1, (pair, val)

    def test_gamma_to_zero_limit(self):
        # at gamma = 1e-8 the level matches the free-equation shooting oracle
        grid = build_grid(2048, 32.0)
        eps_params = EquationParams(gamma=1e-8, mu=1.0, omega=1.0)
        free_params = EquationParams(gamma=0.0, mu=1.0, omega=1.0)
        lvl = minimize_quotient(eps_params, grid).level
        oracle = shoot_ode(free_params, grid)
        assert lvl == pytest.approx(oracle.level, rel=1e-3)

    def test_grid_convergence_second_order(self, params_default):
        levels = {}
        for n in (1024, 2048, 4096):
            grid = build_grid(n, 32.0)
            levels[n] = minimize_quotient(params_default, grid).level
        e1 = abs(levels[1024] - levels[4096])
        e2 = abs(levels[2048] - levels[4096])
        assert e2 < e1
        # Richardson-style: successive gaps shrink by about 4
        assert 2.5 < (levels[1024] - levels[2048]) / (levels[2048] - levels[4096]) < 6.0

    def test_monotone_in_gamma(self, ground_default):
        grid = build_grid(2048, 32.0)
        lvl_small = minimize_quotient(
            EquationParams(gamma=1e-8, mu=1.0, omega=1.0), grid
        ).level
        lvl_one = minimize_quotient(
            EquationParams(gamma=1.0, mu=1.0, omega=1.0), grid
        ).level
        # repulsive potential raises the threshold; recorded as regression datum
        assert lvl_one > lvl_small

    def test_minimality_over_nehari_trials(self, ground_default, params_default, rng):
        # any nonzero trial field projected onto the Nehari set has action
        # at least the level (up to solver tolerance)
        grid = ground_default.profile.grid
        count = 0
        for _ in range(20):
            f = random_smooth_field(grid, rng)
            rep = report(f, params_default)
            if rep.quartic < 1e-12:
                continue
            lam = np.sqrt(rep.h1_omega_gamma_sq / rep.quartic)
            g = RadialField(grid, lam * f.values)
            assert abs(nehari(g, params_default)) <= 1e-9 * report(
                g, params_default
            ).h1_omega_gamma_sq
            s = report(g, params_default).action
            assert s >= ground_default.level * (1.0 - 1e-3)
            count += 1
        assert count >= 15


class TestShootOde:
    def test_agrees_with_descent(self, ground_default, ground_oracle):
        assert ground_oracle.level == pytest.approx(
            ground_default.level, rel=1e-3
        )

    def test_self_consistency_two_resolutions(self, params_default):
        masses = []
        for n in (2048, 4096):
            grid = build_grid(n, 32.0)
            res = shoot_ode(params_default, grid)
            masses.append(report(res.profile, params_default).mass)
        assert masses[0] == pytest.approx(masses[1], rel=1e-4)

    def test_free_equation_classic_amplitude(self):
        # the free cubic profile starts near 4.3374 at omega = 1
        grid = build_grid(2048, 32.0)
        res = shoot_ode(EquationParams(gamma=0.0, mu=1.0, omega=1.0), grid)
        assert res.shoot_amplitude == pytest.approx(4.3374, abs=2e-3)

    def test_profile_positive(self, ground_oracle):
        assert np.all(ground_oracle.profile.values.real >= 0.0)

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("omega", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("mu", [1.9, 1.99])
    def test_bracket_search_down_to_the_separatrix(self, gamma, omega, mu, grid_default):
        """Near mu = 2 the separatrix amplitude lies far below SHOOT_BRACKET
        (down to ~3e-7): the search moves the bracket down, and the oracle
        still agrees with quotient descent."""
        params = EquationParams(gamma=gamma, mu=mu, omega=omega)
        oracle = shoot_ode(params, grid_default)
        assert oracle.shoot_amplitude < SHOOT_BRACKET[0]
        level = minimize_quotient(params, grid_default).level
        assert abs(oracle.level - level) <= 1e-4 * level

    def test_bracket_search_up_to_the_separatrix(self, grid_default):
        # the separatrix amplitude, ~56, lies above SHOOT_BRACKET
        params = EquationParams(gamma=50.0, mu=0.5, omega=4.0)
        oracle = shoot_ode(params, grid_default)
        assert oracle.shoot_amplitude > SHOOT_BRACKET[1]
        level = minimize_quotient(params, grid_default).level
        assert abs(oracle.level - level) <= 1e-3 * level

    @pytest.mark.parametrize("sign", [-1, +1])
    def test_bracket_search_stops_at_float_range(self, sign, monkeypatch):
        """A sign test that never changes sign drives the bracket to 0 or to
        overflowing start values; the search then names its last bracket."""
        monkeypatch.setattr(ground_state, "_shoot_classify", lambda *args: sign)
        with pytest.raises(RuntimeError, match=re.escape("last bracket (")):
            shoot_ode(EquationParams(gamma=1.0, mu=1.0, omega=1.0), build_grid(1024, 32.0))

    @pytest.mark.parametrize("gamma, n, r_max", [
        (1.0, 64, 16.0), (0.0, 64, 16.0), (1.0, 107, 32.0),
    ])
    def test_coarse_grid_negative_start(self, gamma, n, r_max):
        """On these grids the start expansion at r0 = h/2 is already negative
        at the bracket's high end; that start counts as a crossing, so the
        search stops instead of walking up to float range."""
        params = EquationParams(gamma=gamma, mu=1.0, omega=1.0)
        grid = build_grid(n, r_max)
        q0, _ = _shoot_start(params, grid.h / 2.0, SHOOT_BRACKET[1])
        assert q0 < 0.0
        res = shoot_ode(params, grid)
        assert np.isfinite(res.level) and res.level > 0.0

    @pytest.mark.parametrize("gamma, n, amplitude, level", [
        (1.0, 4096, 5.894779341478749, 36.97681866238725),
        (0.0, 2048, 4.337388366955185, 18.89717614305621),
    ])
    def test_pinned_values(self, gamma, n, amplitude, level):
        # amplitude and level that solve_ivp sign tests give; the scalar loop
        # must reproduce them
        res = shoot_ode(EquationParams(gamma=gamma, mu=1.0, omega=1.0), build_grid(n, 32.0))
        assert res.shoot_amplitude == pytest.approx(amplitude, rel=1e-12, abs=0.0)
        assert res.level == pytest.approx(level, rel=1e-12, abs=0.0)


class TestShootClassify:
    @pytest.mark.parametrize("point", [
        (1.0, 1.0, 1.0), (0.0, 0.5, 1.0), (3.9, 1.19, 0.26), (0.1, 0.05, 0.3),
    ])
    def test_matches_solve_ivp(self, point, grid_default):
        """The scalar sign test agrees with solve_ivp's DOP853 event record,
        down to 2^-40 relative distance from the separatrix amplitude."""
        params = EquationParams(*point)
        r0, r_end = grid_default.h / 2.0, grid_default.r_max
        a_star = shoot_ode(params, grid_default).shoot_amplitude
        amplitudes = [a_star * (1.0 + s * 2.0**-k) for k in range(1, 41) for s in (1, -1)]
        amplitudes += [0.5, 1.0, 10.0, 20.0, 30.0]
        mismatched = []
        for a in amplitudes:
            ref = _solve_ivp_shot(params, r0, r_end, a)
            expected = -1 if ref.t_events[0].size else +1
            if _shoot_classify(params, r0, r_end, a) != expected:
                mismatched.append(a)
        assert mismatched == []

    def test_negative_start_counts_as_crossing(self, params_default, grid_default):
        """At a = 1e8 the start value q(r0) is already below zero.  solve_ivp
        records no crossing event there (its step size underflows), but the
        profile has crossed zero, and the sign test returns -1."""
        r0, r_end = grid_default.h / 2.0, grid_default.r_max
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _solve_ivp_shot(params_default, r0, r_end, 1e8)
        assert ref.status == -1 and ref.t_events[0].size == 0
        assert _shoot_start(params_default, r0, 1e8)[0] < 0.0
        assert _shoot_classify(params_default, r0, r_end, 1e8) == -1


class TestDop853Step:
    @settings(max_examples=300, deadline=None)
    @given(
        r=st.floats(1e-3, 32.0), h=st.floats(1e-9, 0.5), r_new=st.floats(1e-3, 33.0),
        q=st.floats(-10.0, 10.0), p=st.floats(-10.0, 10.0), fp=st.floats(-100.0, 100.0),
        gamma=st.floats(0.0, 10.0), mu=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
        omega=st.floats(1e-3, 10.0),
    )
    def test_bit_identical_to_the_tableau_loop(self, r, h, r_new, q, p, fp, gamma, mu, omega):
        """The generated kernel returns exactly what the loop over the tableau
        computes, both 13-entry stage tuples included; a NaN (a stage that
        left float range) must match a NaN."""
        got = _dop853_step()(r, h, r_new, q, p, fp, omega, gamma, mu)
        ref = _loop_step(r, h, r_new, q, p, fp, omega, gamma, mu)
        assert len(got[7]) == len(got[8]) == 13
        assert all(x == y or (x != x and y != y) for x, y in zip(_flat(got), _flat(ref), strict=True))


class TestDenseSample:
    @pytest.mark.parametrize("point", [(1.0, 1.0, 1.0), (3.9, 1.19, 0.26)])
    def test_matches_solve_ivp_dense_output(self, point, grid_default):
        """At the oracle's amplitude, the node sample of the recorded steps
        matches solve_ivp's dense output of its own shot on the nodes up to
        its event.  The comparison stops where the profile falls below 1e-6
        of the amplitude: past that the separatrix instability, which grows
        like exp(2 sqrt(omega) r), has amplified the round-off by which the
        two step sequences differ, and the tail fill discards the sample
        below 1e-8 of the amplitude anyway."""
        params = EquationParams(*point)
        r0, r_end = grid_default.h / 2.0, grid_default.r_max
        a = shoot_ode(params, grid_default).shoot_amplitude
        steps = []
        _shoot_classify(params, r0, r_end, a, steps)
        sample = _dense_sample(params, steps, grid_default.r)
        ref = _solve_ivp_shot(params, r0, r_end, a, dense=True)
        nodes = grid_default.r[grid_default.r <= ref.t[-1]]
        expected = ref.sol(nodes)[0]
        core = nodes[: int(np.argmax(expected < 1e-6 * a))]
        assert core[-1] > 8.0
        err = np.abs(sample[: len(core)] - expected[: len(core)]).max()
        assert err <= 1e-10 * a


def test_import_footprint():
    """The package and its CLI import without scipy.interpolate,
    scipy.integrate, scipy.optimize or multiprocessing: each loads on the
    first call that needs it.  scipy.integrate stays out through a descent
    and an evolution, and the first shot brings it in."""
    env = dict(os.environ, PYTHONPATH=str(Path(radialnls.__file__).parents[1]))
    code = """if True:
        import sys, radialnls, radialnls.cli
        lazy = ("scipy.interpolate", "scipy.integrate", "scipy.optimize", "multiprocessing")
        print([m for m in lazy if m in sys.modules])
        from radialnls import EquationParams, EvolutionConfig, build_grid, minimize_quotient, run, shoot_ode
        params = EquationParams(1.0, 1.0, 1.0)
        ground = minimize_quotient(params, build_grid(512, 16.0))
        run(ground.profile, EvolutionConfig(dt=1e-3, t_end=0.01), params)
        print("scipy.integrate" in sys.modules)
        shoot_ode(params, ground.profile.grid)
        print("scipy.integrate" in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]", "False", "True"]


class TestValidatePohozaev:
    def test_residuals_vanish(self, ground_default, params_default):
        h1 = report(ground_default.profile, params_default).h1_omega_gamma_sq
        for pair, val in ground_default.k_residuals.items():
            assert abs(val) <= 1e-4 * h1

    def test_negative_control(self, ground_default, params_default):
        # a non-stationary field has residuals far from zero
        fake = gaussian(ground_default.profile.grid, 2.0, 1.5)
        _, res = _residuals(fake, params_default)
        h1 = report(fake, params_default).h1_omega_gamma_sq
        assert any(abs(v) > 1e-2 * h1 for v in res.values())


class TestScalingLawFreeEquation:
    def test_level_scales_as_sqrt_omega(self):
        # at gamma = 0 the threshold obeys level(omega) = sqrt(omega) level(1)
        grid = build_grid(4096, 32.0)
        lvl = {}
        for omega in (0.5, 1.0, 2.0):
            params = EquationParams(gamma=0.0, mu=1.0, omega=omega)
            lvl[omega] = minimize_quotient(params, grid).level
        for omega in (0.5, 2.0):
            assert lvl[omega] / lvl[1.0] == pytest.approx(omega**0.5, rel=1e-3)


class TestCoreResolution:
    @pytest.mark.parametrize("solver", [minimize_quotient, shoot_ode])
    def test_unresolved_core_rejected(self, solver):
        # h = 1/32 and omega = 100 put the core width 1/10 under 4 cells
        params = EquationParams(gamma=0.0, mu=1.0, omega=100.0)
        with pytest.raises(ValueError,
                           match=re.escape("h*sqrt(omega) = 0.3125 exceeds 0.3")):
            solver(params, build_grid(1024, 32.0))

    def test_spacing_at_the_limit_accepted(self):
        grid = build_grid(32, 9.6)
        assert grid.h == MAX_CORE_SPACING
        res = minimize_quotient(EquationParams(gamma=0.0, mu=1.0, omega=1.0), grid)
        assert res.converged
