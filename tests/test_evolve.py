from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radialnls import (
    EquationParams,
    EvolutionConfig,
    Outcome,
    RadialField,
    build_grid,
    embed_field,
    integrate,
    minimize_quotient,
    monitor_k_bound,
    report,
    run,
    solve_cn,
    step,
    virial,
)
from radialnls import functionals
from radialnls.evolve import FlowBlowup, Snapshot, _Stepper, absorbing_profile
from radialnls.fields import gaussian, random_smooth_field


@pytest.fixture(scope="module")
def ground_small_state():
    params = EquationParams(gamma=1.0, mu=1.0, omega=1.0)
    res = minimize_quotient(params, build_grid(2048, 16.0))
    assert res.converged
    return res


@pytest.fixture(scope="module")
def params():
    return EquationParams(gamma=1.0, mu=1.0, omega=1.0)


class TestStep:
    def test_zero(self, grid_small, params):
        f = RadialField(grid_small, np.zeros(grid_small.n, dtype=complex))
        out = step(f, 1e-3, params)
        assert np.all(out.values == 0.0)

    def test_linear_regime(self, grid_small, params, rng):
        f = random_smooth_field(grid_small, rng)
        tiny = RadialField(grid_small, 1e-6 * f.values)
        nonlinear = step(tiny, 1e-3, params)
        linear = solve_cn(tiny, 1e-3, params)
        assert np.max(np.abs(nonlinear.values - linear.values)) < 1e-14

    def test_mass_preserved_per_step(self, grid_small, params, rng):
        f = random_smooth_field(grid_small, rng, complex_phase=True)
        m0 = integrate(grid_small, np.abs(f.values) ** 2)
        out = step(f, 1e-3, params)
        m1 = integrate(grid_small, np.abs(out.values) ** 2)
        assert m1 == pytest.approx(m0, rel=1e-12)

    def test_global_second_order(self, ground_small_state, params):
        # halving dt reduces the fixed-time error by about 4 (second order)
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 0.9 * ground_small_state.profile.values)
        t_final = 0.05

        def evolve_to(dt):
            u = u0
            for _ in range(int(round(t_final / dt))):
                u = step(u, dt, params)
            return u.values

        ref = evolve_to(2.5e-4)
        e1 = np.sqrt(integrate(grid, np.abs(evolve_to(2e-3) - ref) ** 2))
        e2 = np.sqrt(integrate(grid, np.abs(evolve_to(1e-3) - ref) ** 2))
        assert 2.8 < e1 / e2 < 5.5

    def test_global_fourth_order(self, params):
        # halving dt reduces the fixed-time error by about 16 (fourth order).
        # The order is asymptotic in dt |Delta_gamma|, so the grid is coarse
        # enough (h = 1/4) for it to show at these step sizes
        grid = build_grid(64, 16.0)
        ground = minimize_quotient(params, grid)
        u0 = RadialField(grid, 0.9 * ground.profile.values)
        t_final = 0.5

        def evolve_to(dt):
            cfg = EvolutionConfig(dt=dt, t_end=t_final, monitor_every=40,
                                  splitting_order=4, local_error_tol=np.inf,
                                  decay_window=np.inf)
            trace = run(u0, cfg, params)
            assert trace.final_time == pytest.approx(t_final)
            assert trace.dt_final == dt
            return trace.final_state.values

        ref = evolve_to(t_final / 5120)
        e1 = np.sqrt(integrate(grid, np.abs(evolve_to(t_final / 160) - ref) ** 2))
        e2 = np.sqrt(integrate(grid, np.abs(evolve_to(t_final / 320) - ref) ** 2))
        assert 12.0 < e1 / e2 < 20.0
        assert np.log2(e1 / e2) >= 3.5


def _l2(grid, u):
    return np.sqrt(integrate(grid, np.abs(u) ** 2))


class TestFusedAdvance:
    # the absorbing layer covers most of the domain, so the damped seam
    # between steps acts where the data lives
    grid = build_grid(256, 8.0)
    absorb_w = absorbing_profile(grid, 6.0, 50.0)

    def datum(self, seed, amplitude):
        rng = np.random.default_rng(seed)
        return amplitude * random_smooth_field(
            self.grid, rng, complex_phase=True).values

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        amplitude=st.floats(0.1, 3.0),
        n_steps=st.integers(1, 12),
        dt=st.floats(1e-4, 1e-2),
        order=st.sampled_from([2, 4]),
        absorb=st.booleans(),
    )
    def test_matches_repeated_step(self, params, seed, amplitude, n_steps,
                                   dt, order, absorb):
        stepper = _Stepper(self.grid, params, dt, order,
                           self.absorb_w if absorb else None)
        u = self.datum(seed, amplitude)
        stepwise = u
        for _ in range(n_steps):
            stepwise = stepper.step(stepwise)
        fused = stepper.advance(u, n_steps)
        assert _l2(self.grid, fused - stepwise) <= 1e-12 * _l2(self.grid, stepwise)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        amplitude=st.floats(0.1, 3.0),
        n_steps=st.integers(1, 50),
        dt=st.floats(1e-4, 1e-2),
        order=st.sampled_from([2, 4]),
    )
    def test_conserves_mass(self, params, seed, amplitude, n_steps, dt, order):
        stepper = _Stepper(self.grid, params, dt, order)
        u = self.datum(seed, amplitude)
        m0 = integrate(self.grid, np.abs(u) ** 2)
        m1 = integrate(self.grid, np.abs(stepper.advance(u, n_steps)) ** 2)
        assert m1 == pytest.approx(m0, rel=1e-12)

    def test_does_not_mutate_input(self, params):
        u = self.datum(7, 1.0)
        before = u.copy()
        _Stepper(self.grid, params, 1e-3, 4, self.absorb_w).advance(u, 3)
        assert np.array_equal(u, before)


class TestConservation:
    def test_drift_small_over_short_run(self, ground_small_state, params):
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 0.9 * ground_small_state.profile.values)
        cfg = EvolutionConfig(dt=1e-4, t_end=0.25, monitor_every=250,
                              decay_window=np.inf)
        trace = run(u0, cfg, params)
        assert trace.outcome is Outcome.RAN_TO_T_END
        assert trace.mass_drift[0] == 0.0
        assert trace.energy_drift[0] == 0.0
        assert max(abs(d) for d in trace.mass_drift) <= 1e-10
        assert max(abs(d) for d in trace.energy_drift) <= 1e-6

    def test_trace_lists_consistent(self, ground_small_state, params):
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 0.5 * ground_small_state.profile.values)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.1, monitor_every=20,
                              decay_window=np.inf)
        trace = run(u0, cfg, params)
        n = len(trace.times)
        for channel in (trace.mass_drift, trace.energy_drift, trace.l4_norm,
                        trace.grad_norm, trace.virial_K, trace.k_lower_bound_ok):
            assert len(channel) == n


class TestStandingWave:
    def test_modulus_and_phase(self, ground_small_state, params):
        q = ground_small_state.profile
        cfg = EvolutionConfig(dt=2.5e-4, t_end=0.25, monitor_every=100,
                              splitting_order=4, decay_window=np.inf)
        trace = run(q, cfg, params, reference=q)
        assert trace.outcome is Outcome.RAN_TO_T_END
        assert max(trace.ref_amp_dev) <= 1e-5
        phases = np.unwrap(trace.phase)
        rate = np.polyfit(trace.times, phases, 1)[0]
        assert rate == pytest.approx(params.omega, rel=0.01)


class TestValidation:
    @pytest.mark.parametrize(
        "name", ["dt", "t_end", "absorb_width", "absorb_strength", "min_dt",
                 "blowup_grad_factor"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rejected(self, name, value):
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0)
        setattr(cfg, name, value)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cfg.validate(build_grid(2048, 16.0))

    # a NaN tolerance would switch its detector off (every comparison with
    # NaN is false), a non-positive one would fire on every window
    @pytest.mark.parametrize("name", ["blowup_grad_factor", "local_error_tol"])
    @pytest.mark.parametrize("value", [np.nan, 0.0, -1.0])
    def test_tolerance_not_positive_rejected(self, name, value):
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0)
        setattr(cfg, name, value)
        with pytest.raises(ValueError, match=name):
            cfg.validate(build_grid(2048, 16.0))


class TestAbsorbingLayer:
    def test_mass_nonincreasing(self, params, rng):
        grid = build_grid(2048, 16.0)
        f = gaussian(grid, 1.0, 2.0)
        # outgoing content reaches the layer quickly for a broad profile
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, monitor_every=50,
                              absorb=True, absorb_width=3.0,
                              decay_window=np.inf)
        trace = run(f, cfg, params)
        masses = np.array(trace.mass_drift)
        assert np.all(np.diff(masses) <= 1e-12)

    def test_width_validated(self, params):
        grid = build_grid(2048, 16.0)
        f = gaussian(grid, 1.0, 1.0)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.1, absorb=True, absorb_width=8.0)
        with pytest.raises(ValueError, match="absorb_width"):
            run(f, cfg, params)

    def test_default_width_validates_on_default_grid(self):
        # the default width is exactly R_max/4 on the default grid
        EvolutionConfig(dt=1e-3, t_end=0.1, absorb=True).validate(build_grid(4096, 32.0))


class TestDetectors:
    def test_blowup_above_threshold(self, ground_small_state, params):
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 1.3 * ground_small_state.profile.values)
        cfg = EvolutionConfig(dt=1e-3, t_end=3.0, monitor_every=20,
                              decay_window=np.inf)
        trace = run(u0, cfg, params)
        assert trace.outcome is Outcome.BLOWUP_DETECTED
        assert trace.final_time < 3.0

    def test_decay_below_threshold(self, ground_small_state, params):
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 0.5 * ground_small_state.profile.values)
        big = build_grid(2 * grid.n, 2 * grid.r_max)
        u0 = embed_field(u0, big)
        cfg = EvolutionConfig(dt=1e-3, t_end=12.0, monitor_every=50,
                              absorb=True, absorb_width=6.0, decay_window=2.0)
        trace = run(u0, cfg, params, level=ground_small_state.level)
        assert trace.outcome is Outcome.DECAY_DETECTED
        assert all(trace.k_lower_bound_ok)

    def test_arrested_collapse_not_labeled_decay(self, params):
        # on a grid too coarse to push the gradient past the detection
        # factor, a collapsing datum stalls at grid scale with strongly
        # negative virial; the decay detector must not fire on it
        grid = build_grid(512, 16.0)
        gs = minimize_quotient(params, grid)
        u0 = RadialField(grid, 1.3 * gs.profile.values)
        cfg = EvolutionConfig(dt=1e-3, t_end=2.5, monitor_every=50,
                              decay_window=1.5, local_error_tol=1e-4)
        trace = run(u0, cfg, params)
        assert trace.outcome is not Outcome.DECAY_DETECTED
        assert min(trace.virial_K) < 0.0

    def test_aborted_on_dt_underflow(self, params):
        grid = build_grid(2048, 16.0)
        f = gaussian(grid, 1.0, 1.0)
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, local_error_tol=1e-30,
                              min_dt=1e-5, decay_window=np.inf)
        trace = run(f, cfg, params)
        assert trace.outcome is Outcome.ABORTED

    def test_snapshots_recorded(self, ground_small_state, params):
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 0.5 * ground_small_state.profile.values)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.2, monitor_every=20,
                              decay_window=np.inf)
        trace = run(u0, cfg, params, snapshot_times=(0.05, 0.1))
        assert len(trace.snapshots) == 2
        assert trace.snapshots[0][0] == pytest.approx(0.05)

    def test_snapshot_records_tick_time(self, ground_small_state, params):
        # ticks fall every 0.02: the snapshot asked for at 0.13 holds the
        # state of the tick at 0.14 and says so
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 0.5 * ground_small_state.profile.values)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.2, monitor_every=20,
                              decay_window=np.inf)
        (snap,) = run(u0, cfg, params, snapshot_times=(0.13,)).snapshots
        assert isinstance(snap, Snapshot)
        assert snap.t_requested == 0.13
        assert snap.t == pytest.approx(0.14)
        cfg.t_end = 0.14
        state = run(u0, cfg, params).final_state.values
        assert np.array_equal(snap.values, state)


class TestMonitorKBound:
    def test_requires_below_threshold(self, ground_small_state, params):
        q = ground_small_state.profile
        with pytest.raises(ValueError, match="below the threshold"):
            monitor_k_bound(q, ground_small_state.level + 1.0,
                            ground_small_state.level, params)

    def test_holds_for_small_datum(self, ground_small_state, params):
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 0.1 * ground_small_state.profile.values)
        s0 = report(u0, params).action
        assert monitor_k_bound(u0, s0, ground_small_state.level, params)

    def test_holds_for_scatter_datum(self, ground_small_state, params):
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 0.9 * ground_small_state.profile.values)
        s0 = report(u0, params).action
        assert virial(u0, params) > 0.0
        assert monitor_k_bound(u0, s0, ground_small_state.level, params)


#: one cheap Gaussian run per outcome: (n, R_max, amplitude, config)
OUTCOME_RUNS = {
    Outcome.RAN_TO_T_END: (512, 16.0, 0.3, dict(dt=1e-3, t_end=0.1)),
    Outcome.DECAY_DETECTED: (512, 16.0, 0.5, dict(
        dt=1e-3, t_end=6.0, monitor_every=50, absorb=True, absorb_width=3.0,
        decay_window=1.0)),
    Outcome.BLOWUP_DETECTED: (512, 8.0, 5.0, dict(dt=1e-3, t_end=1.0)),
    Outcome.ABORTED: (512, 16.0, 1.0, dict(
        dt=1e-3, t_end=1.0, local_error_tol=1e-30, min_dt=1e-5)),
}


def _fail_advance(monkeypatch, fail):
    """Make _Stepper.advance raise FlowBlowup on its k-th call with n steps
    whenever fail(n, k) holds."""
    original = _Stepper.advance
    calls = Counter()

    def advance(self, u, n):
        calls[n] += 1
        if fail(n, calls[n]):
            raise FlowBlowup("injected")
        return original(self, u, n)

    monkeypatch.setattr(_Stepper, "advance", advance)


class TestRefinementPath:
    u0 = gaussian(build_grid(512, 16.0), 0.3, 1.0)
    # a loose error tolerance keeps the probe quiet: only injected failures refine
    cfg = EvolutionConfig(dt=1e-3, t_end=0.1, monitor_every=20,
                          decay_window=np.inf, local_error_tol=1.0)

    @pytest.mark.parametrize("outcome", list(OUTCOME_RUNS), ids=lambda o: o.value)
    def test_last_tick_is_final_time(self, params, outcome):
        n, r_max, amplitude, kwargs = OUTCOME_RUNS[outcome]
        u0 = gaussian(build_grid(n, r_max), amplitude, 1.0)
        trace = run(u0, EvolutionConfig(**{"decay_window": np.inf, **kwargs}), params)
        assert trace.outcome is outcome
        assert trace.times[-1] == trace.final_time

    def test_one_report_per_tick(self, params, monkeypatch):
        calls = Counter()
        for name in ("report", "k_alpha_beta"):
            def counted(*args, _name=name, _fn=getattr(functionals, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(functionals, name, counted)
        trace = run(self.u0, self.cfg, params)
        assert calls == {"report": len(trace.times)}

    @pytest.mark.parametrize("min_dt,outcome", [
        (1e-12, Outcome.RAN_TO_T_END), (6e-4, Outcome.ABORTED)])
    def test_nan_window_rerun_is_adopted(self, params, monkeypatch, min_dt, outcome):
        # the first window leaves floating-point range and its re-run at dt/2
        # does not: the run goes on exactly as one begun at dt/2 with doubled
        # cadence, unless dt/2 is below min_dt, which aborts on the re-run state
        cfg = replace(self.cfg, min_dt=min_dt)
        t_end = 0.1 if outcome is Outcome.RAN_TO_T_END else 0.02
        ref = run(self.u0, replace(self.cfg, dt=5e-4, monitor_every=40, t_end=t_end),
                  params)
        _fail_advance(monkeypatch, lambda n, k: n == 20 and k == 1)
        trace = run(self.u0, cfg, params)
        assert trace.outcome is outcome
        assert trace.dt_final == 5e-4
        assert trace.times == ref.times
        assert trace.times[-1] == trace.final_time == ref.final_time
        assert np.array_equal(trace.final_state.values, ref.final_state.values)

    def test_nan_window_and_rerun_confirm_blowup(self, params, monkeypatch):
        # the third window and its re-run both leave floating-point range:
        # blow-up, holding the state and time of the last finite tick
        ref = run(self.u0, replace(self.cfg, t_end=0.04), params)
        _fail_advance(monkeypatch, lambda n, k: (n == 20 and k >= 3) or n == 40)
        trace = run(self.u0, self.cfg, params)
        assert trace.outcome is Outcome.BLOWUP_DETECTED
        assert trace.times[-1] == trace.final_time == ref.final_time
        assert np.array_equal(trace.final_state.values, ref.final_state.values)
