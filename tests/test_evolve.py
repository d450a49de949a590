import weakref
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
    integrate,
    minimize_quotient,
    report,
    run,
)
from radialnls import evolve, functionals
from radialnls.evolve import (
    _SMALL_ANGLE, _W0, _W1, DECAY_ENERGY_GAIN, DECAY_NET_DROP, DECAY_RIPPLE, EvolutionTrace,
    Snapshot, _decay_detected, _k_bound_ok, _rotate, _Stepper, absorbing_profile,
)
from radialnls.radial_grid import CrankNicolson, lap_gamma_diagonals
from radialnls.classify import gaussian
from radialnls.functionals import VIRIAL_PAIR

from helpers import ABORTING, embed_field, make_stepper, random_smooth_field


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
    def test_non_finite_state_raises(self, grid_small, params):
        u = np.zeros(grid_small.n, dtype=complex)
        u[3] = np.nan
        with pytest.raises(RuntimeError, match="state left floating-point range"):
            make_stepper(grid_small, params, 1e-3).step(u)

    def test_zero(self, grid_small, params):
        out = make_stepper(grid_small, params, 1e-3).step(np.zeros(grid_small.n, dtype=complex))
        assert np.all(out == 0.0)

    def test_linear_regime(self, grid_small, params, rng):
        f = random_smooth_field(grid_small, rng)
        tiny = 1e-6 * f.values
        nonlinear = make_stepper(grid_small, params, 1e-3).step(tiny)
        lap = lap_gamma_diagonals(grid_small, params.gamma, params.mu)
        linear = CrankNicolson(lap, 1e-3)(tiny)
        assert np.max(np.abs(nonlinear - linear)) < 1e-14

    def test_mass_preserved_per_step(self, grid_small, params, rng):
        f = random_smooth_field(grid_small, rng, complex_phase=True)
        m0 = integrate(grid_small, np.abs(f.values) ** 2)
        out = make_stepper(grid_small, params, 1e-3).step(f.values)
        m1 = integrate(grid_small, np.abs(out) ** 2)
        assert m1 == pytest.approx(m0, rel=1e-12)

    def test_global_second_order(self, ground_small_state, params):
        # halving dt reduces the fixed-time error by about 4 (second order)
        grid = ground_small_state.profile.grid
        u0 = 0.9 * ground_small_state.profile.values
        t_final = 0.05

        def evolve_to(dt):
            stepper = make_stepper(grid, params, dt)
            u = u0
            for _ in range(int(round(t_final / dt))):
                u = stepper.step(u)
            return u

        ref = evolve_to(2.5e-4)
        e1 = np.sqrt(integrate(grid, np.abs(evolve_to(2e-3) - ref) ** 2))
        e2 = np.sqrt(integrate(grid, np.abs(evolve_to(1e-3) - ref) ** 2))
        assert 2.8 < e1 / e2 < 5.5

    def test_global_fourth_order(self, params, monkeypatch):
        # halving dt reduces the fixed-time error by about 16 (fourth order).
        # The order is asymptotic in dt |Delta_gamma|, so the grid is coarse
        # enough (h = 1/4) for it to show at these step sizes
        grid = build_grid(64, 16.0)
        ground = minimize_quotient(params, grid)
        u0 = RadialField(grid, 0.9 * ground.profile.values)
        t_final = 0.5
        monkeypatch.setattr(evolve, "LOCAL_ERROR_TOL", np.inf)

        def evolve_to(dt):
            cfg = EvolutionConfig(dt=dt, t_end=t_final, monitor_every=40,
                                  splitting_order=4, decay_window=np.inf)
            trace = run(u0, cfg, params)
            assert trace.final_time == pytest.approx(t_final)
            assert trace.dt_final == dt
            return trace.final_state.values

        ref = evolve_to(t_final / 5120)
        e1 = np.sqrt(integrate(grid, np.abs(evolve_to(t_final / 160) - ref) ** 2))
        e2 = np.sqrt(integrate(grid, np.abs(evolve_to(t_final / 320) - ref) ** 2))
        assert 12.0 < e1 / e2 < 20.0
        assert np.log2(e1 / e2) >= 3.5


def _rotate_reference(u, s):
    """exp(i s |u|^2) u with cos and sin evaluated at every node."""
    re, im = u.real, u.imag
    theta = re * re
    theta += im * im
    theta *= s
    out = np.empty_like(u)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    out *= u
    return out


def _straddling(n, s, rng):
    """Nodes whose angles |s| |u|^2 fall within a few ulps of _SMALL_ANGLE,
    in random order, with random phases."""
    mag = np.sqrt(_SMALL_ANGLE / abs(s)) * (1.0 + rng.integers(-8, 9, n) * 2.0**-52)
    return mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))


class TestRotate:
    """_rotate skips the trigonometry past the last node with |theta| >=
    _SMALL_ANGLE; the result must stay bit-equal to the full evaluation."""

    @staticmethod
    def assert_bit_equal(u, s):
        got, want = _rotate(u, s), _rotate_reference(u, s)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("s", [5e-4, -5e-4, 0.5 * _W0 * 1e-3, -3.0])
    def test_angles_straddling_the_threshold(self, s, rng):
        u = _straddling(4096, s, rng)
        theta = s * np.abs(u) ** 2
        assert np.any(np.abs(theta) >= _SMALL_ANGLE)
        assert np.any(np.abs(theta) < _SMALL_ANGLE)
        self.assert_bit_equal(u, s)

    def test_threshold_angle_exactly(self):
        # theta = 2 * (2^-14)^2 = 2^-27 at the first node, then below it
        u = np.array([2.0**-14, 0.0, 2.0**-15j], dtype=complex)
        self.assert_bit_equal(u, 2.0)

    def test_decaying_field(self, grid_small):
        # the shape of a run: large angles in the core, tiny ones outside,
        # and exact zeros at the far end
        u = (2.0 * np.exp(-grid_small.r) * np.exp(0.7j * grid_small.r)).astype(complex)
        u[-10:] = 0.0
        for s in (1e-3, _W0 * 1e-3, -1e-3):
            self.assert_bit_equal(u, s)

    def test_per_node_seam_angles(self, grid_small, rng):
        # the merged angle across a step boundary with the absorber on
        damp = np.exp(-absorbing_profile(grid_small, 4.0, 5.0) * 1e-3)
        for first, last in ((5e-4, 5e-4), (0.5 * _W1 * 1e-3, 0.5 * _W1 * 1e-3)):
            seam = last + first * damp**2
            u = _straddling(grid_small.n, last, rng)
            self.assert_bit_equal(u, seam)
            self.assert_bit_equal(u[::-1].copy(), seam)

    @pytest.mark.parametrize("scale", [1e-6, 1e2])
    def test_no_node_or_every_node_above(self, scale, rng):
        u = scale * (rng.uniform(0.5, 1.0, 300) * np.exp(1j * rng.uniform(0, 6.3, 300)))
        theta = np.abs(1e-3 * np.abs(u) ** 2)
        assert np.all(theta < _SMALL_ANGLE) or np.all(theta >= _SMALL_ANGLE)
        self.assert_bit_equal(u, 1e-3)
        self.assert_bit_equal(u, -1e-3)


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
        stepper = make_stepper(self.grid, params, dt, order,
                              self.absorb_w if absorb else None)
        u = self.datum(seed, amplitude)
        stepwise = u
        for _ in range(n_steps):
            stepwise = stepper.step(stepwise)
        fused = stepper.step(u, n_steps)
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
        stepper = make_stepper(self.grid, params, dt, order)
        u = self.datum(seed, amplitude)
        m0 = integrate(self.grid, np.abs(u) ** 2)
        m1 = integrate(self.grid, np.abs(stepper.step(u, n_steps)) ** 2)
        assert m1 == pytest.approx(m0, rel=1e-12)

    def test_does_not_mutate_input(self, params):
        u = self.datum(7, 1.0)
        before = u.copy()
        make_stepper(self.grid, params, 1e-3, 4, self.absorb_w).step(u, 3)
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
    def test_modulus_and_phase(self, ground_small_state, params,
                               standing_wave_channels):
        q = ground_small_state.profile
        cfg = EvolutionConfig(dt=2.5e-4, t_end=0.25, monitor_every=100,
                              splitting_order=4, decay_window=np.inf)
        # one snapshot at each monitor tick, every 100 dt = 0.025
        trace = run(q, cfg, params,
                    snapshot_times=tuple(k * 0.025 for k in range(11)))
        assert trace.outcome is Outcome.RAN_TO_T_END
        assert [s.t for s in trace.snapshots] == trace.times
        phase, dev = standing_wave_channels(trace, q)
        assert max(dev) <= 1e-5
        phases = np.unwrap(phase)
        rate = np.polyfit(trace.times, phases, 1)[0]
        assert rate == pytest.approx(params.omega, rel=0.01)


class TestValidation:
    @pytest.mark.parametrize("name", ["dt", "t_end", "absorb_width"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rejected(self, name, value):
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0)
        setattr(cfg, name, value)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cfg.validate(build_grid(2048, 16.0))

    # a NaN window would switch the decay detector off (every comparison
    # with NaN is false), and a non-positive one would never fill
    @pytest.mark.parametrize("name", ["decay_window"])
    @pytest.mark.parametrize("value", [np.nan, 0.0, -1.0])
    def test_tolerance_not_positive_rejected(self, name, value):
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0)
        setattr(cfg, name, value)
        with pytest.raises(ValueError, match=f"^{name}"):
            cfg.validate(build_grid(2048, 16.0))

    def test_dt_below_min_dt_rejected(self, monkeypatch):
        # refinement could never start from there, and t_end / dt steps
        # would not finish
        grid = build_grid(2048, 16.0)
        with pytest.raises(ValueError, match=r"^dt must be >= min_dt; dt=1e-300"):
            EvolutionConfig(dt=1e-300, t_end=1.0).validate(grid)
        monkeypatch.setattr(evolve, "MIN_DT", 1e-4)
        with pytest.raises(ValueError, match=r"^dt must be >= min_dt"):
            EvolutionConfig(dt=1e-5, t_end=1.0).validate(grid)
        EvolutionConfig(dt=1e-4, t_end=1.0).validate(grid)

    def test_horizon_beyond_float_steps_rejected(self):
        # t_end/dt steps overflow to inf: the message names t_end, so a
        # config file line can be cited
        grid = build_grid(512, 16.0)
        with pytest.raises(ValueError, match=r"^t_end must span a finite number of steps"):
            EvolutionConfig(dt=1e-11, t_end=1e308).validate(grid)
        EvolutionConfig(dt=1e-3, t_end=1e300).validate(grid)


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

    def test_arrested_collapse_not_labeled_decay(self, params, monkeypatch):
        # on a grid too coarse to push the gradient past the detection
        # factor, a collapsing datum stalls at grid scale with strongly
        # negative virial; the decay detector must not fire on it
        grid = build_grid(512, 16.0)
        gs = minimize_quotient(params, grid)
        u0 = RadialField(grid, 1.3 * gs.profile.values)
        monkeypatch.setattr(evolve, "LOCAL_ERROR_TOL", 1e-4)
        cfg = EvolutionConfig(dt=1e-3, t_end=2.5, monitor_every=50,
                              decay_window=1.5)
        trace = run(u0, cfg, params)
        assert trace.outcome is not Outcome.DECAY_DETECTED
        assert min(trace.virial_K) < 0.0

    def test_aborted_on_dt_underflow(self, params, monkeypatch):
        grid = build_grid(2048, 16.0)
        f = gaussian(grid, 1.0, 1.0)
        _set_constants(monkeypatch, ABORTING)
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, decay_window=np.inf)
        trace = run(f, cfg, params)
        assert trace.outcome is Outcome.ABORTED

    def test_refined_dt_past_float_steps_aborts(self, params, monkeypatch):
        # t_end/dt is finite at the first dt and overflows after about 18
        # halvings, well before dt reaches MIN_DT
        _set_constants(monkeypatch, dict(LOCAL_ERROR_TOL=1e-30))
        u0 = gaussian(build_grid(512, 16.0), 0.3, 1.0)
        trace = run(u0, EvolutionConfig(dt=1e-3, t_end=1e300), params)
        assert trace.outcome is Outcome.ABORTED
        assert trace.dt_final < evolve.MIN_DT

    def test_snapshots_recorded(self, ground_small_state, params):
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 0.5 * ground_small_state.profile.values)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.2, monitor_every=20,
                              decay_window=np.inf)
        trace = run(u0, cfg, params, snapshot_times=(0.05, 0.1))
        assert len(trace.snapshots) == 2
        assert trace.snapshots_unreached == []
        assert trace.snapshots[0][0] == pytest.approx(0.05)

    def test_snapshot_times_end_at_t_end(self, ground_small_state, params):
        # t_end itself (within the 1e-12 slack of the tick matching) is the
        # last tick; a later time would never be recorded, so it is rejected
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 0.5 * ground_small_state.profile.values)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.02, monitor_every=10,
                              decay_window=np.inf)
        trace = run(u0, cfg, params, snapshot_times=(cfg.t_end + 5e-13,))
        assert [s.t for s in trace.snapshots] == [trace.final_time]
        with pytest.raises(ValueError, match=r"snapshot_times must be finite and lie in"):
            run(u0, cfg, params, snapshot_times=(0.01, cfg.t_end + 1e-9))

    def test_unreached_snapshot_times_are_kept(self, params):
        # the run stops with blowup_detected at t = 0.1; 0.25 was asked for
        # and never reached, and the trace says so
        f = gaussian(build_grid(512, 8.0), 5.0, 1.0)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.3)
        trace = run(f, cfg, params, snapshot_times=(0.25, 0.05))
        assert trace.outcome is Outcome.BLOWUP_DETECTED
        assert trace.final_time < 0.25
        assert [s.t_requested for s in trace.snapshots] == [0.05]
        assert trace.snapshots_unreached == [0.25]

    def test_snapshot_records_tick_time(self, ground_small_state, params):
        # the snapshot asked for at 0.13 holds the state of the first tick
        # at or past it (near 0.14: windows last about 0.02) and says so
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 0.5 * ground_small_state.profile.values)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.2, monitor_every=20,
                              decay_window=np.inf)
        trace = run(u0, cfg, params, snapshot_times=(0.13,))
        (snap,) = trace.snapshots
        assert isinstance(snap, Snapshot)
        assert snap.t_requested == 0.13
        assert snap.t == min(t for t in trace.times if t >= 0.13)
        assert snap.t == pytest.approx(0.14, abs=1e-3)
        cfg.t_end = snap.t
        state = run(u0, cfg, params).final_state.values
        assert np.array_equal(snap.values, state)


class TestMonitorKBound:
    def test_holds_for_small_datum(self, ground_small_state, params):
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 0.1 * ground_small_state.profile.values)
        rep = report(u0, params)
        assert _k_bound_ok(rep, rep.action, ground_small_state.level, params)

    def test_holds_for_scatter_datum(self, ground_small_state, params):
        grid = ground_small_state.profile.grid
        u0 = RadialField(grid, 0.9 * ground_small_state.profile.values)
        rep = report(u0, params)
        assert rep.k(VIRIAL_PAIR, params) > 0.0
        assert _k_bound_ok(rep, rep.action, ground_small_state.level, params)


#: one cheap Gaussian run per outcome: (n, R_max, amplitude, config,
#: evolve constants)
OUTCOME_RUNS = {
    Outcome.RAN_TO_T_END: (512, 16.0, 0.3, dict(dt=1e-3, t_end=0.1), {}),
    Outcome.DECAY_DETECTED: (512, 16.0, 0.5, dict(
        dt=1e-3, t_end=6.0, monitor_every=50, absorb=True, absorb_width=3.0,
        decay_window=1.0), {}),
    Outcome.BLOWUP_DETECTED: (512, 8.0, 5.0, dict(dt=1e-3, t_end=1.0), {}),
    Outcome.ABORTED: (512, 16.0, 1.0, dict(dt=1e-3, t_end=1.0), ABORTING),
}


def _set_constants(monkeypatch, constants):
    """Set evolve's module constants by name for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(evolve, name, value)


class TestRefinementPath:
    u0 = gaussian(build_grid(512, 16.0), 0.3, 1.0)
    cfg = EvolutionConfig(dt=1e-3, t_end=0.1, monitor_every=20,
                          decay_window=np.inf)

    @pytest.fixture()
    def quiet_probe(self, monkeypatch):
        """A loose error tolerance keeps the probe quiet: only injected
        spikes refine."""
        monkeypatch.setattr(evolve, "LOCAL_ERROR_TOL", 1.0)

    @pytest.mark.parametrize("outcome", list(OUTCOME_RUNS), ids=lambda o: o.value)
    def test_last_tick_is_final_time(self, params, monkeypatch, outcome):
        n, r_max, amplitude, kwargs, constants = OUTCOME_RUNS[outcome]
        _set_constants(monkeypatch, constants)
        u0 = gaussian(build_grid(n, r_max), amplitude, 1.0)
        trace = run(u0, EvolutionConfig(**{"decay_window": np.inf, **kwargs}), params)
        assert trace.outcome is outcome
        assert trace.times[-1] == trace.final_time

    def test_refinement_prepares_one_stepper(self, params, monkeypatch):
        # c Q at 1.2 shrinks dt three times before blow-up is confirmed, the
        # last time by the clipped factor 1/2.  The run holds steppers at dt
        # and dt/2, never more, and a dt change prepares only those it does
        # not hold: a halving promotes the half-step one and prepares the
        # next half step
        grid = build_grid(1024, 16.0)
        ground = minimize_quotient(params, grid)
        u0 = RadialField(grid, 1.2 * ground.profile.values)
        built, live, most_live = Counter(), weakref.WeakSet(), [0]
        init = _Stepper.__init__

        def counted(self, *args):
            built[args[1]] += 1
            init(self, *args)
            live.add(self)
            most_live[0] = max(most_live[0], len(live))

        monkeypatch.setattr(_Stepper, "__init__", counted)
        cfg = EvolutionConfig(dt=1e-3, t_end=3.0)
        trace = run(u0, cfg, params, level=ground.level)
        assert trace.outcome is Outcome.BLOWUP_DETECTED
        assert [e.cause for e in trace.events] == ["probe"] * 3 + ["blowup"]
        assert trace.events[2].dt_new == trace.events[2].dt_old / 2.0
        held, expected = {cfg.dt, cfg.dt / 2.0}, Counter({cfg.dt: 1, cfg.dt / 2.0: 1})
        for event in trace.events:
            needed = {event.dt_new, event.dt_new / 2.0}
            expected.update(needed - held)
            held = needed
        assert built == expected
        assert trace.stepper_builds == sum(built.values()) == 7
        assert most_live == [2]

    def test_one_report_per_tick(self, params, monkeypatch, quiet_probe):
        calls = Counter()

        def counted(*args, _fn=functionals.report):
            calls["report"] += 1
            return _fn(*args)

        monkeypatch.setattr(functionals, "report", counted)
        trace = run(self.u0, self.cfg, params)
        assert calls == {"report": len(trace.times)}

    @pytest.mark.parametrize("min_dt,outcome", [
        (1e-12, Outcome.RAN_TO_T_END), (6e-4, Outcome.ABORTED)])
    def test_refuted_spike_rerun_is_adopted(self, params, monkeypatch, quiet_probe,
                                            min_dt, outcome):
        # the first window's report spikes and its re-run at dt/2 does not:
        # with growth off, the run goes on exactly as one begun at dt/2 with
        # doubled cadence, unless dt/2 is below min_dt, which aborts on the
        # re-run state
        t_end = 0.1 if outcome is Outcome.RAN_TO_T_END else 0.02
        ref = run(self.u0, replace(self.cfg, dt=5e-4, monitor_every=40, t_end=t_end),
                  params)
        calls = Counter()

        def spiking(*args, _fn=functionals.report):
            calls["report"] += 1
            rep = _fn(*args)
            # the first report is u0's, the second the first window's
            return replace(rep, kinetic=np.inf) if calls["report"] == 2 else rep

        monkeypatch.setattr(functionals, "report", spiking)
        monkeypatch.setattr(evolve, "MIN_DT", min_dt)
        monkeypatch.setattr(evolve, "MIN_GROWTH", np.inf)
        trace = run(self.u0, self.cfg, params)
        assert trace.outcome is outcome
        cause = "spike" if outcome is Outcome.RAN_TO_T_END else "abort"
        assert [(e.t, e.cause, e.dt_old, e.dt_new) for e in trace.events] == [
            (0.02, cause, 1e-3, 5e-4)]
        assert trace.dt_final == 5e-4
        assert trace.times == ref.times
        assert trace.grad_norm == ref.grad_norm
        assert trace.times[-1] == trace.final_time == ref.final_time
        assert np.array_equal(trace.final_state.values, ref.final_state.values)


#: one run per outcome whose dt passes through a value that is not cfg.dt
#: over a power of two before it ends: the probe's third shrink (fourth for
#: blow-up) is by a factor above 1/2
NON_POWER_OF_TWO_RUNS = {
    **{o: OUTCOME_RUNS[o] for o in (Outcome.RAN_TO_T_END, Outcome.DECAY_DETECTED,
                                    Outcome.BLOWUP_DETECTED)},
    Outcome.ABORTED: (512, 8.0, 5.0, dict(dt=1e-3, t_end=1.0), dict(MIN_DT=7e-5)),
}


def _dt_at_ticks(trace, cfg):
    """The dt each window stepped at, read off the events: an event at the
    window's start time applies to it, one at its end time to the next."""
    dts, k = [], 0
    dt = cfg.dt
    for t in trace.times[:-1]:
        while k < len(trace.events) and trace.events[k].t <= t:
            dt = trace.events[k].dt_new
            k += 1
        dts.append(dt)
    return dts


class TestStepSizeController:
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("absorb", [False, True], ids=["conservative", "absorb"])
    def test_quiet_probe_steps_window_by_window(self, params, monkeypatch, order, absorb):
        # with the probe quiet dt never moves: the run is one _Stepper.step
        # call per window of monitor_every steps, the last one cut at
        # t_end, bit for bit
        monkeypatch.setattr(evolve, "LOCAL_ERROR_TOL", np.inf)
        grid = build_grid(256, 16.0)
        u0 = gaussian(grid, 1.0, 1.0)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.1, monitor_every=7, absorb=absorb,
                              absorb_width=4.0, splitting_order=order,
                              decay_window=np.inf)
        trace = run(u0, cfg, params)
        absorb_w = (absorbing_profile(grid, 4.0, evolve.ABSORB_STRENGTH)
                    if absorb else None)
        stepper = make_stepper(grid, params, cfg.dt, order, absorb_w)
        u, t, times = u0.values.astype(complex), 0.0, [0.0]
        for n in [7] * 14 + [2]:
            u = stepper.step(u, n)
            t += n * cfg.dt
            times.append(t)
        assert trace.outcome is Outcome.RAN_TO_T_END
        assert trace.events == []
        assert trace.stepper_builds == 2
        assert trace.dt_final == cfg.dt
        assert trace.times == times
        assert np.array_equal(trace.final_state.values, u)

    @settings(max_examples=20, deadline=None)
    @given(
        amplitude=st.floats(0.2, 6.0),
        dt=st.floats(2e-4, 2e-3),
        order=st.sampled_from([2, 4]),
        monitor_every=st.integers(3, 30),
    )
    def test_every_dt_change_is_an_event(self, params, amplitude, dt, order,
                                         monitor_every):
        # dt never exceeds cfg.dt, the events chain from cfg.dt to dt_final,
        # and every window stepped at the dt the events say, a whole number
        # of steps and at most round(monitor_every cfg.dt / dt) of them
        grid = build_grid(256, 8.0)
        cfg = EvolutionConfig(dt=dt, t_end=0.2, monitor_every=monitor_every,
                              splitting_order=order, decay_window=np.inf)
        trace = run(gaussian(grid, amplitude, 1.0), cfg, params)
        chain = [cfg.dt] + [e.dt_new for e in trace.events]
        assert [e.dt_old for e in trace.events] == chain[:-1]
        assert trace.dt_final == chain[-1]
        assert max(chain) == cfg.dt
        for event in trace.events:
            assert event.cause in ("probe", "spike", "grow", "abort", "blowup")
            assert (event.dt_new == event.dt_old) == (event.cause == "blowup")
            assert (event.dt_new > event.dt_old) == (event.cause == "grow")
        assert trace.times[-1] == trace.final_time
        for t0, t1, dt_w in zip(trace.times, trace.times[1:], _dt_at_ticks(trace, cfg)):
            steps = (t1 - t0) / dt_w
            assert steps == pytest.approx(round(steps), abs=1e-6)
            assert 1 <= round(steps) <= round(monitor_every * (cfg.dt / dt_w))
        if trace.outcome is Outcome.RAN_TO_T_END:
            # the last window takes the whole steps left: at most one past t_end
            assert cfg.t_end - 1e-12 <= trace.final_time < cfg.t_end + trace.dt_final

    def test_grows_back_to_cfg_dt(self, params):
        # 0.9 Q on a coarse grid: the first probe shrinks dt, and once the
        # error falls dt grows back, capped at cfg.dt
        grid = build_grid(512, 16.0)
        ground = minimize_quotient(params, grid)
        u0 = RadialField(grid, 0.9 * ground.profile.values)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.2)
        trace = run(u0, cfg, params, level=ground.level)
        causes = [e.cause for e in trace.events]
        assert causes[0] == "probe" and "grow" in causes
        assert max(e.dt_new for e in trace.events) <= cfg.dt
        grow = trace.events[causes.index("grow")]
        assert grow.dt_new == min(cfg.dt, grow.dt_old * min(
            2.0, 0.9 * (evolve.LOCAL_ERROR_TOL / grow.err) ** evolve.CONTROLLER_EXPONENT))

    @pytest.mark.parametrize("outcome", list(NON_POWER_OF_TWO_RUNS), ids=lambda o: o.value)
    def test_last_tick_is_final_time_after_non_power_of_two_dt(self, params, monkeypatch,
                                                               outcome):
        n, r_max, amplitude, kwargs, constants = NON_POWER_OF_TWO_RUNS[outcome]
        _set_constants(monkeypatch, constants)
        u0 = gaussian(build_grid(n, r_max), amplitude, 1.0)
        cfg = EvolutionConfig(**{"decay_window": np.inf, **kwargs})
        trace = run(u0, cfg, params)
        assert trace.outcome is outcome
        stepped = [e.dt_new for e in trace.events if e.cause != "abort"]
        assert any(not np.log2(cfg.dt / dt).is_integer() for dt in stepped)
        assert trace.times[-1] == trace.final_time
        assert trace.dt_final == trace.events[-1].dt_new
        if outcome is Outcome.ABORTED:
            assert trace.events[-1].cause == "abort"
            assert trace.dt_final < evolve.MIN_DT


def _decay_detected_full_scan(trace, cfg, monitor_bound):
    """Reference decay test: the window found by scanning every tick."""
    t_now = trace.times[-1]
    if t_now < cfg.decay_window:
        return False
    start = t_now - cfg.decay_window
    idx = [i for i, tt in enumerate(trace.times) if tt >= start - 1e-12]
    if len(idx) < 5:
        return False
    if not all(trace.virial_K[i] > 0.0 for i in idx):
        return False
    if monitor_bound and not all(trace.k_lower_bound_ok[i] for i in idx):
        return False
    l4 = [trace.l4_norm[i] for i in idx]
    running_min = l4[0]
    for v in l4[1:]:
        if v > DECAY_RIPPLE * running_min:
            return False
        running_min = min(running_min, v)
    return l4[-1] <= DECAY_NET_DROP * l4[0]


#: L^4 ratios between ticks, mostly drops, with rises on either side of the
#: ripple bound
_L4_FACTORS = (0.9, 0.97, 0.97, 0.99, 0.99, 1.0, 1.04, DECAY_RIPPLE, 1.06, 1.2)


@st.composite
def _decay_cases(draw):
    """(trace, cfg, monitor_bound) with strictly increasing tick times.

    The window is drawn to span 4-6 ticks or freely; in "boundary" mode one
    tick sits exactly at t_now - decay_window - 1e-12, the edge of the
    window's slack."""
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=0, max_size=40))
    times = [0.0]
    for dt in steps:
        times.append(times[-1] + dt)
    mode = draw(st.sampled_from(["span", "boundary", "free"]))
    span = draw(st.integers(4, 6))
    if mode == "free" or len(times) < span:
        window = draw(st.one_of(st.floats(1e-3, 45.0), st.just(np.inf)))
    else:
        window = times[-1] - times[-span]
        edge = times[-1] - window - 1e-12
        if mode == "boundary" and edge >= 0.0 and edge not in times:
            times = sorted(times + [edge])
    n = len(times)
    flags = st.sampled_from([True] * 15 + [False])
    trace = EvolutionTrace(
        times=times,
        virial_K=draw(st.lists(st.sampled_from([1.0] * 15 + [0.0, -1.0]),
                               min_size=n, max_size=n)),
        k_lower_bound_ok=draw(st.lists(flags, min_size=n, max_size=n)),
    )
    l4 = [1.0]
    for factor in draw(st.lists(st.sampled_from(_L4_FACTORS), min_size=n - 1,
                                max_size=n - 1)):
        l4.append(l4[-1] * factor)
    trace.l4_norm = l4
    return trace, EvolutionConfig(decay_window=window), draw(st.booleans())


class _WindowReads(list):
    """A list that records the positions read and refuses a full scan."""

    def __init__(self, values, reads):
        super().__init__(values)
        self.reads = reads

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.reads.extend(range(*key.indices(len(self))))
        else:
            self.reads.append(key)
        return super().__getitem__(key)

    def __iter__(self):
        raise AssertionError("the decay test scanned a whole trace list")


class TestDecayWindow:
    @settings(max_examples=400, deadline=None)
    @given(case=_decay_cases())
    def test_matches_full_scan(self, case):
        trace, cfg, monitor_bound = case
        assert _decay_detected(trace, cfg, monitor_bound) == _decay_detected_full_scan(
            trace, cfg, monitor_bound)

    def test_window_boundary_tick_counts(self):
        # five ticks from t = 1 - 1e-12, exactly on the slack's edge, to t = 3:
        # the first counts, so the window is full and shows decay
        times = [0.0, 1.0 - 1e-12, 1.5, 2.0, 2.5, 3.0]
        trace = EvolutionTrace(times=times, virial_K=[-1.0] + [1.0] * 5,
                               k_lower_bound_ok=[False] + [True] * 5,
                               l4_norm=[5.0, 1.0, 0.99, 0.98, 0.97, 0.96])
        cfg = EvolutionConfig(decay_window=2.0)
        assert _decay_detected(trace, cfg, True)
        assert _decay_detected_full_scan(trace, cfg, True)

    @pytest.mark.parametrize("gain,decays", [(DECAY_ENERGY_GAIN, True),
                                             (2.0 * DECAY_ENERGY_GAIN, False)])
    def test_energy_gain_blocks_decay(self, gain, decays):
        # an L^4 norm that decays, while at one tick in the window the
        # energy has grown by `gain` of its initial size
        trace = EvolutionTrace(times=[0.0, 0.5, 1.0, 1.5, 2.0, 2.5],
                               virial_K=[1.0] * 6, k_lower_bound_ok=[True] * 6,
                               l4_norm=[1.0, 0.99, 0.98, 0.97, 0.96, 0.95],
                               energy_drift=[0.0, 0.0, gain, 0.0, 0.0, 0.0])
        assert _decay_detected(trace, EvolutionConfig(decay_window=2.0), True) is decays

    @pytest.mark.parametrize("ticks", [10**3, 10**5])
    def test_reads_only_its_window(self, ticks):
        # a flat L^4 norm: the test reads the whole window and says no, and
        # reads a bisection's worth of times besides
        reads = {name: [] for name in ("times", "virial_K", "k_lower_bound_ok",
                                       "l4_norm")}
        every = 0.05
        trace = EvolutionTrace(
            times=_WindowReads([k * every for k in range(ticks)], reads["times"]),
            virial_K=_WindowReads([1.0] * ticks, reads["virial_K"]),
            k_lower_bound_ok=_WindowReads([True] * ticks, reads["k_lower_bound_ok"]),
            l4_norm=_WindowReads([1.0] * ticks, reads["l4_norm"]),
        )
        assert not _decay_detected(trace, EvolutionConfig(decay_window=2.0), True)
        window = int(2.0 / every) + 1
        for name, positions in reads.items():
            assert all(p >= ticks - window - 1 for p in positions
                       if name != "times"), name
        assert len(reads["times"]) <= 2 + ticks.bit_length()

