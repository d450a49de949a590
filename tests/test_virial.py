import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from radialnls import (
    EquationParams,
    EvolutionConfig,
    I_double_prime,
    I_prime,
    I_value,
    RadialField,
    build_cutoff,
    build_grid,
    minimize_quotient,
    rigidity_probe,
)
from radialnls import localized_virial
from radialnls.evolve import _Stepper
from radialnls.fields import gaussian
from radialnls.functionals import report
from radialnls.radial_grid import node_gradient
from radialnls.localized_virial import (
    PLATEAU,
    REMAINDER_TERMS,
    RigidityReport,
    chi_derivatives,
    remainder_bound_constant,
    remainder_constants,
    select_cutoff_radius,
    tail_integral,
)

from helpers import random_smooth_field


@pytest.fixture(scope="module")
def params():
    return EquationParams(gamma=1.0, mu=1.0, omega=1.0)


@pytest.fixture(scope="module")
def grid32():
    return build_grid(2048, 32.0)


@pytest.fixture(scope="module")
def ground32(params, grid32):
    res = minimize_quotient(params, grid32)
    assert res.converged
    return res


class TestCutoffShape:
    def test_parabola_branch(self):
        d = chi_derivatives([0.5])
        assert d[0][0] == pytest.approx(0.25)
        assert d[1][0] == pytest.approx(1.0)
        assert d[2][0] == pytest.approx(2.0)

    def test_plateau_branch(self):
        d = chi_derivatives([3.5])
        assert d[0][0] == pytest.approx(PLATEAU)
        assert d[1][0] == 0.0
        assert d[2][0] == 0.0

    def test_bridge_matches_endpoints(self):
        eps = 1e-7
        left = chi_derivatives([1.0 + eps])
        assert left[0][0] == pytest.approx(1.0, abs=1e-5)
        assert left[1][0] == pytest.approx(2.0, abs=1e-4)
        right = chi_derivatives([3.0 - eps])
        assert right[0][0] == pytest.approx(PLATEAU, abs=1e-5)
        assert right[1][0] == pytest.approx(0.0, abs=1e-4)

    def test_curvature_bound(self):
        xs = np.linspace(0.0, 4.0, 100001)
        d2 = chi_derivatives(xs)[2]
        assert d2.max() <= 2.0 + 1e-10
        # the bound is attained on the parabola branch
        assert d2.max() == pytest.approx(2.0)

    def test_build_requires_domain(self, grid32):
        with pytest.raises(ValueError, match="3R"):
            build_cutoff(12.0, grid32)
        build_cutoff(5.0, grid32)

    def test_remainder_constants(self, params):
        c1, c2, c3, c4 = remainder_constants()
        assert c1 >= 2.0 and c2 >= 6.0 and c3 > 0.0 and c4 >= 2.0
        C = remainder_bound_constant(params)
        assert C >= max(4.0 * c1, c2)


class TestSampledBounds:
    def test_equal_to_the_unblocked_table(self):
        """remainder_constants() and the _verify_bridge() maximum equal, to
        the last bit, the same expressions on one unblocked linspace table."""
        xs = np.linspace(1.0, 4.0, 200001)
        d = chi_derivatives(xs)
        ref = (
            max(float(np.abs(d[2] - 2.0).max()), 2.0),
            max(float(np.abs(d[2] + 2.0 * d[1] / xs - 6.0).max()), 6.0),
            float(np.abs(d[4] + 4.0 * d[3] / xs).max()),
            max(float(np.abs(d[1] / xs - 2.0).max()), 2.0),
        )
        assert [c.hex() for c in remainder_constants()] == [c.hex() for c in ref]
        d2_max = float(chi_derivatives(np.linspace(0.0, 4.0, 40001))[2].max())
        assert localized_virial._verify_bridge().hex() == d2_max.hex()

    @pytest.mark.parametrize("start, stop, num", [(1.0, 4.0, 200001), (0.0, 4.0, 40001)])
    def test_blocks_are_the_linspace(self, start, stop, num):
        """The blocks hold at most _BLOCK points, a multiple of 8, and in
        order they are exactly np.linspace(start, stop, num)."""
        blocks = []
        localized_virial._sampled_max(
            lambda x: blocks.append(x.copy()) or x.max(), start, stop, num
        )
        assert localized_virial._BLOCK % 8 == 0
        assert max(len(b) for b in blocks) <= localized_virial._BLOCK
        assert np.array_equal(np.concatenate(blocks), np.linspace(start, stop, num))

    def test_first_use_peak_is_small(self):
        """In a fresh interpreter the first remainder_constants() and
        _verify_bridge() peak below 2 MiB of traced memory; one 200001-point
        table of chi and its four derivatives alone takes 8 MB."""
        env = dict(os.environ, PYTHONPATH=str(Path(localized_virial.__file__).parents[1]))
        code = """if True:
            import tracemalloc
            from radialnls import localized_virial
            tracemalloc.start()
            localized_virial.remainder_constants()
            localized_virial._verify_bridge()
            print(tracemalloc.get_traced_memory()[1])
        """
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) < 2 * 2**20


class TestIValue:
    def test_zero(self, grid32, params):
        c = build_cutoff(4.0, grid32)
        f = RadialField(grid32, np.zeros(grid32.n, dtype=complex))
        assert I_value(f, c) == 0.0

    def test_gaussian_second_moment(self, grid32):
        # with R beyond the support, chi_R = r^2 and I is the second moment
        c = build_cutoff(8.0, grid32)
        f = gaussian(grid32, 1.0, 1.0)
        exact = 4.0 * np.pi * 3.0 / 32.0 * np.sqrt(np.pi / 2.0)
        assert I_value(f, c) == pytest.approx(exact, rel=1e-6)

    def test_monotone_in_R(self, grid32):
        f = gaussian(grid32, 1.0, 3.0)
        values = [I_value(f, build_cutoff(R, grid32)) for R in (2.0, 4.0, 8.0)]
        assert values[0] <= values[1] <= values[2]


class TestIPrime:
    def test_real_field_zero(self, grid32, params):
        c = build_cutoff(4.0, grid32)
        f = gaussian(grid32, 1.5, 1.0)
        assert I_prime(f, c) == pytest.approx(0.0, abs=1e-14)

    def test_ground_state_zero(self, ground32, params, grid32):
        c = build_cutoff(4.0, grid32)
        assert I_prime(ground32.profile, c) == pytest.approx(0.0, abs=1e-12)

    def test_flow_consistency(self, ground32, params, grid32):
        # centered difference of I along the flow matches I' to O(dt^2)+O(h^2)
        c = build_cutoff(5.0, grid32)
        dt = 2.5e-4
        u = RadialField(grid32, 0.9 * ground32.profile.values)
        um = RadialField(grid32, _Stepper(grid32, params, -dt).step(u.values))
        up = RadialField(grid32, _Stepper(grid32, params, dt).step(u.values))
        di_num = (I_value(up, c) - I_value(um, c)) / (2.0 * dt)
        di = I_prime(u, c)
        scale = max(abs(di), I_value(u, c))
        assert abs(di_num - di) <= 1e-3 * scale


class TestIDoublePrime:
    def test_two_forms_agree(self, grid32, params, rng):
        c = build_cutoff(3.0, grid32)
        for _ in range(5):
            f = random_smooth_field(grid32, rng, complex_phase=True)
            d2 = I_double_prime(f, c, params)
            assert d2.total_decomposed == pytest.approx(d2.total, rel=1e-10)

    def test_compact_support_reduces_to_virial(self, grid32, params):
        # supported inside r < R: every remainder vanishes and I'' = 4 K
        c = build_cutoff(6.0, grid32)
        vals = np.where(grid32.r < 3.0, np.exp(-1.0 / np.maximum(1.0 - (grid32.r / 3.0) ** 2, 1e-12)), 0.0)
        f = RadialField(grid32, vals.astype(complex))
        d2 = I_double_prime(f, c, params)
        for key in ("R1", "R2", "R3", "R4"):
            assert d2.terms[key] == pytest.approx(0.0, abs=1e-12)
        assert d2.total == pytest.approx(4.0 * d2.k_gamma_node, rel=1e-12)

    def test_remainder_locality(self, grid32, params):
        # brace factors vanish identically on the parabola branch r <= R
        c = build_cutoff(4.0, grid32)
        inside = grid32.r <= c.R
        assert np.all(np.abs(c.w2[inside] - 2.0) < 1e-12)
        assert np.all(np.abs(c.w1[inside] / grid32.r[inside] - 2.0) < 1e-12)
        assert np.all(c.w3[inside] == 0.0)
        assert np.all(c.w4[inside] == 0.0)

    def test_remainder_bound_shape(self, grid32, params, rng):
        c = build_cutoff(3.0, grid32)
        C = remainder_bound_constant(params)
        for _ in range(5):
            f = random_smooth_field(grid32, rng, complex_phase=True)
            d2 = I_double_prime(f, c, params)
            rem = sum(d2.terms[k] for k in ("R1", "R2", "R3", "R4"))
            assert abs(rem) <= C * tail_integral(f, c.R, params) + 1e-12


class TestRigidityProbe:
    def test_preconditions(self, ground32, params):
        grid = ground32.profile.grid
        above = RadialField(grid, 1.0 * ground32.profile.values)
        cfg = EvolutionConfig(dt=5e-4)
        with pytest.raises(ValueError, match="S"):
            rigidity_probe(above, params, ground32.level, 0.1, cfg)
        negative_virial = RadialField(grid, 1.15 * ground32.profile.values)
        with pytest.raises(ValueError, match="virial"):
            rigidity_probe(negative_virial, params, ground32.level, 0.1, cfg)

    # T = 1e-4 is below dt; 0.025 is 50 steps, so the one tick of
    # monitor_every = 50 (or 60) is the last step, with no step after it
    @pytest.mark.parametrize("T,every", [(1e-4, 50), (np.inf, 50), (0.025, 50),
                                         (0.025, 60)])
    def test_horizon_must_span_a_tick(self, ground32, params, T, every):
        u0 = RadialField(ground32.profile.grid, 0.9 * ground32.profile.values)
        cfg = EvolutionConfig(dt=5e-4, t_end=1.0, monitor_every=every)
        with pytest.raises(ValueError, match="^probe horizon T"):
            rigidity_probe(u0, params, ground32.level, T, cfg)

    def test_convexity_for_scattering_datum(self, ground32, params):
        grid = ground32.profile.grid
        u0 = RadialField(grid, 0.9 * ground32.profile.values)
        cfg = EvolutionConfig(dt=5e-4, t_end=1.0, monitor_every=50,
                              decay_window=np.inf)
        rep = rigidity_probe(u0, params, ground32.level, 0.3, cfg)
        assert rep.delta0 > 0.0
        assert rep.min_Ipp > 0.0
        assert rep.forms_max_rel_gap <= 1e-10
        assert rep.remainder_bound_ok
        assert rep.second_diff_max_rel_err <= 1e-3

    def test_caller_config_unchanged(self, ground32, params):
        grid = ground32.profile.grid
        u0 = RadialField(grid, 0.9 * ground32.profile.values)
        cfg = EvolutionConfig(dt=5e-4, t_end=9.0, monitor_every=50, absorb=True)
        rigidity_probe(u0, params, ground32.level, 0.1, cfg)
        assert cfg.t_end == 9.0
        assert cfg.absorb is True

    def test_unread_fields_not_validated(self, ground32, params):
        # only dt, monitor_every and splitting_order are read, so only they are checked
        grid = ground32.profile.grid
        u0 = RadialField(grid, 0.9 * ground32.profile.values)
        clean = EvolutionConfig(dt=5e-4, t_end=1.0, monitor_every=50)
        dirty = replace(clean, decay_window=np.nan, absorb=True,
                        absorb_width=1e9, t_end=np.inf)
        got = rigidity_probe(u0, params, ground32.level, 0.1, dirty)
        want = rigidity_probe(u0, params, ground32.level, 0.1, clean)
        for f in fields(RigidityReport):
            assert getattr(got, f.name) == getattr(want, f.name), f.name

    def test_smaller_datum_more_convex(self, ground32, params):
        grid = ground32.profile.grid
        cfg = EvolutionConfig(dt=5e-4, t_end=1.0, monitor_every=50,
                              decay_window=np.inf)
        rep_09 = rigidity_probe(
            RadialField(grid, 0.9 * ground32.profile.values),
            params, ground32.level, 0.2, cfg,
        )
        rep_05 = rigidity_probe(
            RadialField(grid, 0.5 * ground32.profile.values),
            params, ground32.level, 0.2, cfg,
        )
        assert rep_05.delta0 > rep_09.delta0
        assert rep_05.min_Ipp > rep_09.min_Ipp

    @pytest.mark.parametrize("every", [1, 7, 50])
    def test_matches_stepwise_reference(self, ground32, params, every):
        # 123 steps: the last tick is not a multiple of monitor_every (7, 50)
        grid = ground32.profile.grid
        u0 = RadialField(grid, 0.9 * ground32.profile.values)
        cfg = EvolutionConfig(dt=5e-4, t_end=1.0, monitor_every=every)
        T = 123 * cfg.dt
        rep = rigidity_probe(u0, params, ground32.level, T, cfg)
        ref = _stepwise_probe(u0, params, ground32.level, T, cfg)
        assert rep.times == ref["times"]
        assert rep.times[-1] == pytest.approx(T)
        assert (rep.R, rep.delta0) == (ref["R"], ref["delta0"])
        for flag in ("bound_ok", "ipp_floor_ok", "remainder_bound_ok"):
            assert getattr(rep, flag) == ref[flag], flag
        assert rep.terms.keys() == ref["terms"].keys()
        np.testing.assert_allclose(rep.terms["I"], ref["terms"]["I"],
                                   rtol=1e-13, atol=0.0)
        scale = 1e-12 * np.max(np.abs(ref["terms"]["Ipp"]))
        for key, want in ref["terms"].items():
            np.testing.assert_allclose(rep.terms[key], want, rtol=0.0,
                                       atol=scale, err_msg=key)
        assert rep.second_diff_max_rel_err == pytest.approx(
            ref["second_diff_max_rel_err"], rel=0.0, abs=1e-9)
        assert rep.forms_max_rel_gap <= 1e-10

    def test_at_most_three_step_calls_per_tick(self, ground32, params,
                                               monkeypatch):
        grid = ground32.profile.grid
        u0 = RadialField(grid, 0.9 * ground32.profile.values)
        cfg = EvolutionConfig(dt=5e-4, t_end=1.0, monitor_every=20)
        calls = []
        original = _Stepper.step

        def step(self, u, n=1):
            calls.append(n)
            return original(self, u, n)

        monkeypatch.setattr(_Stepper, "step", step)
        rep = rigidity_probe(u0, params, ground32.level, 0.1, cfg)
        assert sum(calls) == 200
        assert len(calls) <= 3 * len(rep.times) + 1

    def test_one_node_gradient_per_tick(self, ground32, params, monkeypatch):
        # one for the cutoff radius selection, then one per monitor tick
        grid = ground32.profile.grid
        u0 = RadialField(grid, 0.9 * ground32.profile.values)
        cfg = EvolutionConfig(dt=5e-4, t_end=1.0, monitor_every=20)
        calls = []
        original = localized_virial.node_gradient

        def node_gradient(grid, u):
            calls.append(1)
            return original(grid, u)

        monkeypatch.setattr(localized_virial, "node_gradient", node_gradient)
        rep = rigidity_probe(u0, params, ground32.level, 0.1, cfg)
        assert len(calls) == 1 + len(rep.times)

    def test_shared_gradient_is_bit_identical(self, ground32, params, rng):
        grid = ground32.profile.grid
        f = random_smooth_field(grid, rng, complex_phase=True)
        c = build_cutoff(4.0, grid)
        du = node_gradient(grid, f.values)
        assert I_prime(f, c, du) == I_prime(f, c)
        assert I_double_prime(f, c, params, du) == I_double_prime(f, c, params)
        assert tail_integral(f, 4.0, params, du) == tail_integral(f, 4.0, params)

    def test_radius_selection_needs_domain(self, params):
        # a broad datum on a small domain cannot satisfy tail smallness
        grid = build_grid(2048, 8.0)
        f = gaussian(grid, 2.0, 3.0)
        delta0 = 1e-6
        with pytest.raises(ValueError, match="R_max"):
            select_cutoff_radius(f, params, delta0)

    def test_radius_selection_needs_a_candidate(self, params):
        # with R_max <= 3 no radius on the ladder from 1 fits 3R < R_max
        f = gaussian(build_grid(256, 3.0), 0.1, 0.5)
        with pytest.raises(ValueError, match="R_max"):
            select_cutoff_radius(f, params, 1.0)

    def test_radius_selection_is_largest_feasible(self, ground32, params, monkeypatch):
        # the tail shrinks as R grows, so one tail evaluation, at the largest
        # radius on the ladder, finds the largest radius passing the criterion
        u0 = RadialField(ground32.profile.grid, 0.9 * ground32.profile.values)
        delta0 = ground32.level - report(u0, params).action
        C = remainder_bound_constant(params)
        ladder = np.arange(1.0, u0.grid.r_max / 3.0, 0.5)
        tails = [tail_integral(u0, R, params) for R in ladder]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        feasible = [R for R, tail in zip(ladder, tails) if C * tail <= 0.5 * delta0]
        calls = []

        def counted(*args, _fn=tail_integral):
            calls.append(args[1])
            return _fn(*args)

        monkeypatch.setattr(localized_virial, "tail_integral", counted)
        assert select_cutoff_radius(u0, params, delta0) == feasible[-1] == ladder[-1]
        assert calls == [ladder[-1]]


def _stepwise_probe(u0, params, level, T, cfg):
    """The probe's records from the flow taken one step at a time, with I
    evaluated after every step."""
    grid = u0.grid
    delta0 = level - report(u0, params).action
    R = select_cutoff_radius(u0, params, delta0)
    cutoff = build_cutoff(R, grid)
    C = remainder_bound_constant(params)
    stepper = _Stepper(grid, params, cfg.dt, cfg.splitting_order)
    n_steps = int(round(T / cfg.dt))
    u = u0.values.astype(complex)
    I_series = [I_value(u0, cutoff)]
    rows = {}
    for k in range(1, n_steps + 1):
        u = stepper.step(u)
        f = RadialField(grid, u)
        I_series.append(I_value(f, cutoff))
        if k % cfg.monitor_every == 0 or k == n_steps:
            d2 = I_double_prime(f, cutoff, params)
            rows[k] = {
                "I": I_series[k],
                "Iprime": I_prime(f, cutoff),
                "Ipp": d2.total,
                "Ipp_decomposed": d2.total_decomposed,
                **d2.terms,
                "remainder_sum": sum(d2.terms[key] for key in REMAINDER_TERMS),
                "remainder_bound": C * tail_integral(f, R, params),
                "h1_norm_sq": report(f, params).h1_omega_gamma_sq,
            }
    terms = {key: [row[key] for row in rows.values()] for key in rows[n_steps]}
    errs = [
        abs((I_series[k + 1] - 2.0 * I_series[k] + I_series[k - 1]) / cfg.dt**2
            - row["Ipp"]) / abs(row["Ipp"])
        for k, row in rows.items() if k < n_steps
    ]
    ipp_ok = min(terms["Ipp"]) >= 0.5 * delta0
    rem_ok = all(abs(s) <= b + 1e-12
                 for s, b in zip(terms["remainder_sum"], terms["remainder_bound"]))
    return {
        "times": [k * cfg.dt for k in rows],
        "R": R,
        "delta0": delta0,
        "bound_ok": ipp_ok and rem_ok,
        "ipp_floor_ok": ipp_ok,
        "remainder_bound_ok": rem_ok,
        "terms": terms,
        "second_diff_max_rel_err": max(errs),
    }
