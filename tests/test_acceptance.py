"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized to finish in a few minutes.
"""

import numpy as np
import pytest

from radialnls import (
    EquationParams,
    EvolutionConfig,
    Outcome,
    Predicted,
    RadialField,
    ScalingPair,
    build_grid,
    classify,
    minimize_quotient,
    report,
    rigidity_probe,
    run,
)
from radialnls.functionals import DEFAULT_PAIRS
from radialnls.ground_state import RESIDUAL_PAIRS

from helpers import embed_field, fd_check_k, random_smooth_field

CHECK_PAIRS = tuple(ScalingPair(*ab) for ab in [(1, 0), (3, 2), (2, 1), (3, 0)])


def _ok(num, label, detail=""):
    print(f"ACCEPTANCE {num}: PASS — {label}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def scatter_traces(ground_default, params_default):
    """Scattering-side runs of the dichotomy family on the doubled domain."""
    big = build_grid(2 * ground_default.profile.grid.n,
                     2.0 * ground_default.profile.grid.r_max)
    traces = {}
    for c in (0.5, 0.7, 0.9):
        u0 = embed_field(
            RadialField(ground_default.profile.grid,
                        c * ground_default.profile.values),
            big,
        )
        cfg = EvolutionConfig(dt=1e-3, t_end=25.0, monitor_every=50,
                              absorb=True, absorb_width=8.0, decay_window=2.0)
        traces[c] = run(u0, cfg, params_default, level=ground_default.level)
    return traces


@pytest.fixture(scope="module")
def blowup_traces(ground_default, params_default):
    traces = {}
    for c in (1.1, 1.2):
        u0 = RadialField(ground_default.profile.grid,
                         c * ground_default.profile.values)
        cfg = EvolutionConfig(dt=1e-3, t_end=5.0, monitor_every=20,
                              absorb=False, decay_window=np.inf)
        traces[c] = run(u0, cfg, params_default)
    return traces


def test_criterion_1_scaling_derivative(params_default, rng):
    grid = build_grid(4096, 16.0)
    eps = 1e-3
    worst = 0.0
    for _ in range(20):
        f = random_smooth_field(grid, rng)
        for pair in CHECK_PAIRS:
            analytic, fd = fd_check_k(f, pair, params_default, eps)
            err = abs(analytic - fd)
            tol = 1e-4 * (1.0 + abs(analytic))
            worst = max(worst, err / tol)
            assert err <= tol, (pair, analytic, fd)
    # Richardson order ~ 2 where the eps^2 term dominates
    f = RadialField(grid, np.exp(-grid.r**2).astype(complex))
    orders = []
    for pair in (ScalingPair(3, 2), ScalingPair(2, 1)):
        analytic, fd1 = fd_check_k(f, pair, params_default, 1e-2)
        _, fd2 = fd_check_k(f, pair, params_default, 5e-3)
        orders.append(np.log2(abs(fd1 - analytic) / abs(fd2 - analytic)))
    assert all(1.5 < o < 2.5 for o in orders)
    _ok(1, "scaling derivative matches finite difference",
        f"worst err/tol {worst:.2f}, Richardson orders {[f'{o:.2f}' for o in orders]}")


def test_criterion_2_ground_state_cross_validation(
    ground_default, ground_oracle, params_default
):
    rel = abs(ground_oracle.level - ground_default.level) / ground_default.level
    assert rel <= 1e-3
    h1 = report(ground_default.profile, params_default).h1_omega_gamma_sq
    worst = 0.0
    for pair in RESIDUAL_PAIRS:
        val = ground_default.k_residuals[pair]
        worst = max(worst, abs(val) / (1e-4 * h1))
        assert abs(val) <= 1e-4 * h1, (pair, val)
    _ok(2, "descent and shooting levels agree; K residuals vanish",
        f"level rel diff {rel:.2e}, worst residual/tol {worst:.2f}")


def test_criterion_3_free_scaling_law():
    grid = build_grid(4096, 32.0)
    levels = {}
    for omega in (0.5, 1.0, 2.0):
        params = EquationParams(gamma=0.0, mu=1.0, omega=omega)
        levels[omega] = minimize_quotient(params, grid).level
    errs = {}
    for omega in (0.5, 2.0):
        ratio = levels[omega] / levels[1.0]
        errs[omega] = abs(ratio - omega**0.5) / omega**0.5
        assert errs[omega] <= 1e-3
    _ok(3, "free-limit threshold scales as sqrt(omega)",
        f"rel errs {errs[0.5]:.2e}, {errs[2.0]:.2e}")


def test_criterion_4_conservation(ground_default, params_default):
    u0 = RadialField(ground_default.profile.grid,
                     0.9 * ground_default.profile.values)
    cfg = EvolutionConfig(dt=7.5e-5, t_end=1.0, monitor_every=500,
                          absorb=False, decay_window=np.inf)
    trace = run(u0, cfg, params_default)
    assert trace.outcome is Outcome.RAN_TO_T_END
    mass = max(abs(d) for d in trace.mass_drift)
    energy = max(abs(d) for d in trace.energy_drift)
    assert mass <= 1e-8
    assert energy <= 1e-6
    _ok(4, "mass and energy conserved without the absorbing layer",
        f"mass drift {mass:.2e}, energy drift {energy:.2e}")


def test_criterion_5_standing_wave(ground_default, params_default,
                                   standing_wave_channels):
    q = ground_default.profile
    cfg = EvolutionConfig(dt=1.25e-4, t_end=1.0, monitor_every=80,
                          absorb=False, decay_window=np.inf,
                          splitting_order=4)
    # one snapshot at each monitor tick, every 80 dt = 0.01
    trace = run(q, cfg, params_default,
                snapshot_times=tuple(k * 0.01 for k in range(101)))
    assert trace.outcome is Outcome.RAN_TO_T_END
    assert [s.t for s in trace.snapshots] == trace.times
    phase, dev = standing_wave_channels(trace, q)
    dev = max(dev)
    assert dev <= 1e-4
    rate = np.polyfit(trace.times, np.unwrap(phase), 1)[0]
    assert abs(rate - params_default.omega) <= 0.01 * params_default.omega
    _ok(5, "ground state evolves as a standing wave",
        f"max modulus deviation {dev:.2e}, phase rate {rate:.5f}")


def test_criterion_6_dichotomy(
    ground_default, params_default, scatter_traces, blowup_traces
):
    rows = []
    for c, trace in sorted(scatter_traces.items()):
        u0 = RadialField(ground_default.profile.grid,
                         c * ground_default.profile.values)
        verdict = classify(u0, params_default, ground_default)
        assert verdict.predicted is Predicted.SCATTER, c
        assert trace.outcome is Outcome.DECAY_DETECTED, (c, trace.outcome)
        rows.append((c, "scatter", "decay"))
    for c, trace in sorted(blowup_traces.items()):
        u0 = RadialField(ground_default.profile.grid,
                         c * ground_default.profile.values)
        verdict = classify(u0, params_default, ground_default)
        assert verdict.predicted is Predicted.BLOWUP, c
        assert trace.outcome is Outcome.BLOWUP_DETECTED, (c, trace.outcome)
        rows.append((c, "blowup", "blowup"))
    _ok(6, "predicted = empirical on the five-point dichotomy family",
        "; ".join(f"c={c}: {p}/{e}" for c, p, e in rows))


def test_criterion_7_k_floor(scatter_traces):
    trace = scatter_traces[0.9]
    assert len(trace.k_lower_bound_ok) > 10
    assert all(trace.k_lower_bound_ok)
    _ok(7, "virial lower bound held at every monitored time",
        f"{len(trace.k_lower_bound_ok)} ticks along the c=0.9 run")


def test_criterion_8_virial_identity(ground_default, params_default):
    # doubled domain so the cutoff bridge sits well beyond the radiation
    # emitted over the probe horizon
    grid = build_grid(2 * ground_default.profile.grid.n,
                      2.0 * ground_default.profile.grid.r_max)
    u0 = embed_field(
        RadialField(ground_default.profile.grid,
                    0.9 * ground_default.profile.values),
        grid,
    )
    cfg = EvolutionConfig(dt=5e-4, t_end=2.0, monitor_every=50,
                          absorb=False, decay_window=np.inf)
    probe = rigidity_probe(u0, params_default, ground_default.level, 2.0, cfg)
    tol = max(1e-3, 10.0 * cfg.dt**2 + 10.0 * grid.h**2)
    assert probe.second_diff_max_rel_err <= tol
    assert probe.forms_max_rel_gap <= 1e-10
    assert probe.min_Ipp > 0.0
    _ok(8, "virial identity consistent along the flow; I''(t) stays positive",
        f"second-diff err {probe.second_diff_max_rel_err:.2e} (tol {tol:.1e}), "
        f"forms gap {probe.forms_max_rel_gap:.1e}, min I'' {probe.min_Ipp:.3f}")


def _below_threshold_family(grid, params, level, rng, count):
    """Half the fields on the subcritical branch, half on the supercritical
    branch of their amplitude ray, all strictly below the threshold."""
    fields = []
    want_low = count // 2
    while len(fields) < count:
        f = random_smooth_field(grid, rng)
        rep = report(f, params)
        A, B = rep.h1_omega_gamma_sq, rep.quartic
        if B < 1e-12 or A < 1e-12:
            continue
        disc = (A / B) ** 2 - 4.0 * level / B
        if disc <= 0.0:
            continue
        x_low = A / B - np.sqrt(disc)
        x_high = A / B + np.sqrt(disc)
        if len(fields) < want_low:
            c = 0.9 * np.sqrt(x_low)
        else:
            c = 1.05 * np.sqrt(x_high)
        g = RadialField(grid, c * f.values)
        if report(g, params).action < level:
            fields.append(g)
    return fields


def test_criterion_9_sign_splitting(ground_default, params_default, rng):
    grid = build_grid(2048, 16.0)
    fields = _below_threshold_family(
        grid, params_default, ground_default.level, rng, 100
    )
    verdicts = [classify(f, params_default, ground_default) for f in fields]
    assert all(v.below_threshold for v in verdicts)
    assert all(tuple(v.k_signs) == DEFAULT_PAIRS for v in verdicts)
    signs = [set(v.k_signs.values()) for v in verdicts]
    violators = [i for i, s in enumerate(signs) if len(s) != 1]
    assert not violators, violators
    n_pos, n_neg = signs.count({1}), signs.count({-1})
    assert n_pos > 0 and n_neg > 0
    _ok(9, "sign of K^{alpha,beta} unanimous on 100 below-threshold fields",
        f"{n_pos} positive, {n_neg} negative, 0 violations")


def test_criterion_10_equivalence_suite(params_default, rng):
    grid = build_grid(2048, 16.0)
    kept = 0
    attempts = 0
    while kept < 100 and attempts < 2000:
        attempts += 1
        f = random_smooth_field(grid, rng)
        # shrink onto the gradient-dominated side so every pair is nonneg
        f = RadialField(grid, 0.2 * f.values)
        rep = report(f, params_default)
        if any(rep.k(p, params_default) < 0.0 for p in DEFAULT_PAIRS):
            continue
        for pair in DEFAULT_PAIRS:
            a, b = pair.alpha, pair.beta
            lhs = 2.0 * (a - b) * rep.action
            mid = (a - b) * rep.h1_omega_gamma_sq
            rhs = (4.0 * a - 3.0 * b) * rep.action
            scale = abs(mid) + 1e-30
            assert lhs <= mid + 1e-10 * scale, pair
            assert mid <= rhs + 1e-10 * scale, pair
        kept += 1
    assert kept == 100
    _ok(10, "two-sided action/norm inequality held on 100 fields",
        f"{kept} fields x {len(DEFAULT_PAIRS)} pairs, 0 violations")
