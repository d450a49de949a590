import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import DOP853, solve_ivp

import radialnls
from radialnls import (
    EquationParams,
    EvolutionConfig,
    RadialField,
    ScalingPair,
    build_grid,
    ground_state,
    minimize_quotient,
    report,
    shoot_ode,
)
from radialnls.evolve import _Stepper, run
from radialnls.classify import gaussian
from radialnls.functionals import NEHARI_PAIR
from radialnls.ground_state import (
    MAX_CORE_SPACING,
    RESIDUAL_PAIRS,
    SHOOT_ATOL,
    SHOOT_BRACKET,
    SHOOT_MAX_SHOTS,
    SHOOT_RTOL,
    _dense_sample,
    _newton_polish,
    _quotient_parts,
    _shoot_accel,
    _shoot_classify,
    _shoot_start,
)
from radialnls.radial_grid import (
    CrankNicolson, Tridiagonal, integrate, lap_gamma_diagonals, solve_helmholtz,
)

from helpers import random_smooth_field


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


def _reference_classify(params, r0, r_end, a, steps=None):
    """The sign test and its event radius as a plain loop over `_loop_step`,
    with solve_ivp's step-size rule written with abs, min and max: the
    reference for the generated loop of ``_shoot_classify``."""
    accel = _shoot_accel(params)
    err_exp = -1.0 / (DOP853.error_estimator_order + 1)
    gamma, mu, omega = float(params.gamma), float(params.mu), float(params.omega)
    rtol, atol = SHOOT_RTOL, SHOOT_ATOL

    def rms(x, y):
        return math.sqrt(0.5 * (x * x + y * y))

    r = r0
    q, p = _shoot_start(params, r0, a)
    if q < 0.0:
        return -1, r0
    fp = accel(r, q, p)
    length = r_end - r
    sq, sp = atol + abs(q) * rtol, atol + abs(p) * rtol
    d0, d1 = rms(q / sq, p / sp), rms(p / sq, fp / sp)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    if not h0 > 0.0:
        return +1, r
    p1 = p + h0 * fp
    d2 = rms((p1 - p) / sq, (accel(r + h0, q + h0 * p, p1) - fp) / sp) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-err_exp)
    h_abs = min(100.0 * h0, h1, length)
    while True:
        min_step = 10.0 * math.ulp(r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return +1, r
            r_new = min(r + h_abs, r_end)
            h = r_new - r
            h_abs = h
            q_new, p_new, fp_new, e5q, e5p, e3q, e3p, kq, kp = _loop_step(
                r, h, r_new, q, p, fp, omega, gamma, mu
            )
            sq = atol + max(abs(q), abs(q_new)) * rtol
            sp = atol + max(abs(p), abs(p_new)) * rtol
            e5q, e5p, e3q, e3p = e5q / sq, e5p / sp, e3q / sq, e3p / sp
            err5 = e5q * e5q + e5p * e5p
            err3 = e3q * e3q + e3p * e3p
            if err5 == 0.0 and err3 == 0.0:
                err = 0.0
            else:
                err = h * err5 / math.sqrt(2.0 * (err5 + 0.01 * err3))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err**err_exp)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * err**err_exp)
            rejected = True
        if steps is not None:
            steps.append((r, h, q, p, q_new, kq, kp))
        # the event radius: the root of the chord of q (crossing) or q' (upturn)
        if q >= 0.0 and q_new <= 0.0:
            return -1, (r + h * q / (q - q_new) if q != q_new else r)
        if p <= 0.0 and p_new >= 0.0:
            return +1, (r + h * p / (p - p_new) if p != p_new else r)
        if r_new >= r_end:
            return +1, r_end
        r, q, p, fp = r_new, q_new, p_new, fp_new


def _flat(record):
    for x in record:
        yield from (_flat(x) if isinstance(x, (tuple, list)) else (x,))


class TestMinimizeQuotient:
    def test_converges_and_positive(self, ground_default):
        res = ground_default
        assert res.converged
        # the iterates stay real; the returned profile is complex
        assert res.profile.values.dtype == np.complex128
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
            rep_g = report(g, params_default)
            assert abs(rep_g.k(NEHARI_PAIR, params_default)) <= 1e-9 * rep_g.h1_omega_gamma_sq
            s = rep_g.action
            assert s >= ground_default.level * (1.0 - 1e-3)
            count += 1
        assert count >= 15


def _two_residual_polish(grid, u, params):
    """Reference Newton polish: each step evaluates the residual once as the
    right-hand side and once more to accept the new iterate."""
    lap = lap_gamma_diagonals(grid, params.gamma, params.mu)
    lower, diag, upper = lap

    def residual_norm(v):
        res = -params.omega * v + lap.apply(v) + v**3
        return float(np.sqrt(np.dot(grid.weights, res**2)))

    best, best_res = u, residual_norm(u)
    q = u
    steps = 0
    for _ in range(ground_state.NEWTON_STEPS):
        F = params.omega * q - lap.apply(q) - q**3
        jacobian = Tridiagonal(-lower, params.omega - diag - 3.0 * q**2, -upper)
        try:
            dq = jacobian.factor().solve(F)
        except np.linalg.LinAlgError:
            break
        q_new = q - dq
        if not np.all(np.isfinite(q_new)) or q_new.max() <= 0.0:
            break
        q_new = np.abs(q_new)
        r_new = residual_norm(q_new)
        steps += 1
        if r_new < best_res:
            best, best_res = q_new, r_new
        q = q_new
    return best, best_res, steps


class TestNewtonPolish:
    @pytest.mark.parametrize("gamma,mu,omega", [
        (1.0, 1.0, 1.0), (3.2, 0.4, 2.5), (0.7, 1.15, 0.3)])
    def test_equals_two_residual_reference(self, gamma, mu, omega):
        # the residual that accepts an iterate is the next step's right-hand
        # side, and the negated system gives the same step to the last bit
        params = EquationParams(gamma=gamma, mu=mu, omega=omega)
        grid = build_grid(1024, 16.0)
        q = minimize_quotient(params, grid).profile.values.real
        u = q * (1.0 + 1e-3 * np.exp(-grid.r**2))
        want, want_res, steps = _two_residual_polish(grid, u, params)
        got, got_res = _newton_polish(grid, u, params)
        assert steps >= 2
        assert want is not u
        assert np.array_equal(got, want)
        assert got_res == want_res

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quotient_mass_is_the_integral(self, grid_small, params_default, seed):
        # the descent reads its relative gradient off this mass
        u = np.abs(random_smooth_field(grid_small, np.random.default_rng(seed)).values.real)
        assert _quotient_parts(grid_small, u, params_default)[2] == integrate(grid_small, u**2)


class TestFullStep:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(64, 1024),
        r_max=st.floats(4.0, 32.0),
        gamma=st.one_of(st.just(0.0), st.floats(0.0, 1000.0)),
        mu=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
        omega=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_raises_the_quotient(self, n, r_max, gamma, mu, omega, seed):
        # the module docstring's proof, on the descent's own expressions: from
        # a nonnegative field on the Nehari set, |u - g| has a lower quotient
        grid = build_grid(n, min(r_max, MAX_CORE_SPACING * n / math.sqrt(omega)))
        params = EquationParams(gamma=gamma, mu=mu, omega=omega)
        u = np.abs(random_smooth_field(grid, np.random.default_rng(seed)).values.real)
        A, B, _ = _quotient_parts(grid, u, params)
        u = u * np.sqrt(A / B)
        A, B, _ = _quotient_parts(grid, u, params)
        J = A**2 / (4.0 * B)
        # on the Nehari set, which keeps the descent's iterates off the zero field
        assert A == pytest.approx(B, rel=1e-12) and A == pytest.approx(4.0 * J, rel=1e-12)
        g = (A / B) * u - (A / B) ** 2 * solve_helmholtz(grid, u**3, params)
        Av, Bv, _ = _quotient_parts(grid, np.abs(u - g), params)
        assert Bv > 0.0
        assert Av**2 / (4.0 * Bv) < J

    def test_one_trial_per_iteration_and_two_newton_steps(
        self, grid_small, params_default, monkeypatch
    ):
        # two evaluations before the loop, then the trial and the accepted
        # iterate in each iteration; the polish factors one Jacobian per step
        parts = ground_state._quotient_parts
        calls, factors = [], []

        def counted_parts(*args):
            calls.append(args)
            return parts(*args)

        class CountedTridiagonal(Tridiagonal):
            def factor(self):
                factors.append(self)
                return super().factor()

        monkeypatch.setattr(ground_state, "_quotient_parts", counted_parts)
        monkeypatch.setattr(ground_state, "Tridiagonal", CountedTridiagonal)
        res = minimize_quotient(params_default, grid_small)
        assert res.converged
        assert len(calls) == 2 + 2 * res.iterations
        assert ground_state.NEWTON_STEPS == 2
        assert 1 <= len(factors) <= 2


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
        monkeypatch.setattr(ground_state, "_shoot_classify", lambda *args: (sign, 1.0))
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
        (1.0, 4096, 5.894779341479392, 36.9768186623876),
        (0.0, 2048, 4.337388366953945, 18.89717614305791),
    ])
    def test_pinned_values(self, gamma, n, amplitude, level):
        # the amplitude that a bisection of solve_ivp sign tests under the
        # same stop rule gives (43 bisections at both points), which the
        # event-radius search meets to 1e-12, and the level of the clipped
        # dense sample at the oracle's amplitude; the level is pinned below
        # the resolution that test_level_matches_bit_exhaustion documents
        res = shoot_ode(EquationParams(gamma=gamma, mu=1.0, omega=1.0), build_grid(n, 32.0))
        assert res.shoot_amplitude == pytest.approx(amplitude, rel=1e-12, abs=0.0)
        assert res.level == pytest.approx(level, rel=1e-12, abs=0.0)


def _bit_exhaustion_level(params, grid):
    """The oracle's level with the bisection run until the midpoint is no
    longer a new float, from SHOOT_BRACKET (which must hold the separatrix)."""
    r0, r_end = grid.h / 2.0, grid.r_max
    lo, hi = SHOOT_BRACKET
    assert _shoot_classify(params, r0, r_end, lo)[0] > 0 > _shoot_classify(params, r0, r_end, hi)[0]
    while 0.5 * (lo + hi) not in (lo, hi):
        mid = 0.5 * (lo + hi)
        if _shoot_classify(params, r0, r_end, mid)[0] > 0:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    steps = []
    _shoot_classify(params, r0, r_end, a, steps)
    q = np.maximum(_dense_sample(params, steps, grid.r), 0.0)
    return report(RadialField(grid, q.astype(complex)), params).action


def _replay(tests, shots, amplitude):
    """Replay the sign tests (amplitude, sign) of one oracle call, whose last
    `shots` refine the bracket the others found: each refinement shot lies
    strictly inside a bracket wider than SHOOT_RTOL relative, the final
    bracket is not, and the amplitude is its midpoint."""
    search, refinement = tests[:-shots], tests[-shots:]
    lo = max(a for a, sign in search if sign > 0)
    hi = min(a for a, sign in search if sign < 0)
    for a, sign in refinement:
        assert hi - lo > SHOOT_RTOL * lo and lo < a < hi
        lo, hi = (a, hi) if sign > 0 else (lo, a)
    assert hi - lo <= SHOOT_RTOL * lo
    assert amplitude == 0.5 * (lo + hi)


def _synthetic_oracle(monkeypatch, a_star, radius):
    """shoot_ode with a synthetic sign test whose separatrix is at a_star and
    whose event radius is radius(a); the bracket must meet the stop rule
    within SHOOT_MAX_SHOTS refinement shots.  The recording shot runs at
    amplitude 1, where the profile ODE turns back up, since it only feeds the
    profile."""
    tests = []

    def synthetic(params, r0, r_end, a, steps=None):
        if steps is None:
            tests.append((a, +1 if a < a_star else -1))
            return tests[-1][1], radius(a)
        return _shoot_classify(params, r0, r_end, 1.0, steps)

    monkeypatch.setattr(ground_state, "_shoot_classify", synthetic)
    res = shoot_ode(EquationParams(1.0, 1.0, 1.0), build_grid(1024, 32.0))
    assert 0 < res.iterations <= SHOOT_MAX_SHOTS
    _replay(tests, res.iterations, res.shoot_amplitude)


class TestStopRule:
    def test_bisection_stops_at_the_integrators_resolution(
        self, params_default, grid_default, monkeypatch
    ):
        """Replaying the sign tests of the oracle at the default point: the
        event-radius search refines the bracket in at most 25 shots."""
        tests = []

        def recording(params, r0, r_end, a, steps=None):
            event = _shoot_classify(params, r0, r_end, a, steps)
            if steps is None:
                tests.append((a, event[0]))
            return event

        monkeypatch.setattr(ground_state, "_shoot_classify", recording)
        res = shoot_ode(params_default, grid_default)
        assert res.iterations <= 25
        _replay(tests, res.iterations, res.shoot_amplitude)

    @pytest.mark.parametrize("a_star", [
        0.5 + 1e-7, 1.0, 5.9, 30.0 - 1e-4, 30.0 + 1e-7, 60.0, 0.49999,
        0.0625 - 1e-9, 0.0625 + 1e-9, 1e-7, 1e4, 5e-308,
    ])
    def test_terminates_within_46_halvings(self, a_star, monkeypatch):
        """The bracket search leaves 0 < lo < hi <= 60 lo, which bisection
        closes in at most ceil(log2(59 / SHOOT_RTOL)) = 46 halvings; the
        search bisects once its shots plus the halvings still needed reach
        SHOOT_MAX_SHOTS = 48, so it never takes more, whatever the separatrix
        position: a synthetic separatrix at a_star, near the bracket ends and
        the search's steps, with a constant event radius."""
        _synthetic_oracle(monkeypatch, a_star, lambda a: 10.0)

    @settings(max_examples=150, deadline=None)
    @given(
        log_a_star=st.floats(-300.0, 30.0),
        kind=st.sampled_from(["constant", "random", "rising"]),
        scale=st.floats(0.0, 40.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_terminates_whatever_the_event_radius(self, log_a_star, kind, scale, seed):
        """The event radius only steers the search: with a constant radius, a
        random one, or one that rises away from the separatrix, against the
        profile ODE's, the loop still meets the stop rule within
        SHOOT_MAX_SHOTS shots, each strictly inside its bracket."""
        a_star = 10.0**log_a_star
        rng = random.Random(seed)
        radius = {
            "constant": lambda a: scale,
            "random": lambda a: rng.uniform(0.0, 40.0),
            "rising": lambda a: scale * min(1.0, abs(math.log(a / a_star)) * 1e6),
        }[kind]
        with pytest.MonkeyPatch.context() as monkeypatch:
            _synthetic_oracle(monkeypatch, a_star, radius)

    def test_subnormal_separatrix_raises(self, monkeypatch):
        """Below the smallest normal float SHOOT_RTOL * lo underflows and a
        one-ulp bracket would never meet the stop rule, so the downward
        search raises before its low end turns subnormal."""
        monkeypatch.setattr(ground_state, "_shoot_classify",
                            lambda params, r0, r_end, a, steps=None: (+1 if a < 1e-315 else -1, r0))
        with pytest.raises(RuntimeError, match="normal float range"):
            shoot_ode(EquationParams(1.0, 1.0, 1.0), build_grid(1024, 32.0))

    @pytest.mark.parametrize("point, n", [
        ((1.0, 1.0, 1.0), 4096), ((0.0, 1.0, 1.0), 2048), ((3.9, 1.19, 0.26), 4096),
    ])
    def test_level_matches_bit_exhaustion(self, point, n):
        # past SHOOT_RTOL a shot fixes digits the sign test does not
        # resolve; over 51 points in the threshold ranges the level moves by
        # at most 6.0e-11 relative
        params, grid = EquationParams(*point), build_grid(n, 32.0)
        level = shoot_ode(params, grid).level
        assert level == pytest.approx(_bit_exhaustion_level(params, grid), rel=1e-10, abs=0.0)


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
            if _shoot_classify(params, r0, r_end, a)[0] != expected:
                mismatched.append(a)
        assert mismatched == []

    @pytest.mark.parametrize("point", [(1.0, 1.0, 1.0), (3.9, 1.19, 0.26), (0.1, 0.05, 0.3)])
    def test_event_radius(self, point, grid_default):
        """The event radius, the root of the chord of q or q' over the step
        that ends the shot, lies in that step and within 0.02 of solve_ivp's
        event time, at 30 amplitudes a*(1 +- 2^-k) about the separatrix."""
        params = EquationParams(*point)
        r0, r_end = grid_default.h / 2.0, grid_default.r_max
        a_star = shoot_ode(params, grid_default).shoot_amplitude
        for a in [a_star * (1.0 + s * 2.0**-k) for k in range(1, 16) for s in (1, -1)]:
            steps = []
            sign, r_event = _shoot_classify(params, r0, r_end, a, steps)
            r, h = steps[-1][:2]
            assert r <= r_event <= r + h
            (t_event,) = _solve_ivp_shot(params, r0, r_end, a).t_events[0 if sign < 0 else 1]
            assert abs(r_event - t_event) <= 0.02

    def test_negative_start_counts_as_crossing(self, params_default, grid_default):
        """At a = 1e8 the start value q(r0) is already below zero.  solve_ivp
        records no crossing event there (its step size underflows), but the
        profile has crossed zero, and the sign test returns -1."""
        r0, r_end = grid_default.h / 2.0, grid_default.r_max
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _solve_ivp_shot(params_default, r0, r_end, 1e8)
        assert ref.status == -1 and ref.t_events[0].size == 0
        assert _shoot_start(params_default, r0, 1e8)[0] < 0.0
        assert _shoot_classify(params_default, r0, r_end, 1e8) == (-1, r0)


def _assert_same_shot(params, r0, r_end, a):
    """The generated loop and the reference loop give the same sign and event
    radius and record the same steps; a NaN (a stage that left float range)
    must match a NaN."""
    got, ref = [], []
    event = _shoot_classify(params, r0, r_end, a, got)
    assert event == _reference_classify(params, r0, r_end, a, ref)
    assert all(len(kq) == len(kp) == 13 for *_, kq, kp in got)
    assert all(x == y or (x != x and y != y) for x, y in zip(_flat(got), _flat(ref), strict=True))


#: the separatrix amplitude at (gamma, mu, omega) = (1, 1, 1) from r0 = h/2
#: on build_grid(4096, 32.0) (test_pinned_values)
A_STAR = 5.894779341479392


class TestShootLoop:
    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(-1.0, 1.0))
    def test_bit_identical_near_the_separatrix(self, t):
        """Within 2^-40 of the separatrix each shot runs its longest, to the
        far end of the core before it turns up or crosses."""
        r0 = build_grid(4096, 32.0).h / 2.0
        _assert_same_shot(EquationParams(1.0, 1.0, 1.0), r0, 32.0, A_STAR * (1.0 + t * 2.0**-40))

    @settings(max_examples=100, deadline=None)
    @given(
        gamma=st.floats(0.0, 10.0), mu=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
        omega=st.floats(1e-2, 10.0), r_end=st.floats(1.0, 40.0),
        start=st.one_of(
            st.tuples(st.floats(-3.0, 2.0), st.floats(-8.0, -1.0)).map(
                lambda e: (10.0 ** e[0], 10.0 ** e[1])),
            st.tuples(st.floats(100.0, 103.0), st.floats(1e-3, 3.0)).map(
                lambda e: (10.0 ** e[0], e[1] / 10.0 ** e[0])),
        ),
    )
    @example(gamma=1.0, mu=1.0, omega=1.0, r_end=32.0, start=(5e102, 0.5 / 5e102))
    @example(gamma=1.0, mu=1.0, omega=1.0, r_end=32.0, start=(5.0, 1e-8))
    def test_bit_identical_to_the_tableau_loop(self, gamma, mu, omega, r_end, start):
        """Ordinary amplitudes, whose first steps are often rejected (13 of
        128 attempts at the second example), and amplitudes up to 1e103 from
        r0 ~ 1/a, where the cube overflows and the stages turn NaN until the
        step size underflows (the first example: 22 attempts, all NaN)."""
        a, r0 = start
        _assert_same_shot(EquationParams(gamma, mu, omega), r0, r_end, a)


class TestDenseSample:
    @pytest.mark.parametrize("point", [(1.0, 1.0, 1.0), (3.9, 1.19, 0.26)])
    def test_matches_solve_ivp_dense_output(self, point, grid_default):
        """At the oracle's amplitude, the node sample of the recorded steps
        matches solve_ivp's dense output of its own shot on the nodes up to
        its event.  The comparison stops where the profile falls below 1e-6
        of the amplitude: past that the separatrix instability, which grows
        like exp(2 sqrt(omega) r), has amplified the round-off by which the
        two step sequences differ."""
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
    """The package and its CLI import without scipy.linalg (LAPACK's
    tridiagonal routines come from scipy's extension file, loaded by path),
    scipy.interpolate, scipy.integrate, scipy.optimize, multiprocessing,
    fractions or decimal (the bridge coefficients are integer pairs), and
    none of them arrives with a descent, an evolution, the shooting oracle
    (its tableau comes from scipy's coefficient file, not from
    scipy.integrate) or a rigidity probe.  No submodule of them is in
    sys.modules either, so the files loaded by path stay out of it."""
    env = dict(os.environ, PYTHONPATH=str(Path(radialnls.__file__).parents[1]))
    code = """if True:
        import sys, radialnls, radialnls.cli
        lazy = ("scipy.linalg", "scipy.interpolate", "scipy.integrate", "scipy.optimize",
                "multiprocessing", "fractions", "decimal")
        def loaded():
            return sorted(m for m in sys.modules
                          if any(m == p or m.startswith(p + ".") for p in lazy))
        print(loaded())
        from radialnls import (EquationParams, EvolutionConfig, RadialField, build_grid,
                               minimize_quotient, rigidity_probe, run, shoot_ode)
        params = EquationParams(1.0, 1.0, 1.0)
        ground = minimize_quotient(params, build_grid(512, 16.0))
        run(ground.profile, EvolutionConfig(dt=1e-3, t_end=0.01), params)
        print(loaded())
        shoot_ode(params, ground.profile.grid)
        print(loaded())
        u0 = RadialField(ground.profile.grid, 0.8 * ground.profile.values)
        rigidity_probe(u0, params, ground.level, 0.05, EvolutionConfig(dt=5e-4))
        print(loaded())
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]"] * 4


class TestDop853Tableau:
    def test_equals_scipys_class(self):
        """The tableau read from scipy's coefficient file is, array by array,
        what scipy.integrate.DOP853 holds (same shape, dtype and values), and
        the error-estimator order is the class's."""
        tableau = ground_state._dop853()
        assert tableau.n_stages == DOP853.n_stages
        for name in ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"):
            ours, theirs = getattr(tableau, name), getattr(DOP853, name)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
        assert ground_state._DOP853_ERROR_ORDER == DOP853.error_estimator_order


class TestValidatePohozaev:
    def test_residuals_vanish(self, ground_default, params_default):
        h1 = report(ground_default.profile, params_default).h1_omega_gamma_sq
        for pair, val in ground_default.k_residuals.items():
            assert abs(val) <= 1e-4 * h1

    def test_negative_control(self, ground_default, params_default):
        # a non-stationary field has residuals far from zero
        fake = gaussian(ground_default.profile.grid, 2.0, 1.5)
        rep = report(fake, params_default)
        h1 = rep.h1_omega_gamma_sq
        assert any(abs(rep.k(p, params_default)) > 1e-2 * h1 for p in RESIDUAL_PAIRS)


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


class TestSmallMuLimit:
    @pytest.mark.parametrize("gamma,omega", [(1.0, 1.0), (4.0, 0.25)])
    def test_level_tends_to_the_free_level_at_omega_plus_gamma(self, gamma, omega):
        # at mu = 0 the discrete Delta_gamma is exactly Delta - gamma, so the
        # level there is the free (gamma = 0) level at frequency omega + gamma
        # on the same grid; a quadratic in mu carries the descent's levels to
        # mu = 0 (measured 2.8e-7 at (1, 1) and 1.2e-6 at (4, 1/4))
        grid = build_grid(4096, 32.0)
        mus = (0.005, 0.01, 0.02, 0.04)
        levels = [minimize_quotient(EquationParams(gamma, mu, omega), grid).level
                  for mu in mus]
        limit = np.polyval(np.polyfit(mus, levels, 2), 0.0)
        free = minimize_quotient(EquationParams(0.0, 1.0, omega + gamma), grid).level
        assert limit == pytest.approx(free, rel=5e-6)


class TestScaleCovariance:
    """u_lam(t, r) = lam u(lam^2 t, lam r) maps (gamma, mu, omega) on (n, h) to
    (gamma lam^(2-mu), mu, lam^2 omega) on (n, h/lam).  At lam = 2 and mu = 1
    every factor is a power of two, so the discrete maps scale exactly.  This
    checks the discrete law across grids; TestScalingLawFreeEquation and
    ACCEPTANCE 3 check the continuum law on one grid."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(16, 512),
        r_max=st.floats(2.01, 64.0),
        gamma=st.floats(0.0, 8.0),
        omega=st.floats(0.01, 8.0),
        tau=st.floats(1e-4, 0.5),
        order=st.sampled_from([2, 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_operator_and_steps_scale_exactly_at_mu_one(
        self, n, r_max, gamma, omega, tau, order, seed
    ):
        grid, half = build_grid(n, r_max), build_grid(n, r_max / 2.0)
        params = EquationParams(gamma, 1.0, omega)
        scaled = EquationParams(2.0 * gamma, 1.0, 4.0 * omega)
        lap = lap_gamma_diagonals(grid, params.gamma, params.mu)
        lap_scaled = lap_gamma_diagonals(half, scaled.gamma, scaled.mu)
        for a, b in zip(lap, lap_scaled):
            assert np.array_equal(4.0 * a, b)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.array_equal(
            2.0 * CrankNicolson(lap, tau)(u), CrankNicolson(lap_scaled, tau / 4.0)(2.0 * u)
        )
        step = _Stepper(lap, tau, order).step(u, 3)
        assert np.array_equal(
            2.0 * step, _Stepper(lap_scaled, tau / 4.0, order).step(2.0 * u, 3)
        )

    def test_run_scales_exactly_at_mu_one(self):
        # dt = 0.04 is refined five times on the way, on both sides
        grid, half = build_grid(512, 32.0), build_grid(512, 16.0)
        u0 = RadialField(grid, 0.8 * np.exp(-((grid.r / 2.0) ** 2)))
        cfg = EvolutionConfig(dt=0.04, t_end=0.5, monitor_every=10)
        trace = run(u0, cfg, EquationParams(0.5, 1.0, 1.0))
        scaled = run(
            RadialField(half, 2.0 * u0.values),
            replace(cfg, dt=cfg.dt / 4.0, t_end=cfg.t_end / 4.0,
                    decay_window=cfg.decay_window / 4.0),
            EquationParams(1.0, 1.0, 4.0),
        )
        assert trace.dt_final < cfg.dt
        assert scaled.outcome is trace.outcome
        assert scaled.dt_final == trace.dt_final / 4.0
        assert scaled.final_time == trace.final_time / 4.0
        assert np.array_equal(scaled.final_state.values, 2.0 * trace.final_state.values)

    @pytest.mark.parametrize("gamma,mu,omega", [(1.0, 1.0, 4.0), (1.0, 0.3, 0.25),
                                                (4.0, 1.5, 2.0)])
    def test_descent_level_doubles(self, gamma, mu, omega):
        # the level scales as lam^(4-d) = lam; the descent's own iteration
        # is not scale-free, so the agreement is to round-off, not exact
        level = minimize_quotient(EquationParams(gamma, mu, omega), build_grid(4096, 32.0)).level
        coarse = minimize_quotient(
            EquationParams(gamma / 2.0 ** (2.0 - mu), mu, omega / 4.0), build_grid(4096, 64.0)
        ).level
        assert level == pytest.approx(2.0 * coarse, rel=1e-15, abs=0.0)


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
