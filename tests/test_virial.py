from dataclasses import fields, replace
from fractions import Fraction

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
from radialnls.classify import gaussian
from radialnls.functionals import report
from radialnls.radial_grid import node_gradient
from radialnls.localized_virial import (
    PLATEAU,
    REMAINDER_TERMS,
    RigidityReport,
    chi_derivatives,
    remainder_bound_constant,
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

    @pytest.mark.parametrize("R", [0.0, -1.0, float("nan")])
    def test_build_requires_positive_radius(self, grid32, R):
        with pytest.raises(ValueError, match="^R must be positive$"):
            build_cutoff(R, grid32)

    def test_remainder_constants(self):
        # the exact constant; TestExactBridgeBounds proves it
        for gamma, mu in [(0.0, 1.0), (1.0, 1.0), (4.0, 1.5), (2512.0, 0.3)]:
            params = EquationParams(gamma=gamma, mu=mu, omega=1.0)
            assert remainder_bound_constant(params) == 60.0 + 4.0 * mu * gamma


# exact polynomial arithmetic on ascending coefficient lists of Fractions

def _deriv(p):
    return [k * c for k, c in enumerate(p)][1:]


def _value(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _add(*polys):
    return [sum((p[k] for p in polys if k < len(p)), Fraction(0))
            for k in range(max(map(len, polys)))]


def _scale(s, p):
    return [s * c for c in p]


def _times_x(p):
    return [Fraction(0), *p]


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _remainder(a, b):
    """The remainder of a divided by b (trimmed, nonzero)."""
    a = _trim(a)
    while len(a) >= len(b):
        f, shift = a[-1] / b[-1], len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = _trim(a)
    return a


def _divide_root(p, a):
    """p / (x - a) by synthetic division; a must be a root of p."""
    out, acc = [], Fraction(0)
    for c in reversed(p):
        acc = acc * a + c
        out.append(acc)
    assert out[-1] == 0, f"{a} is not a root"
    return out[-2::-1]


def _sign_changes(seq, x):
    signs = [v > 0 for v in (_value(p, x) for p in seq) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _roots_between(p, lo, hi):
    """The number of distinct roots of p in (lo, hi) by Sturm's theorem;
    p(lo) and p(hi) must be nonzero."""
    seq = [_trim(p), _trim(_deriv(p))]
    while len(seq[-1]) > 1:
        r = _remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append(_scale(-1, r))
    seq = [q for q in seq if q]
    return _sign_changes(seq, lo) - _sign_changes(seq, hi)


class TestExactBridgeBounds:
    """The cutoff bounds behind remainder_bound_constant, proved in exact
    rational arithmetic on localized_virial.BRIDGE: no float, no sampled
    point.

    Each inequality f >= 0 on the bridge [1, 3] is proved by dividing out the
    roots f has at an endpoint, then showing by a Sturm count that the
    quotient has no root in [1, 3], and that f(2) > 0.  So f > 0 on (1, 3),
    and f vanishes at an endpoint exactly to the divided order.
    """

    # chi on the bridge and its derivatives
    d = [[Fraction(p, q) for p, q in localized_virial.BRIDGE]]
    for _ in range(4):
        d.append(_deriv(d[-1]))
    x = [Fraction(0), Fraction(1)]

    #: name -> (f, {endpoint: order of the root of f there})
    INEQUALITIES = {
        "chi'' <= 2": (_add([Fraction(2)], _scale(-1, d[2])), {1: 2}),
        "chi' >= 0": (d[1], {3: 4}),
        "chi' <= 4x": (_add(_scale(4, x), _scale(-1, d[1])), {}),
        "chi'' - 2 >= -15": (_add(d[2], [Fraction(13)]), {}),
        "x chi'' + 2 chi' - 6x <= 60x":
            (_add(_scale(66, x), _scale(-1, _times_x(d[2])), _scale(-2, d[1])), {}),
        "x chi'' + 2 chi' - 6x >= -60x":
            (_add(_scale(54, x), _times_x(d[2]), _scale(2, d[1])), {}),
        "x chi'''' + 4 chi''' <= 60x":
            (_add(_scale(60, x), _scale(-1, _times_x(d[4])), _scale(-4, d[3])), {}),
        "x chi'''' + 4 chi''' >= -60x":
            (_add(_scale(60, x), _times_x(d[4]), _scale(4, d[3])), {1: 1}),
    }

    def test_sturm_count(self):
        F = Fraction
        assert _roots_between([F(15, 4), F(-4), F(1)], 1, 3) == 2  # roots 3/2, 5/2
        assert _roots_between([F(4), F(-4), F(1)], 1, 3) == 1  # double root 2
        assert _roots_between([F(1), F(0), F(1)], 1, 3) == 0
        assert _roots_between([F(-4), F(1)], 1, 3) == 0  # root 4
        assert _divide_root([F(4), F(-4), F(1)], 2) == [F(-2), F(1)]

    def test_endpoint_conditions(self):
        # a C^3 join to x^2 at 1 and a C^4 join to the plateau 23/7 at 3
        assert [_value(q, 1) for q in self.d[:4]] == [1, 2, 2, 0]
        assert [_value(q, 3) for q in self.d] == [Fraction(23, 7), 0, 0, 0, 0]
        # the floats the cutoff evaluates are the exact rationals, rounded once
        assert PLATEAU == float(Fraction(23, 7))
        assert localized_virial._BRIDGE == tuple(float(c) for c in self.d[0])

    @pytest.mark.parametrize("name", list(INEQUALITIES))
    def test_inequality_on_the_bridge(self, name):
        f, roots = self.INEQUALITIES[name]
        q = f
        for a, order in roots.items():
            for _ in range(order):
                q = _divide_root(q, a)
        assert _value(q, 1) != 0 and _value(q, 3) != 0
        assert _roots_between(q, 1, 3) == 0
        assert _value(f, 2) > 0

    def test_constant(self):
        # the sups over x >= 1 of the brace factors, by the inequalities:
        # |chi'' - 2| <= 15 (its upper side is chi'' <= 2); c2 <= 60; c3 = 60,
        # attained at 1+ where chi''' = 0 and chi'''' = -60; 0 <= chi'/x <= 4,
        # so c4 = 2, attained at 3 where chi' = 0.  On the plateau x >= 3 the
        # braces are 2, 6, 0 and 2; at x = 1 the core branch makes all four 0.
        c1, c2, c3, c4 = 15, 60, 60, 2
        assert (_value(self.d[3], 1), _value(self.d[4], 1)) == (0, -c3)
        assert _value(self.d[1], 3) == 0
        assert (max(2, c1), max(6, c2), max(0, c3), max(2, c4)) == (c1, c2, c3, c4)
        # the float products below are exact, so C must equal the exact value
        for gamma, mu in [(0.0, 1.0), (1.0, 1.0), (4.0, 1.5), (0.5, 0.25), (3.0, 1.75)]:
            mu_gamma = Fraction(mu) * Fraction(gamma)
            exact = max(4 * c1, c2, c3 + 2 * mu_gamma * c4)
            params = EquationParams(gamma=gamma, mu=mu, omega=1.0)
            assert Fraction(remainder_bound_constant(params)) == exact


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

    def test_horizon_beyond_float_steps_rejected(self, ground32, params):
        # T/dt overflows to inf; a dt of 0 is still named as dt
        u0 = RadialField(ground32.profile.grid, 0.9 * ground32.profile.values)
        with pytest.raises(ValueError, match="^probe horizon T"):
            rigidity_probe(u0, params, ground32.level, 1e308, EvolutionConfig(dt=5e-4))
        with pytest.raises(ValueError, match="^dt must lie"):
            rigidity_probe(u0, params, ground32.level, 1.0, EvolutionConfig(dt=0.0))

    def test_long_horizon_reaches_its_first_step(self, ground32, params, monkeypatch):
        # 1e303 steps: the ticks are walked in step order, not listed first
        class FirstStep(Exception):
            pass

        def step(self, u, n=1):
            raise FirstStep(n)

        monkeypatch.setattr(_Stepper, "step", step)
        u0 = RadialField(ground32.profile.grid, 0.9 * ground32.profile.values)
        cfg = EvolutionConfig(dt=1e-3, monitor_every=20)
        with pytest.raises(FirstStep) as exc:
            rigidity_probe(u0, params, ground32.level, 1e300, cfg)
        assert exc.value.args == (19,)

    @pytest.mark.parametrize("every", [1, 2, 3, 7, 20])
    def test_step_calls_run_between_marks(self, ground32, params, monkeypatch, every):
        # I is read at every tick and the steps beside it; the flow runs as
        # one call from each such step to the next
        grid = ground32.profile.grid
        u0 = RadialField(grid, 0.9 * ground32.profile.values)
        cfg = EvolutionConfig(dt=5e-4, monitor_every=every)
        n_steps = 47
        calls = []
        original = _Stepper.step

        def step(self, u, n=1):
            calls.append(n)
            return original(self, u, n)

        monkeypatch.setattr(_Stepper, "step", step)
        rep = rigidity_probe(u0, params, ground32.level, n_steps * cfg.dt, cfg)
        ticks = sorted({*range(every, n_steps + 1, every), n_steps})
        marks = sorted({m for k in ticks for m in (k - 1, k, k + 1) if 0 <= m <= n_steps})
        assert calls == [b - a for a, b in zip([0] + marks, marks) if b > a]
        assert rep.times == [k * cfg.dt for k in ticks]

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
        assert rep.bound_constant == 64.0

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
