import concurrent.futures
import importlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from radialnls import (
    EquationParams,
    Empirical,
    EvolutionConfig,
    FamilySpec,
    Outcome,
    Predicted,
    RadialField,
    build_grid,
    classify,
    minimize_quotient,
    report,
    run,
    sweep,
    verify_empirically,
)
from radialnls.classify import SWEEP_HEADER, family_fields, gaussian
from radialnls.functionals import VIRIAL_PAIR

from helpers import embed_field

# the package's ``classify`` is the function; the module holds the sweep's rows
classify_module = importlib.import_module("radialnls.classify")


@pytest.fixture(scope="module")
def params():
    return EquationParams(gamma=1.0, mu=1.0, omega=1.0)


@pytest.fixture(scope="module")
def ground16(params):
    res = minimize_quotient(params, build_grid(2048, 16.0))
    assert res.converged
    return res


def cq(ground, c):
    return RadialField(ground.profile.grid, c * ground.profile.values)


def amplitude_peak_field(ground, params):
    """Gaussian rescaled to the top of its amplitude ray: S >= level there."""
    g = gaussian(ground.profile.grid, 1.0, 1.0)
    rep = report(g, params)
    c_star = np.sqrt(rep.h1_omega_gamma_sq / rep.quartic)
    return RadialField(g.grid, c_star * g.values)


class TestClassify:
    def test_scatter_prediction(self, ground16, params):
        v = classify(cq(ground16, 0.9), params, ground16)
        assert v.below_threshold
        assert v.predicted is Predicted.SCATTER
        assert v.empirical is Empirical.INCONCLUSIVE
        assert all(s == 1 for s in v.k_signs.values())

    def test_blowup_prediction(self, ground16, params):
        v = classify(cq(ground16, 1.1), params, ground16)
        assert v.below_threshold
        assert v.predicted is Predicted.BLOWUP
        assert all(s == -1 for s in v.k_signs.values())

    def test_out_of_scope(self, ground16, params):
        f = amplitude_peak_field(ground16, params)
        v = classify(f, params, ground16)
        assert not v.below_threshold
        assert v.predicted is Predicted.OUT_OF_SCOPE


class TestUnconvergedGround:
    """Both entry points refuse a ground state whose descent did not
    converge, before any row or functional is computed."""

    def test_classify_rejects(self, ground16, params):
        with pytest.raises(ValueError, match="ground state result did not converge"):
            classify(cq(ground16, 0.9), params, replace(ground16, converged=False))

    def test_sweep_rejects(self, ground16, params):
        spec = FamilySpec(kind="cQ", amplitudes=(0.5,))
        with pytest.raises(ValueError, match="ground state result did not converge"):
            sweep(spec, params, replace(ground16, converged=False),
                  EvolutionConfig(dt=1e-3, t_end=0.1), verify=False)


class TestKSigns:
    """Below the threshold classify's sign of K^{alpha,beta} is the same for
    every pair in DEFAULT_PAIRS."""

    def test_subcritical_family_unanimous_positive(self, ground16, params):
        family = [cq(ground16, c) for c in np.arange(0.3, 0.96, 0.1)]
        for f in family:
            v = classify(f, params, ground16)
            assert v.below_threshold
            assert set(v.k_signs.values()) == {1}

    def test_supercritical_family_unanimous_negative(self, ground16, params):
        family = [cq(ground16, c) for c in (1.05, 1.1, 1.15, 1.2)]
        for f in family:
            v = classify(f, params, ground16)
            assert v.below_threshold
            assert set(v.k_signs.values()) == {-1}

    def test_above_threshold_skipped(self, ground16, params):
        above = classify(amplitude_peak_field(ground16, params), params, ground16)
        assert not above.below_threshold
        assert above.predicted is Predicted.OUT_OF_SCOPE
        below = classify(cq(ground16, 0.5), params, ground16)
        assert below.below_threshold
        assert len(set(below.k_signs.values())) == 1


class TestVerifyEmpirically:
    @pytest.mark.parametrize("datum,predicted", [
        (lambda ground, params: cq(ground, 0.9), Predicted.SCATTER),
        (lambda ground, params: cq(ground, 1.1), Predicted.BLOWUP),
        (amplitude_peak_field, Predicted.OUT_OF_SCOPE),
    ], ids=["scatter", "blowup", "out_of_scope"])
    @pytest.mark.parametrize("absorb", [False, True])
    def test_one_run_on_the_callers_config(self, ground16, params, monkeypatch,
                                           datum, predicted, absorb):
        calls = []

        def recording_run(*args, **kwargs):
            calls.append((args, kwargs))
            return SimpleNamespace(outcome=Outcome.RAN_TO_T_END)

        monkeypatch.setattr("radialnls.evolve.run", recording_run)
        u0 = datum(ground16, params)
        v = classify(u0, params, ground16)
        assert v.predicted is predicted
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, absorb=absorb, absorb_width=4.0)
        given = replace(cfg)
        verify_empirically(v, u0, cfg, params)
        ((args, kwargs),) = calls
        assert args[0] is u0 and args[1] is cfg and args[2] is params
        assert cfg == given
        assert kwargs == {"level": ground16.level}

    def test_out_of_scope_datum_is_evolved(self):
        """Above the level the sign of K no longer decides the fate: both
        Gaussians have K_gamma > 0, and one of them blows up."""
        params = EquationParams(gamma=1.0, mu=1.0, omega=1.0)
        ground = minimize_quotient(params, build_grid(512, 16.0))
        assert ground.converged
        cfg = EvolutionConfig(dt=1e-3, t_end=3.0)
        labels = []
        for c, w in [(2.0, 2.0), (1.0, 4.0)]:
            u0 = gaussian(ground.profile.grid, c, w)
            v = classify(u0, params, ground)
            assert v.predicted is Predicted.OUT_OF_SCOPE
            assert v.k_signs[VIRIAL_PAIR] == 1
            labels.append(verify_empirically(v, u0, cfg, params).empirical)
        assert labels == [Empirical.BLOWUP, Empirical.DECAY]

    def test_scatter_datum_decays(self, ground16, params):
        u0 = cq(ground16, 0.5)
        v = classify(u0, params, ground16)
        cfg = EvolutionConfig(dt=1e-3, t_end=12.0, monitor_every=50,
                              decay_window=2.0)
        v = verify_empirically(v, u0, cfg, params)
        assert v.empirical is Empirical.DECAY

    def test_blowup_datum_blows_up(self, ground16, params):
        u0 = cq(ground16, 1.3)
        v = classify(u0, params, ground16)
        cfg = EvolutionConfig(dt=1e-3, t_end=3.0, monitor_every=20,
                              decay_window=np.inf)
        v = verify_empirically(v, u0, cfg, params)
        assert v.empirical is Empirical.BLOWUP

    def test_short_run_inconclusive(self, ground16, params):
        u0 = cq(ground16, 0.9)
        v = classify(u0, params, ground16)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.05, monitor_every=10,
                              decay_window=np.inf)
        v = verify_empirically(v, u0, cfg, params)
        assert v.empirical is Empirical.INCONCLUSIVE

    @pytest.mark.parametrize("mu", [0.3, 1.5])
    def test_native_grid_matches_doubled_domain(self, mu, monkeypatch):
        """A scatter verdict reads nothing of the domain beyond R_max: the
        conservative run on the datum's own grid stops when and as the
        absorbing run on its zero-padded double does.  The two probes'
        errors differ by round-off, and the step-size controller carries
        that into dt, so times and steps agree to round-off."""
        params = EquationParams(gamma=1.0, mu=mu, omega=1.0)
        ground = minimize_quotient(params, build_grid(2048, 16.0))
        assert ground.converged
        u0 = cq(ground, 0.9)
        v = classify(u0, params, ground)
        assert v.predicted is Predicted.SCATTER
        cfg = EvolutionConfig(dt=1e-3, t_end=25.0, monitor_every=50)
        traces = []

        def recording_run(*args, **kwargs):
            traces.append(run(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr("radialnls.evolve.run", recording_run)
        native = verify_empirically(v, u0, cfg, params)
        big = build_grid(4096, 32.0)
        doubled = run(embed_field(u0, big), replace(cfg, absorb=True, absorb_width=8.0),
                      params, level=ground.level)
        (trace,) = traces
        assert native.empirical is Empirical.DECAY
        assert trace.outcome is doubled.outcome is Outcome.DECAY_DETECTED
        assert [e.cause for e in trace.events] == [e.cause for e in doubled.events]
        assert trace.final_time == pytest.approx(doubled.final_time, rel=1e-9)
        assert trace.dt_final == pytest.approx(doubled.dt_final, rel=1e-9)


class TestSweep:
    def test_empty_family(self, ground16, params):
        spec = FamilySpec(kind="cQ", amplitudes=())
        header, rows = sweep(spec, params, ground16,
                             EvolutionConfig(dt=1e-3, t_end=0.1), verify=False)
        assert header == SWEEP_HEADER
        assert rows == []

    def test_prediction_flips_at_one(self, ground16, params):
        spec = FamilySpec(kind="cQ", amplitudes=(0.5, 0.7, 0.9, 1.05, 1.1))
        header, rows = sweep(spec, params, ground16,
                             EvolutionConfig(dt=1e-3, t_end=0.1), verify=False)
        predicted = [row[5] for row in rows]
        assert predicted == ["scatter", "scatter", "scatter", "blowup", "blowup"]

    def test_unverified_rows_leave_agree_empty(self, ground16, params):
        # nothing was evolved, so no row agrees or disagrees with its prediction
        spec = FamilySpec(kind="cQ", amplitudes=(0.7, 1.15, 1.5))
        header, rows = sweep(spec, params, ground16,
                             EvolutionConfig(dt=1e-3, t_end=0.1), verify=False)
        agree, predicted = header.index("agree"), header.index("predicted")
        assert {"scatter", "blowup"} <= {row[predicted] for row in rows}
        assert [row[agree] for row in rows] == ["", "", ""]

    def test_gaussian_grid_order_and_signs(self, ground16, params):
        spec = FamilySpec(kind="gaussian", amplitudes=(0.5, 1.0),
                          widths=(0.8, 1.2))
        header, rows = sweep(spec, params, ground16,
                             EvolutionConfig(dt=1e-3, t_end=0.1), verify=False)
        assert len(rows) == 4
        labels = [(row[0], row[1]) for row in rows]
        assert labels == [(0.5, 0.8), (0.5, 1.2), (1.0, 0.8), (1.0, 1.2)]
        for _, f in family_fields(spec, ground16):
            v = classify(f, params, ground16)
            if v.below_threshold:
                assert len(set(v.k_signs.values())) == 1

    def test_workers_deterministic(self, ground16, params):
        spec = FamilySpec(kind="cQ", amplitudes=(0.4, 0.6, 1.2))
        cfg = EvolutionConfig(dt=1e-3, t_end=0.1)
        _, rows1 = sweep(spec, params, ground16, cfg, verify=False, workers=1)
        _, rows2 = sweep(spec, params, ground16, cfg, verify=False, workers=2)
        assert rows1 == rows2

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, ground16, params, workers, monkeypatch):
        def no_row(task):
            raise AssertionError("a row ran")

        monkeypatch.setattr(classify_module, "_sweep_row", no_row)
        spec = FamilySpec(kind="cQ", amplitudes=(0.5, 1.1))
        cfg = EvolutionConfig(dt=1e-3, t_end=0.1)
        with pytest.raises(ValueError, match=rf"^workers must be >= 1, got {workers}$"):
            sweep(spec, params, ground16, cfg, verify=False, workers=workers)

    def test_no_more_workers_than_rows(self, ground16, params, monkeypatch):
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        spec = FamilySpec(kind="cQ", amplitudes=(0.5, 1.1))
        cfg = EvolutionConfig(dt=1e-3, t_end=0.1)
        _, rows = sweep(spec, params, ground16, cfg, verify=False, workers=500)
        assert started == [2]
        assert rows == sweep(spec, params, ground16, cfg, verify=False)[1]

    def test_family_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FamilySpec(kind="bogus", amplitudes=(1.0,))
        with pytest.raises(ValueError, match="widths"):
            FamilySpec(kind="gaussian", amplitudes=(1.0,))
        with pytest.raises(ValueError, match="^cQ family takes no widths$"):
            FamilySpec(kind="cQ", amplitudes=(1.0,), widths=(1.0,))
