"""Tests of the benchmark's own arithmetic, gates and instrumentation."""

import itertools
import json
import math
import sys

import pytest

import run
import workloads
from layers import MODULES, PER_LAYER, Instrumentation
from spans import Span, SpanRecorder, self_times


def test_tail_is_the_value_with_ten_samples_beyond():
    samples = [float(i) for i in range(30, 0, -1)]  # 1..30, unsorted
    value, pct, beyond = run.tail(samples)
    assert (value, beyond) == (20.0, 10)
    assert sum(1 for x in samples if x > value) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert run.tail([float(i) for i in range(1, 21)])[:2] == (10.0, 50.0)


def test_tail_is_floored_at_the_median_below_twenty_samples():
    assert run.tail([5.0, 1.0, 3.0]) == (3.0, 50.0, 1)
    assert run.tail([float(i) for i in range(1, 20)]) == (10.0, 50.0, 9)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span(0, "a.outer", "a", 0, 100),
        Span(1, "b.first", "b", 10, 30, parent=0),
        Span(2, "b.second", "b", 20, 50, parent=0),  # overlaps its sibling
        Span(3, "c.late", "c", 90, 120, parent=0),   # runs past its parent
        Span(4, "d.inner", "d", 12, 18, parent=1),   # grandchild of the root
    ]
    assert self_times(spans) == {0: 50, 1: 14, 2: 30, 3: 30, 4: 6}


def test_recorder_nests_spans_and_rejects_out_of_order_close():
    rec = SpanRecorder()
    outer = rec.open("m.outer", "m")
    inner = rec.open("n.inner", "n")
    assert rec.current_module() == "n"
    rec.close(inner, ok=True)
    rec.close(outer, ok=False)
    assert inner.parent == outer.id and outer.parent is None and not outer.ok
    first, second = rec.open("m.a", "m"), rec.open("m.b", "m")
    with pytest.raises(RuntimeError):
        rec.close(first, ok=True)
    assert second.end is None


def _ground_state_output(tmp_path, **changes):
    result = {
        "converged": True,
        "level": 36.97,
        "oracle": {"agreement_rel": 2.7e-8, "amplitude": 5.89, "level": 36.97},
    }
    result.update(changes)
    (tmp_path / "result.json").write_text(json.dumps(result))
    (tmp_path / "Q.csv").write_text("r,Q\n")
    return workloads.Command("ground-state", ("ground-state", "--with-oracle"))


def test_threshold_gate_accepts_a_good_result(tmp_path):
    workloads.gate(_ground_state_output(tmp_path), tmp_path)


@pytest.mark.parametrize("changes", [
    {"converged": False},
    {"level": math.nan},
    {"level": -1.0},
    {"oracle": None},
    {"oracle": {"agreement_rel": 0.5}},
    {"oracle": {"agreement_rel": "0"}},
])
def test_threshold_gate_rejects_a_corrupted_result(tmp_path, changes):
    cmd = _ground_state_output(tmp_path, **changes)
    with pytest.raises(workloads.GateError):
        workloads.gate(cmd, tmp_path)


def test_threshold_gate_rejects_a_truncated_result(tmp_path):
    cmd = _ground_state_output(tmp_path)
    text = (tmp_path / "result.json").read_text()
    (tmp_path / "result.json").write_text(text[: len(text) // 2])
    with pytest.raises(workloads.GateError, match="unreadable"):
        workloads.gate(cmd, tmp_path)


def test_dichotomy_gate_requires_agreeing_rows_in_order(tmp_path):
    cmd = workloads.commands("dichotomy", 0)[0]
    c_scatter, c_blowup = cmd.argv[-1].split(",")
    header = "c,w,S,below_threshold,K_gamma,predicted,empirical,agree\n"
    good = (f"{c_scatter},,1,True,1,scatter,decay,True\n"
            f"{c_blowup},,1,True,-1,blowup,blowup,True\n")
    (tmp_path / "sweep.csv").write_text(header + good)
    workloads.gate(cmd, tmp_path)
    (tmp_path / "sweep.csv").write_text(header + good.replace("decay,True", "inconclusive,False"))
    with pytest.raises(workloads.GateError, match="empirical inconclusive"):
        workloads.gate(cmd, tmp_path)


def test_commands_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.commands(name, 7) == workloads.commands(name, 7)
        assert workloads.commands(name, 7) != workloads.commands(name, 8)

def test_threshold_puts_one_point_in_each_parameter_cell():
    ranges = ((0.0, 4.0), (0.0, workloads.THRESHOLD_MU_MAX), (math.log(0.25), math.log(4.0)))
    cells = []
    for cmd in workloads.commands("threshold", 3):
        g, m, w = (float(cmd.argv[cmd.argv.index(f) + 1]) for f in ("--gamma", "--mu", "--omega"))
        cells.append(tuple(
            int((x - lo) / (hi - lo) * k)
            for x, k, (lo, hi) in zip((g, m, math.log(w)), workloads.THRESHOLD_BINS, ranges)
        ))
    assert sorted(cells) == sorted(itertools.product(*map(range, workloads.THRESHOLD_BINS)))


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_instrumentation_records_layers_and_restores_originals():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import radialnls
    from radialnls import functionals, radial_grid

    originals = (functionals.report, radial_grid.integrate, radialnls.integrate)
    grid = radial_grid.build_grid(16, 2.0)
    field = radial_grid.RadialField(grid, grid.r.astype(complex))
    params = radial_grid.EquationParams(gamma=1.0, mu=1.0, omega=1.0)
    rec = SpanRecorder()
    with Instrumentation(rec):
        assert radialnls.integrate is radial_grid.integrate is not originals[1]
        functionals.report(field, params)
    assert (functionals.report, radial_grid.integrate, radialnls.integrate) == originals
    root = rec.spans[0]
    assert root.name == "functionals.report" and root.parent is None
    children = {s.name for s in rec.spans if s.parent == root.id}
    assert children == {"radial_grid.integrate", "radial_grid.gradient_norm_sq"}
    assert {s.module for s in rec.spans} <= set(MODULES)
