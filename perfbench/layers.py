"""Layer instrumentation of radialnls from outside the package.

While an ``Instrumentation`` is active, every public function of the seven
layer modules is replaced, at its module attribute and at every alias another
radialnls module imported, by a wrapper that records a span and, for a few
functions, reads counts off the returned result.  Nothing under
``src/radialnls`` changes; leaving the context restores the originals.

The one private name hooked is ``evolve._Stepper.step``, and only when it is
called from outside ``evolve``: ``localized_virial.rigidity_probe`` steps the
flow itself, and without this span its stepping would be booked to
``localized_virial``.  Inside ``evolve.run`` stepping stays in run's self
time.  If the name disappears the hook is skipped, and the layer-map check
reports the shift.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
from collections import defaultdict

from spans import SpanRecorder, self_times

MODULES = (
    "radial_grid", "functionals", "ground_state", "evolve",
    "localized_virial", "classify", "cli",
)


def _evolve_run(args, kwargs, trace):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {
        "evolve.sim_time": trace.final_time,
        "evolve.ticks": len(trace.times),
        "evolve.refinements": math.log2(cfg.dt / trace.dt_final),
    }


def _sweep(args, kwargs, result):
    header, rows = result
    predicted, agree = header.index("predicted"), header.index("agree")
    verified = [r for r in rows if r[predicted] != "out_of_scope"]
    return {
        "classify.rows_verified": len(verified),
        "classify.rows_agree": sum(1 for r in verified if r[agree]),
    }


def _written(args, kwargs, result):
    return {"cli.write.bytes": os.path.getsize(args[0])}


#: counts read off returned results (and the arguments that produced them)
HOOKS = {
    "evolve.run": _evolve_run,
    "ground_state.minimize_quotient":
        lambda a, k, r: {"ground_state.descent.iterations": r.iterations},
    "ground_state.shoot_ode":
        lambda a, k, r: {"ground_state.shoot.bisections": r.iterations},
    "classify.sweep": _sweep,
    "cli.write_csv": _written,
    "cli.write_json": _written,
}


def _wrap(fn, name: str, module: str, rec: SpanRecorder, skip_inside: bool = False):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if skip_inside and rec.current_module() == module:
            return fn(*args, **kwargs)
        span = rec.open(name, module)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            rec.close(span, ok)
        if hook is not None:
            rec.count(hook(args, kwargs, result))
        return result

    return traced


class Instrumentation:
    """Context manager that installs the span wrappers on radialnls."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo = []

    def __enter__(self):
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"radialnls.{short}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = _wrap(obj, f"{short}.{attr}", short, self.recorder)
        for name, mod in list(sys.modules.items()):
            if name != "radialnls" and not name.startswith("radialnls."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._set(mod, attr, obj, wrappers[id(obj)])
        stepper = getattr(sys.modules["radialnls.evolve"], "_Stepper", None)
        if stepper is not None and inspect.isfunction(getattr(stepper, "step", None)):
            self._set(stepper, "step", stepper.step, _wrap(
                stepper.step, "evolve._Stepper.step", "evolve", self.recorder,
                skip_inside=True))
        return self

    def _set(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


#: per-layer metrics: name -> (unit, better); the values come from layer_metrics
PER_LAYER = {
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "evolve.run.calls": ("count", "lower"),
    "evolve.run.self_s": ("s", "lower"),
    "evolve.run.sim_per_s": ("t/s", "higher"),
    "evolve.refinements": ("count", "lower"),
    "evolve.ticks": ("count", "lower"),
    "evolve.stepper.calls": ("count", "lower"),
    "evolve.stepper.self_s": ("s", "lower"),
    "functionals.report.calls": ("count", "lower"),
    "functionals.report.self_s": ("s", "lower"),
    "functionals.k.calls": ("count", "lower"),
    "functionals.k.self_s": ("s", "lower"),
    "ground_state.minimize.calls": ("count", "lower"),
    "ground_state.minimize.self_s": ("s", "lower"),
    "ground_state.descent.iterations": ("count", "lower"),
    "ground_state.shoot.calls": ("count", "lower"),
    "ground_state.shoot.self_s": ("s", "lower"),
    "ground_state.shoot.bisections": ("count", "lower"),
    "ground_state.shoot.ms_per_bisection": ("ms", "lower"),
    "radial_grid.helmholtz.calls": ("count", "lower"),
    "radial_grid.helmholtz.self_s": ("s", "lower"),
    "radial_grid.integrate.calls": ("count", "lower"),
    "radial_grid.integrate.self_s": ("s", "lower"),
    "localized_virial.probe.self_s": ("s", "lower"),
    "localized_virial.i_value.calls": ("count", "lower"),
    "localized_virial.i_value.self_s": ("s", "lower"),
    "localized_virial.ipp.calls": ("count", "lower"),
    "localized_virial.ipp.self_s": ("s", "lower"),
    "localized_virial.tail.calls": ("count", "lower"),
    "localized_virial.tail.self_s": ("s", "lower"),
    "classify.verify.calls": ("count", "lower"),
    "classify.agree_ratio": ("ratio", "higher"),
    "cli.write.self_s": ("s", "lower"),
    "cli.write.bytes": ("bytes", "lower"),
    "cli.ground.calls": ("count", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, passes: int, commands: int,
                  traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of a traced run, per pass over the workload.

    ``traced_s`` and ``untraced_s`` are the summed command wall times of the
    traced passes and of the same passes run untraced.  ``cli.ground.calls``
    is per command; ``ms_per_bisection`` uses only shooting calls that
    returned, since bisections are read from returned results.
    """
    own = self_times(rec.spans)
    calls, self_s, ok_self_s, module_s = (defaultdict(float) for _ in range(4))
    for s in rec.spans:
        t = own[s.id] * 1e-9
        calls[s.name] += 1
        self_s[s.name] += t
        module_s[s.module] += t
        if s.ok:
            ok_self_s[s.name] += t
    c = rec.counters
    lv, gs = "localized_virial", "ground_state"
    totals = {
        "trace.run_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(rec.spans),
        **{f"{m}.self_s": module_s[m] for m in MODULES},
        "evolve.run.calls": calls["evolve.run"],
        "evolve.run.self_s": self_s["evolve.run"],
        "evolve.refinements": c["evolve.refinements"],
        "evolve.ticks": c["evolve.ticks"],
        "evolve.stepper.calls": calls["evolve._Stepper.step"],
        "evolve.stepper.self_s": self_s["evolve._Stepper.step"],
        "functionals.report.calls": calls["functionals.report"],
        "functionals.report.self_s": self_s["functionals.report"],
        # virial and nehari delegate to k_alpha_beta, so its count includes them
        "functionals.k.calls": calls["functionals.k_alpha_beta"],
        "functionals.k.self_s": sum(
            self_s[f"functionals.{f}"] for f in ("k_alpha_beta", "virial", "nehari")),
        "ground_state.minimize.calls": calls[f"{gs}.minimize_quotient"],
        "ground_state.minimize.self_s": self_s[f"{gs}.minimize_quotient"],
        "ground_state.descent.iterations": c["ground_state.descent.iterations"],
        "ground_state.shoot.calls": calls[f"{gs}.shoot_ode"],
        "ground_state.shoot.self_s": self_s[f"{gs}.shoot_ode"],
        "ground_state.shoot.bisections": c["ground_state.shoot.bisections"],
        "radial_grid.helmholtz.calls": calls["radial_grid.solve_helmholtz"],
        "radial_grid.helmholtz.self_s": self_s["radial_grid.solve_helmholtz"],
        "radial_grid.integrate.calls": calls["radial_grid.integrate"],
        "radial_grid.integrate.self_s": self_s["radial_grid.integrate"],
        "localized_virial.probe.self_s": self_s[f"{lv}.rigidity_probe"],
        "localized_virial.i_value.calls": calls[f"{lv}.I_value"],
        "localized_virial.i_value.self_s": self_s[f"{lv}.I_value"],
        "localized_virial.ipp.calls": calls[f"{lv}.I_double_prime"],
        "localized_virial.ipp.self_s": self_s[f"{lv}.I_double_prime"],
        "localized_virial.tail.calls": calls[f"{lv}.tail_integral"],
        "localized_virial.tail.self_s": self_s[f"{lv}.tail_integral"],
        "classify.verify.calls": calls["classify.verify_empirically"],
        "cli.write.self_s": self_s["cli.write_csv"] + self_s["cli.write_json"],
        "cli.write.bytes": c["cli.write.bytes"],
    }
    out = {k: v / passes for k, v in totals.items()}
    out["trace.coverage"] = _ratio(sum(module_s[m] for m in MODULES), traced_s)
    out["evolve.run.sim_per_s"] = _ratio(c["evolve.sim_time"], self_s["evolve.run"])
    out["ground_state.shoot.ms_per_bisection"] = 1e3 * _ratio(
        ok_self_s[f"{gs}.shoot_ode"], c["ground_state.shoot.bisections"])
    out["classify.agree_ratio"] = _ratio(c["classify.rows_agree"], c["classify.rows_verified"])
    out["cli.ground.calls"] = _ratio(calls[f"{gs}.minimize_quotient"], commands)
    return {name: out[name] for name in PER_LAYER}


#: the module expected to carry the largest self time on each workload
LARGEST = {"dichotomy": "evolve", "threshold": "ground_state", "rigidity": "evolve"}


def layer_map_checks(workload: str, metrics: dict) -> list:
    """(description, passed) pairs checking that the layer mapping holds."""
    shares = {m: metrics[f"{m}.self_s"] for m in MODULES}
    top = max(shares, key=shares.get)
    checks = [
        (f"module self times cover {metrics['trace.coverage']:.3f} >= 0.90 of traced run_s",
         metrics["trace.coverage"] >= 0.90),
        (f"largest module share is {top}, expected {LARGEST[workload]}",
         top == LARGEST[workload]),
    ]
    if workload == "threshold":
        checks.append((f"evolve.run.calls = {metrics['evolve.run.calls']:g}, expected 0",
                       metrics["evolve.run.calls"] == 0))
    return checks
