"""Command-line entry point: config parsing, run orchestration, serialization.

Configuration is a line-oriented ``key = value`` file with flag overrides.
A command's options are declared in one place, the ``_COMMANDS`` table: each
entry names the ``RunConfig`` fields its handler reads, and no others.  Every
flag is built from that list (``R_max`` becomes ``--r-max``), a config file
may hold only those keys, and the manifest echoes only those keys.  The
evolution keys are the fields of ``EvolutionConfig``, which ``RunConfig``
inherits with their defaults, so each is declared once.  Values are checked
by the library objects that use them (``build_grid``, ``EquationParams``,
``EvolutionConfig.validate``).  A file line with an unknown key, a malformed
value or a value those objects reject is reported with its line number.
Every command returns its results as named files, which ``main`` writes
plus a manifest into the output directory.  This module is the only one
that knows how results look from outside: JSON files are written from the
result dataclasses by the one rule in ``_json_ready``.
Data files carry no timestamps; CSV floats have 17 significant digits and JSON
floats the shortest form that round-trips, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import enum
import json
import shutil
import sys
import time
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import _IMPORT_S, __version__, functionals
from .classify import (
    FamilySpec,
    classify as classify_datum,
    gaussian,
    sweep as sweep_family,
    verify_empirically,
)
from .localized_virial import rigidity_probe
from .evolve import EvolutionConfig, Outcome, run as run_evolution
from .functionals import ScalingPair
from .ground_state import minimize_quotient, shoot_ode
from .radial_grid import EquationParams, RadialField, build_grid


#: largest relative gap between the oracle's and the descent's level that
#: ``ground-state --with-oracle`` accepts; above it the command still writes
#: its files, names the gap on stderr and exits 2
ORACLE_AGREEMENT_REL = 1e-3


class ConfigError(ValueError):
    """Invalid configuration (unknown key, malformed value, bad constraint)."""


@dataclass
class RunConfig(EvolutionConfig):
    """Every key a command reads.  The evolution settings and their defaults
    are inherited from EvolutionConfig, so a handler passes the RunConfig
    itself wherever an EvolutionConfig is expected."""

    gamma: float = 1.0
    mu: float = 1.0
    omega: float = 1.0
    n: int = 4096
    R_max: float = 32.0
    out: str = "out"
    family: str = "cQ"
    amplitude: float = 0.9
    width: float = 1.0
    amplitudes: tuple = ()
    widths: tuple = ()
    workers: int = 1
    verify: bool = False
    with_oracle: bool = False
    t_probe: float = 2.0
    snapshot_times: tuple = ()

    def params(self) -> EquationParams:
        return EquationParams(gamma=self.gamma, mu=self.mu, omega=self.omega)

    def grid(self):
        return build_grid(self.n, self.R_max)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(tok) for tok in text.replace(",", " ").split())


_PARSERS = {
    float: float,
    int: int,
    bool: _parse_bool,
    str: lambda s: s.strip(),
    tuple: _parse_float_list,
}

_FIELD_TYPES = get_type_hints(RunConfig)


def parse_config(
    command: str, path: str | None = None, overrides: dict | None = None
) -> RunConfig:
    """Build the RunConfig of `command` from an optional key=value file plus
    flag overrides.

    Overrides win over file values.  A key the command does not read and a
    malformed value are rejected with the offending line number, and so is a
    file value that the grid, the equation parameters or, for commands that
    evolve, the evolution config rejects, and a non-finite amplitude.
    """
    reads = _COMMANDS[command][2]
    cfg = RunConfig()
    lines = {}
    if path is not None:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in reads:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {command}")
            try:
                parsed = _PARSERS[_FIELD_TYPES[key]](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
            setattr(cfg, key, parsed)
            lines[key] = lineno
    for key, value in (overrides or {}).items():
        if key not in reads:
            raise ConfigError(f"unknown key {key!r} for {command}")
        setattr(cfg, key, value)
        lines.pop(key, None)  # flag overrides trump file provenance

    # every message these raise begins with the name of the offending field
    try:
        grid = cfg.grid()
        cfg.params()
        if "dt" in reads:
            cfg.validate(grid)
        for key in ("amplitude", "amplitudes"):
            if key in reads and not np.all(np.isfinite(getattr(cfg, key))):
                raise ValueError(f"{key} must be finite, got {getattr(cfg, key)}")
    except ValueError as exc:
        key = str(exc).split(" ", 1)[0]
        if key in lines:
            raise ConfigError(f"{path}:{lines[key]}: {exc}") from exc
        raise
    if cfg.family not in ("cQ", "gaussian"):
        where = f"{path}:{lines['family']}: " if "family" in lines else ""
        raise ConfigError(f"{where}family must be 'cQ' or 'gaussian'")
    return cfg


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    """Write the header line and one line per row.

    rows is a list of rows, each cell printed by ``_fmt``, or a 2-D float
    array or a tuple of 1-D columns (stacked here, one file at a time), printed
    in one pass: one "%.17g" template for the whole file filled from the Python
    floats of ``tolist()``, the same bytes as cell by cell.
    """
    if isinstance(rows, tuple):
        rows = np.column_stack(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            n_rows, n_cols = rows.shape
            line = ",".join(["%.17g"] * n_cols) + "\n"
            fh.write(line * n_rows % tuple(rows.ravel().tolist()))
            return
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_key(key) -> str:
    if isinstance(key, ScalingPair):
        return f"({key.alpha:g},{key.beta:g})"
    return str(key)


def _json_ready(obj):
    """The one JSON rule: dataclasses by their fields, ScalingPair keys as
    "(alpha,beta)", enums by value, floats in their shortest round-trip form."""
    if isinstance(obj, dict):
        return {_json_key(k): _json_ready(v) for k, v in obj.items()}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _json_ready(getattr(obj, f.name)) for f in dataclass_fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    return obj


def write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_json_ready(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _timed(phases: dict, name: str):
    """Add the wall time of the block to phases[name]."""
    t0 = time.perf_counter()
    yield
    phases[name] = phases.get(name, 0.0) + time.perf_counter() - t0


def _unconverged(res) -> str:
    """The message of a descent that ran out of iterations."""
    return (f"ground state did not converge in {res.iterations} descent "
            f"iterations (grad_norm = {res.grad_norm:.3g})")


def _ground(cfg: RunConfig, phases: dict):
    """The converged ground state; a RuntimeError (exit 2) otherwise."""
    with _timed(phases, "descent"):
        res = minimize_quotient(cfg.params(), cfg.grid())
    if not res.converged:
        raise RuntimeError(_unconverged(res))
    return res


def _datum(cfg: RunConfig, phases: dict):
    """The datum and, for family cQ, the ground state it scales (else None)."""
    if cfg.family == "cQ":
        ground = _ground(cfg, phases)
        return RadialField(ground.profile.grid, cfg.amplitude * ground.profile.values), ground
    return gaussian(cfg.grid(), cfg.amplitude, cfg.width), None


def _cmd_ground_state(cfg: RunConfig, phases: dict):
    with _timed(phases, "descent"):
        res = minimize_quotient(cfg.params(), cfg.grid())
    grid = res.profile.grid
    payload = {
        "level": res.level,
        "ode_residual": res.ode_residual,
        "k_residuals": res.k_residuals,
        "iterations": res.iterations,
        "converged": res.converged,
        "method": res.method,
        "grad_norm": res.grad_norm,
    }
    rc = 0 if res.converged else 2
    if not res.converged:
        print(f"numerical failure: {_unconverged(res)}", file=sys.stderr)
    if cfg.with_oracle:
        with _timed(phases, "oracle"):
            oracle = shoot_ode(cfg.params(), grid)
        agreement = abs(oracle.level - res.level) / res.level
        payload["oracle"] = {
            "level": oracle.level,
            "amplitude": oracle.shoot_amplitude,
            "agreement_rel": agreement,
            "bisections": oracle.iterations,
            "ode_residual": oracle.ode_residual,
        }
        if not agreement <= ORACLE_AGREEMENT_REL:  # a NaN gap fails too
            print(f"oracle disagreement: agreement_rel = {agreement:.3g} exceeds "
                  f"{ORACLE_AGREEMENT_REL}", file=sys.stderr)
            rc = 2
    return rc, {"Q.csv": (["r", "Q"], (grid.r, res.profile.values.real)),
                "result.json": payload}


def _cmd_functionals(cfg: RunConfig, phases: dict):
    datum, _ = _datum(cfg, phases)
    with _timed(phases, "report"):
        rep = functionals.report(datum, cfg.params())
    return 0, {"report.json": rep}


def _cmd_evolve(cfg: RunConfig, phases: dict):
    datum, ground = _datum(cfg, phases)
    with _timed(phases, "run"):
        trace = run_evolution(
            datum, cfg, cfg.params(),
            level=None if ground is None else ground.level,
            snapshot_times=cfg.snapshot_times,
        )
    files = {"trace.csv": (
        ["t", "mass_drift", "energy_drift", "l4", "grad", "K_gamma", "k_bound_ok"],
        (trace.times, trace.mass_drift, trace.energy_drift, trace.l4_norm,
         trace.grad_norm, trace.virial_K, trace.k_lower_bound_ok),
    )}
    snapshots = []
    for i, snap in enumerate(trace.snapshots):
        name = f"snapshot_{i:03d}.csv"
        files[name] = (["r", "Re_u", "Im_u"],
                       (datum.grid.r, snap.values.real, snap.values.imag))
        snapshots.append({"file": name, "t_requested": snap.t_requested, "t": snap.t})
    files["result.json"] = {
        "outcome": trace.outcome, "final_time": trace.final_time,
        "dt_final": trace.dt_final, "snapshots": snapshots,
        "snapshots_unreached": trace.snapshots_unreached,
    }
    if trace.outcome is not Outcome.ABORTED:
        return 0, files
    print(f"numerical failure: evolution aborted at t = {trace.final_time:.6g}: "
          f"dt_final = {trace.dt_final:.3g} is below the refinement floor", file=sys.stderr)
    return 2, files


def _cmd_classify(cfg: RunConfig, phases: dict):
    params = cfg.params()
    datum, ground = _datum(cfg, phases)
    if ground is None:
        ground = _ground(cfg, phases)
    verdict = classify_datum(datum, params, ground)
    if cfg.verify:
        with _timed(phases, "verify"):
            verdict = verify_empirically(verdict, datum, cfg, params)
    return 0, {"verdict.json": verdict}


def _cmd_sweep(cfg: RunConfig, phases: dict):
    params = cfg.params()
    spec = FamilySpec(
        kind=cfg.family,
        amplitudes=tuple(cfg.amplitudes),
        widths=tuple(cfg.widths),
    )
    ground = _ground(cfg, phases)
    with _timed(phases, "rows"):
        table = sweep_family(spec, params, ground, cfg, verify=cfg.verify, workers=cfg.workers)
    return 0, {"sweep.csv": table}


def _cmd_virial_check(cfg: RunConfig, phases: dict):
    params = cfg.params()
    u0, ground = _datum(cfg, phases)
    with _timed(phases, "probe"):
        report = rigidity_probe(u0, params, ground.level, cfg.t_probe, cfg)
    return 0, {"probe.json": report}


_COMMON = ("gamma", "mu", "omega", "n", "R_max", "out")
_EVOLUTION = tuple(f.name for f in dataclass_fields(EvolutionConfig))
#: verification runs every row conservatively, so ``absorb`` is no key here;
#: ``absorb_width`` is still accepted, checked only for finiteness, and unused
_VERIFY = tuple(name for name in _EVOLUTION if name != "absorb")
#: rigidity_probe runs conservatively to t_probe with fixed steps
_PROBE = ("dt", "monitor_every", "splitting_order")
_FAMILY = ("family", "amplitude", "width")

#: command -> (handler, help, the RunConfig fields it takes as flags).  A
#: handler(cfg, phases) returns (exit code, {file name: content}), a CSV's
#: content being (header, rows), and puts the seconds of its phases in
#: phases, which the manifest records as phases_s
_COMMANDS = {
    "ground-state": (_cmd_ground_state, "compute Q and the threshold level",
                     _COMMON + ("with_oracle",)),
    "functionals": (_cmd_functionals, "evaluate the functional report on a datum",
                    _COMMON + _FAMILY),
    "evolve": (_cmd_evolve, "time-evolve a datum and record the trace",
               _COMMON + _EVOLUTION + _FAMILY + ("snapshot_times",)),
    "classify": (_cmd_classify, "variational verdict for a datum",
                 _COMMON + _VERIFY + _FAMILY + ("verify",)),
    "sweep": (_cmd_sweep, "classify a family and write a CSV table",
              _COMMON + _VERIFY + ("family", "amplitudes", "widths", "workers", "verify")),
    "virial-check": (_cmd_virial_check, "rigidity convexity probe",
                     _COMMON + _PROBE + ("amplitude", "t_probe")),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other bad input; 2 means a numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radialnls",
        description="Radial cubic NLS lab: ground states, functionals, "
        "evolution, and the scattering/blow-up dichotomy",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", help="key = value configuration file")
        for name in names:
            flag = "--" + name.lower().replace("_", "-")
            if _FIELD_TYPES[name] is bool:
                sub.add_argument(flag, dest=name, action=argparse.BooleanOptionalAction)
            else:
                sub.add_argument(flag, dest=name, type=_PARSERS[_FIELD_TYPES[name]])
    return parser


def main(argv=None) -> int:
    """Run one command.  The output directory is made before any computation,
    so an unusable ``--out`` fails first; a run that ends in an error (exit 1,
    or exit 2 by a raised RuntimeError) removes the directories it made, and
    writes nothing: files are written, in ``outputs`` order, once it returns."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    created = None  # the outermost directory this run created
    try:
        overrides = {
            k: v
            for k, v in vars(args).items()
            if k not in ("command", "config") and v is not None
        }
        cfg = parse_config(args.command, args.config, overrides)
        outdir = Path(cfg.out)
        missing = [p for p in (outdir, *outdir.parents) if not p.exists()]
        outdir.mkdir(parents=True, exist_ok=True)
        created = missing[-1] if missing else None
        phases = {}
        rc, files = _COMMANDS[args.command][0](cfg, phases)
        with _timed(phases, "write"):
            for name, content in files.items():
                if name.endswith(".csv"):
                    write_csv(outdir / name, *content)
                else:
                    write_json(outdir / name, content)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        kind = ("numerical failure" if isinstance(exc, RuntimeError)
                else "resource error" if isinstance(exc, MemoryError)
                else "configuration error" if isinstance(exc, ConfigError)
                else "validation error" if isinstance(exc, ValueError) else "file error")
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, RuntimeError) else 1
    manifest = {
        "command": args.command,
        "config": {name: getattr(cfg, name) for name in _COMMANDS[args.command][2]},
        "versions": {
            "radialnls": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
        "started_at": started.isoformat(),
        "import_s": _IMPORT_S,
        "duration_s": time.perf_counter() - t0,
        "outputs": list(files),
        "phases_s": phases,
    }
    write_json(outdir / "manifest.json", manifest)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
