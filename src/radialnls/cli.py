"""Command-line entry point: config parsing, run orchestration, serialization.

Configuration is a line-oriented ``key = value`` file with flag overrides.
A command's options are declared in one place, the ``_COMMANDS`` table: each
entry names the ``RunConfig`` fields its handler reads, and no others.  Every
flag is built from that list (``R_max`` becomes ``--r-max``), a config file
may hold only those keys, and the manifest echoes only those keys.  Values
are checked by the library objects that use them (``build_grid``,
``EquationParams``, ``EvolutionConfig.validate``).  A file line with an
unknown key, a malformed value or a value those objects reject is reported
with its line number.  Every
command writes its results plus a manifest into the output directory.  This
module is the only one that knows how results look from outside: JSON files
are written from the result dataclasses by the one rule in ``_json_ready``.
Data files carry no timestamps and floats are printed at 17 significant
digits, so identical configs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import datetime
import enum
import json
import shutil
import sys
import time
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__, functionals
from .classify import (
    FamilySpec,
    Predicted,
    classify as classify_datum,
    sweep as sweep_family,
    verify_empirically,
)
from .localized_virial import rigidity_probe
from .evolve import EvolutionConfig, Outcome, run as run_evolution
from .fields import gaussian
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
class RunConfig:
    gamma: float = 1.0
    mu: float = 1.0
    omega: float = 1.0
    n: int = 4096
    R_max: float = 32.0
    dt: float = 1e-3
    t_end: float = 10.0
    monitor_every: int = 20
    absorb: bool = False
    absorb_width: float = 8.0
    decay_window: float = 2.0
    splitting_order: int = 2
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

    def evolution(self) -> EvolutionConfig:
        """EvolutionConfig from every field RunConfig shares with it."""
        own = {f.name for f in dataclass_fields(self)}
        return EvolutionConfig(**{
            f.name: getattr(self, f.name)
            for f in dataclass_fields(EvolutionConfig) if f.name in own
        })


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
    evolve, the evolution config rejects.  With verify set, the evolution
    config is checked with the absorber on, as a scatter prediction runs.
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
        if value is None:
            continue
        if key not in reads:
            raise ConfigError(f"unknown key {key!r} for {command}")
        setattr(cfg, key, value)
        lines.pop(key, None)  # flag overrides trump file provenance

    # every message these raise begins with the name of the offending field
    try:
        grid = cfg.grid()
        cfg.params()
        if "dt" in reads:
            # verification evolves scatter predictions with the absorber
            replace(cfg.evolution(), absorb=cfg.absorb or cfg.verify).validate(grid)
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
    if isinstance(value, (bool, np.bool_)):
        return "True" if value else "False"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_key(key) -> str:
    if isinstance(key, ScalingPair):
        return f"({key.alpha:g},{key.beta:g})"
    return str(key)


def _json_ready(obj):
    """The one JSON rule: dataclasses by their fields, ScalingPair keys as
    "(alpha,beta)", enums by value, floats at 17 significant digits."""
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
        return float("%.17g" % float(obj))
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, enum.Enum):
        return obj.value
    return obj


def write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_json_ready(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ground(cfg: RunConfig):
    return minimize_quotient(cfg.params(), cfg.grid())


def _datum(cfg: RunConfig):
    """The datum and, for family cQ, the ground state it scales (else None)."""
    if cfg.family == "cQ":
        ground = _ground(cfg)
        return RadialField(ground.profile.grid, cfg.amplitude * ground.profile.values), ground
    return gaussian(cfg.grid(), cfg.amplitude, cfg.width), None


def _cmd_ground_state(cfg: RunConfig, outdir: Path):
    res = _ground(cfg)
    grid = res.profile.grid
    write_csv(
        outdir / "Q.csv",
        ["r", "Q"],
        list(zip(grid.r, res.profile.values.real)),
    )
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
    if cfg.with_oracle:
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
    write_json(outdir / "result.json", payload)
    return rc, ["Q.csv", "result.json"]


def _cmd_functionals(cfg: RunConfig, outdir: Path):
    datum, _ = _datum(cfg)
    write_json(outdir / "report.json", functionals.report(datum, cfg.params()))
    return 0, ["report.json"]


def _cmd_evolve(cfg: RunConfig, outdir: Path):
    datum, ground = _datum(cfg)
    trace = run_evolution(
        datum, cfg.evolution(), cfg.params(),
        level=None if ground is None else ground.level,
        snapshot_times=cfg.snapshot_times,
    )
    header, rows = trace.as_rows()
    write_csv(outdir / "trace.csv", header, rows)
    outputs = ["trace.csv"]
    grid = datum.grid
    snapshots = []
    for i, snap in enumerate(trace.snapshots):
        name = f"snapshot_{i:03d}.csv"
        write_csv(
            outdir / name,
            ["r", "Re_u", "Im_u"],
            list(zip(grid.r, snap.values.real, snap.values.imag)),
        )
        outputs.append(name)
        snapshots.append({"file": name, "t_requested": snap.t_requested, "t": snap.t})
    write_json(
        outdir / "result.json",
        {
            "outcome": trace.outcome,
            "final_time": trace.final_time,
            "dt_final": trace.dt_final,
            "snapshots": snapshots,
        },
    )
    outputs.append("result.json")
    return (2 if trace.outcome is Outcome.ABORTED else 0), outputs


def _cmd_classify(cfg: RunConfig, outdir: Path):
    params = cfg.params()
    datum, ground = _datum(cfg)
    if ground is None:
        ground = _ground(cfg)
    verdict = classify_datum(datum, params, ground)
    if cfg.verify and verdict.predicted is not Predicted.OUT_OF_SCOPE:
        verdict = verify_empirically(verdict, datum, cfg.evolution(), params)
    write_json(outdir / "verdict.json", verdict)
    return 0, ["verdict.json"]


def _cmd_sweep(cfg: RunConfig, outdir: Path):
    params = cfg.params()
    spec = FamilySpec(
        kind=cfg.family,
        amplitudes=tuple(cfg.amplitudes),
        widths=tuple(cfg.widths),
    )
    ground = _ground(cfg)
    header, rows = sweep_family(
        spec, params, ground, cfg.evolution(),
        verify=cfg.verify, workers=cfg.workers,
    )
    write_csv(outdir / "sweep.csv", header, rows)
    return 0, ["sweep.csv"]


def _cmd_virial_check(cfg: RunConfig, outdir: Path):
    params = cfg.params()
    ground = _ground(cfg)
    u0 = RadialField(ground.profile.grid, cfg.amplitude * ground.profile.values)
    report = rigidity_probe(
        u0, params, ground.level, cfg.t_probe, cfg.evolution()
    )
    write_json(outdir / "probe.json", report)
    return 0, ["probe.json"]


_COMMON = ("gamma", "mu", "omega", "n", "R_max", "out")
_EVOLUTION = (
    "dt", "t_end", "monitor_every", "absorb", "absorb_width", "decay_window",
    "splitting_order",
)
#: verify_empirically chooses the absorber from the prediction
_VERIFY = tuple(name for name in _EVOLUTION if name != "absorb")
#: rigidity_probe runs conservatively to t_probe with fixed steps
_PROBE = ("dt", "monitor_every", "splitting_order")
_FAMILY = ("family", "amplitude", "width")

#: command -> (handler, help, the RunConfig fields it takes as flags)
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
    so an unusable ``--out`` fails first; a run that exits 1 removes the
    directories it made."""
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
        rc, outputs = _COMMANDS[args.command][0](cfg, outdir)
    except (ValueError, OSError) as exc:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        kind = ("configuration" if isinstance(exc, ConfigError)
                else "validation" if isinstance(exc, ValueError) else "file")
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    manifest = {
        "command": args.command,
        "config": {name: getattr(cfg, name) for name in _COMMANDS[args.command][2]},
        "versions": {
            "radialnls": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
        "started_at": started.isoformat(),
        "duration_s": time.perf_counter() - t0,
        "outputs": outputs,
    }
    write_json(outdir / "manifest.json", manifest)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
