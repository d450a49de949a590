"""Command-line entry point: config parsing, run orchestration, serialization.

Configuration is a line-oriented ``key = value`` file with flag overrides;
unknown keys and constraint violations are reported with their line number.
Every command writes its results plus a manifest into the output directory.
Data files carry no timestamps and floats are printed at 17 significant
digits, so identical configs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from dataclasses import dataclass, fields as dataclass_fields
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
from .ground_state import minimize_quotient, shoot_ode
from .radial_grid import EquationParams, RadialField, build_grid


class ConfigError(ValueError):
    """Invalid configuration (unknown key, malformed value, bad constraint)."""


@dataclass
class RunConfig:
    command: str = ""
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
    absorb_strength: float = 5.0
    blowup_grad_factor: float = 10.0
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

_FIELD_TYPES = {
    name: tp for name, tp in get_type_hints(RunConfig).items() if name != "command"
}


def parse_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional key=value file plus flag overrides.

    Overrides win over file values; unknown keys and malformed numbers are
    rejected with the offending line number.
    """
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
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                parsed = _PARSERS[_FIELD_TYPES[key]](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
            setattr(cfg, key, parsed)
            lines[key] = lineno
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown configuration key {key!r}")
        setattr(cfg, key, value)
        lines.pop(key, None)  # flag overrides trump file provenance

    def _where(key):
        return f"{path}:{lines[key]}: " if key in lines else ""

    if not (cfg.gamma >= 0.0):
        raise ConfigError(f"{_where('gamma')}gamma must be >= 0, got {cfg.gamma}")
    if not (0.0 < cfg.mu < 2.0):
        raise ConfigError(f"{_where('mu')}mu must satisfy 0 < mu < 2, got {cfg.mu}")
    if not (cfg.omega > 0.0):
        raise ConfigError(f"{_where('omega')}omega must be positive, got {cfg.omega}")
    if cfg.n < 16:
        raise ConfigError(f"{_where('n')}n must be >= 16, got {cfg.n}")
    if not (cfg.R_max > 1.0):
        raise ConfigError(f"{_where('R_max')}R_max must exceed 1, got {cfg.R_max}")
    if not (cfg.dt > 0.0):
        raise ConfigError(f"{_where('dt')}dt must be positive, got {cfg.dt}")
    if cfg.splitting_order not in (2, 4):
        raise ConfigError(
            f"{_where('splitting_order')}splitting_order must be 2 or 4"
        )
    if cfg.family not in ("cQ", "gaussian"):
        raise ConfigError(f"{_where('family')}family must be 'cQ' or 'gaussian'")
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


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
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
    if hasattr(obj, "value") and obj.__class__.__module__ != "builtins":
        return obj.value  # enums
    return obj


def write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_json_ready(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_echo(cfg: RunConfig) -> dict:
    out = {}
    for f in dataclass_fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _pair_key(pair) -> str:
    return f"({pair.alpha:g},{pair.beta:g})"


def _ground(cfg: RunConfig):
    return minimize_quotient(cfg.params(), cfg.grid())


def _datum(cfg: RunConfig, ground):
    if cfg.family == "cQ":
        return RadialField(ground.profile.grid, cfg.amplitude * ground.profile.values)
    return gaussian(cfg.grid(), cfg.amplitude, cfg.width)


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
        "k_residuals": {_pair_key(p): v for p, v in res.k_residuals.items()},
        "iterations": res.iterations,
        "converged": res.converged,
        "method": res.method,
        "grad_norm": res.grad_norm,
    }
    if cfg.with_oracle:
        oracle = shoot_ode(cfg.params(), (0.5, 30.0), grid)
        payload["oracle"] = {
            "level": oracle.level,
            "amplitude": oracle.shoot_amplitude,
            "agreement_rel": abs(oracle.level - res.level) / res.level,
        }
    write_json(outdir / "result.json", payload)
    return (0 if res.converged else 2), ["Q.csv", "result.json"]


def _cmd_functionals(cfg: RunConfig, outdir: Path):
    if cfg.family == "cQ":
        ground = _ground(cfg)
        datum = _datum(cfg, ground)
    else:
        datum = gaussian(cfg.grid(), cfg.amplitude, cfg.width)
    rep = functionals.report(datum, cfg.params())
    write_json(outdir / "report.json", rep.as_dict())
    return 0, ["report.json"]


def _cmd_evolve(cfg: RunConfig, outdir: Path):
    params = cfg.params()
    level = None
    if cfg.family == "cQ":
        ground = _ground(cfg)
        datum = _datum(cfg, ground)
        level = ground.level
    else:
        datum = gaussian(cfg.grid(), cfg.amplitude, cfg.width)
    trace = run_evolution(
        datum, cfg.evolution(), params, level=level,
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
            "outcome": trace.outcome.value,
            "final_time": trace.final_time,
            "dt_final": trace.dt_final,
            "snapshots": snapshots,
        },
    )
    outputs.append("result.json")
    return (2 if trace.outcome is Outcome.ABORTED else 0), outputs


def _cmd_classify(cfg: RunConfig, outdir: Path):
    params = cfg.params()
    ground = _ground(cfg)
    datum = _datum(cfg, ground)
    verdict = classify_datum(datum, params, ground)
    if cfg.verify and verdict.predicted is not Predicted.OUT_OF_SCOPE:
        verdict = verify_empirically(verdict, datum, cfg.evolution(), params)
    write_json(outdir / "verdict.json", verdict.as_dict())
    return 0, ["verdict.json"]


def _cmd_sweep(cfg: RunConfig, outdir: Path):
    params = cfg.params()
    ground = _ground(cfg)
    spec = FamilySpec(
        kind=cfg.family,
        amplitudes=tuple(cfg.amplitudes),
        widths=tuple(cfg.widths),
    )
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
    write_json(outdir / "probe.json", report.as_dict())
    return 0, ["probe.json"]


_COMMANDS = {
    "ground-state": _cmd_ground_state,
    "functionals": _cmd_functionals,
    "evolve": _cmd_evolve,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "virial-check": _cmd_virial_check,
}


def _add_common(sub):
    sub.add_argument("--config", help="key = value configuration file")
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--mu", type=float)
    sub.add_argument("--omega", type=float)
    sub.add_argument("--n", type=int)
    sub.add_argument("--r-max", dest="R_max", type=float)
    sub.add_argument("--out")


def _add_evolution(sub):
    sub.add_argument("--dt", type=float)
    sub.add_argument("--t-end", dest="t_end", type=float)
    sub.add_argument("--monitor-every", dest="monitor_every", type=int)
    sub.add_argument("--absorb", action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--absorb-width", dest="absorb_width", type=float)
    sub.add_argument("--blowup-grad-factor", dest="blowup_grad_factor", type=float)
    sub.add_argument("--decay-window", dest="decay_window", type=float)
    sub.add_argument("--splitting-order", dest="splitting_order", type=int)


def _add_family(sub):
    sub.add_argument("--family", choices=("cQ", "gaussian"))
    sub.add_argument("--amplitude", type=float)
    sub.add_argument("--width", type=float)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialnls",
        description="Radial cubic NLS lab: ground states, functionals, "
        "evolution, and the scattering/blow-up dichotomy",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gs = subs.add_parser("ground-state", help="compute Q and the threshold level")
    _add_common(gs)
    gs.add_argument("--with-oracle", dest="with_oracle",
                    action=argparse.BooleanOptionalAction, default=None)

    fn = subs.add_parser("functionals", help="evaluate the functional report on a datum")
    _add_common(fn)
    _add_family(fn)

    ev = subs.add_parser("evolve", help="time-evolve a datum and record the trace")
    _add_common(ev)
    _add_evolution(ev)
    _add_family(ev)
    ev.add_argument(
        "--snapshot-times", dest="snapshot_times",
        type=_parse_float_list,
    )

    cl = subs.add_parser("classify", help="variational verdict for a datum")
    _add_common(cl)
    _add_evolution(cl)
    _add_family(cl)
    cl.add_argument("--verify", action=argparse.BooleanOptionalAction, default=None)

    sw = subs.add_parser("sweep", help="classify a family and write a CSV table")
    _add_common(sw)
    _add_evolution(sw)
    sw.add_argument("--family", choices=("cQ", "gaussian"))
    sw.add_argument("--amplitudes", type=_parse_float_list)
    sw.add_argument("--widths", type=_parse_float_list)
    sw.add_argument("--workers", type=int)
    sw.add_argument("--verify", action=argparse.BooleanOptionalAction, default=None)

    vc = subs.add_parser("virial-check", help="rigidity convexity probe")
    _add_common(vc)
    _add_evolution(vc)
    vc.add_argument("--amplitude", type=float)
    vc.add_argument("--t-probe", dest="t_probe", type=float)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.perf_counter()
    try:
        overrides = {
            k: v
            for k, v in vars(args).items()
            if k not in ("command", "config") and v is not None
        }
        cfg = parse_config(args.config, overrides)
        cfg.command = args.command
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        rc, outputs = _COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    manifest = {
        "command": args.command,
        "config": _config_echo(cfg),
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
