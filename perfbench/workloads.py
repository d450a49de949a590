"""Seeded workload inputs, their radialnls CLI arguments, and the output gates.

Every input is drawn from the benchmark's seed with the standard library's
``random.Random``, so this module imports no numpy and can be loaded before
the BLAS thread count is pinned.  A workload is a fixed list of commands (one
*pass*); the runner repeats the pass while its time window lasts.  Ranges are
stratified (one draw per equal-width bin, in shuffled order; for threshold,
one point per cell of a grid over its three parameters) so that every seed
covers each range evenly and the work in a pass barely depends on the seed.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("dichotomy", "threshold", "rigidity")

#: grid of every command: the CLI defaults, stated so the gates can use h
N_CELLS = 4096
R_MAX = 32.0

#: files a command writes that are allowed to differ between identical runs
NONDETERMINISTIC = {"manifest.json"}

DICHOTOMY_COMMANDS = 3
#: threshold bins of gamma, mu and log omega: one point in each of the cells
THRESHOLD_BINS = (2, 3, 2)
RIGIDITY_AMPLITUDES = 3
RIGIDITY_DT = 5e-4

#: largest mu of a threshold point.  The oracle bracket (0.5, 30) hard-coded
#: in the CLI has no sign change from mu = 1.4 on at gamma = 4, omega = 1/4
#: (mu = 1.35 still passes there), so every point below this one succeeds
THRESHOLD_MU_MAX = 1.2


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``argv`` excludes ``--out``."""

    kind: str
    argv: tuple

    def with_out(self, outdir: Path) -> list:
        return [*self.argv, "--out", str(outdir)]


#: a fixed command that hits the oracle bracket defect (exit 1 at this
#: commit); run once, untimed, after each threshold window and reported apart
DEFECT_PROBE = Command("ground-state", (
    "ground-state", "--with-oracle", "--gamma", "1.0", "--mu", "1.9", "--omega", "1.0",
))


def stratified(rng: random.Random, lo: float, hi: float, k: int) -> list:
    """k draws from [lo, hi), one in each of k equal bins, in shuffled order."""
    bins = list(range(k))
    rng.shuffle(bins)
    return [lo + (hi - lo) * (b + rng.random()) / k for b in bins]


def _num(x: float) -> str:
    return repr(round(float(x), 6))


def commands(workload: str, seed: int) -> list:
    """The pass of a workload: the same seed gives the same command list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dichotomy":
        # one predicted-scatter and one predicted-blow-up row per sweep, so
        # every command costs about the same (scatter rows dominate).  Blow-up
        # rows stop at c = 1.2: between 1.21 and 1.225 evolve.run refines dt
        # up to nine times and one row takes 5-43 s (see README)
        scatter = stratified(rng, 0.5, 0.9, DICHOTOMY_COMMANDS)
        blowup = stratified(rng, 1.1, 1.2, DICHOTOMY_COMMANDS)
        return [
            Command("sweep", (
                "sweep", "--family", "cQ", "--verify", "--workers", "1",
                "--t-end", "25", "--monitor-every", "50", "--absorb-width", "8",
                "--amplitudes", f"{_num(s)},{_num(b)}",
            ))
            for s, b in zip(scatter, blowup)
        ]
    if workload == "threshold":
        # one point in each cell, in shuffled order: the cost of a point
        # depends on all three parameters together, so every seed gets the
        # same mix of them.  mu stops at THRESHOLD_MU_MAX: above it the oracle
        # bracket defect makes some points exit 1 (see README); DEFECT_PROBE
        # keeps it visible
        ranges = ((0.0, 4.0), (0.0, THRESHOLD_MU_MAX), (math.log(0.25), math.log(4.0)))
        cells = list(itertools.product(*map(range, THRESHOLD_BINS)))
        rng.shuffle(cells)
        points = [
            [lo + (hi - lo) * (c + rng.random()) / k
             for c, k, (lo, hi) in zip(cell, THRESHOLD_BINS, ranges)]
            for cell in cells
        ]
        return [
            Command("ground-state", (
                "ground-state", "--with-oracle",
                "--gamma", _num(g), "--mu", _num(max(m, 1e-3)),
                "--omega", _num(math.exp(lw)),
            ))
            for g, m, lw in points
        ]
    if workload == "rigidity":
        return [
            Command("virial-check", (
                "virial-check", "--t-probe", "2", "--dt", repr(RIGIDITY_DT),
                "--amplitude", _num(a),
            ))
            for a in stratified(rng, 0.6, 0.9, RIGIDITY_AMPLITUDES)
        ]
    raise ValueError(f"unknown workload {workload!r}")


class GateError(ValueError):
    """A command exited 0 but its outputs fail the workload's correctness gate."""


def _flag(argv: tuple, name: str) -> str:
    return argv[argv.index(name) + 1]


def _gate_sweep(cmd: Command, outdir: Path) -> None:
    amplitudes = [float(a) for a in _flag(cmd.argv, "--amplitudes").split(",")]
    with open(outdir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(amplitudes):
        raise GateError(f"sweep.csv has {len(rows)} rows, expected {len(amplitudes)}")
    for row, c in zip(rows, amplitudes):
        if float(row["c"]) != c:
            raise GateError(f"row for c={row['c']} where c={c!r} was asked")
        want = "scatter" if c < 1.0 else "blowup"
        if row["predicted"] != want:
            raise GateError(f"c={c}: predicted {row['predicted']}, expected {want}")
        if row["agree"] != "True":
            raise GateError(
                f"c={c}: predicted {row['predicted']} but empirical {row['empirical']}"
            )


def _gate_ground_state(cmd: Command, outdir: Path) -> None:
    result = json.loads((outdir / "result.json").read_text())
    if result.get("converged") is not True:
        raise GateError("result.json: converged is not true")
    level = result.get("level")
    if not isinstance(level, (int, float)) or not (math.isfinite(level) and level > 0.0):
        raise GateError(f"result.json: level {level!r} is not a positive number")
    oracle = result.get("oracle")
    if not isinstance(oracle, dict):
        raise GateError("result.json: oracle record missing")
    rel = oracle.get("agreement_rel")
    if not isinstance(rel, (int, float)) or not rel <= 1e-3:
        raise GateError(f"result.json: oracle agreement_rel {rel!r} exceeds 1e-3")
    if not (outdir / "Q.csv").is_file():
        raise GateError("Q.csv missing")


def _gate_virial_check(cmd: Command, outdir: Path) -> None:
    probe = json.loads((outdir / "probe.json").read_text())
    dt = float(_flag(cmd.argv, "--dt"))
    h = R_MAX / N_CELLS
    if probe.get("bound_ok") is not True:
        raise GateError("probe.json: bound_ok is not true")
    checks = (
        ("forms_max_rel_gap", lambda v: v <= 1e-10, "<= 1e-10"),
        ("min_Ipp", lambda v: v > 0.0, "> 0"),
        (
            "second_diff_max_rel_err",
            lambda v: v <= max(1e-3, 10.0 * dt**2 + 10.0 * h**2),
            "<= max(1e-3, 10 dt^2 + 10 h^2)",
        ),
    )
    for key, ok, rule in checks:
        value = probe.get(key)
        if not isinstance(value, (int, float)) or not ok(value):
            raise GateError(f"probe.json: {key} = {value!r}, required {rule}")


_GATES = {
    "sweep": _gate_sweep,
    "ground-state": _gate_ground_state,
    "virial-check": _gate_virial_check,
}


def gate(cmd: Command, outdir: Path) -> None:
    """Raise GateError unless the outputs in outdir are correct for cmd."""
    try:
        _GATES[cmd.kind](cmd, outdir)
    except GateError:
        raise
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise GateError(f"unreadable output: {type(exc).__name__}: {exc}") from exc


def digest(outdir: Path) -> dict:
    """sha256 of every deterministic data file a command wrote."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.is_file() and p.name not in NONDETERMINISTIC
    }
