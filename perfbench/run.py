"""End-to-end and per-layer benchmark of the radialnls command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload dichotomy --seed 1 --seconds 30 --trace 0

Each workload is a seeded list of CLI commands (one pass, see workloads.py)
run in this process through ``radialnls.cli.main``.  After one untimed
warm-up command the pass repeats while the time window lasts.  Every
command's outputs go through the workload's correctness gate, and a command
repeated with identical inputs must write byte-identical data files.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each pass
untraced and then traced (spans around every public function of the layer
modules, see layers.py) and prints the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object.  The
run record and the spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from layers import PER_LAYER, Instrumentation, layer_map_checks, layer_metrics
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
TAIL_BEYOND = 10

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "cmd_p50_s": ("s", "lower"),
    "cmd_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


def tail(samples) -> tuple:
    """(value, percentile, samples beyond) of the highest percentile that has
    at least TAIL_BEYOND samples beyond it, by nearest rank.

    The value with exactly ten larger samples sits at percentile
    100 (N - 10) / N.  With fewer than 20 samples that percentile falls below
    the median, so the median is reported instead, with the count beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 2 * TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return statistics.median(xs), 50.0, n // 2


@dataclass
class Outcome:
    index: int
    wall_s: float
    rc: object
    status: str  # "ok", "failed" (nonzero exit or crash) or "incorrect"
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Runner:
    """Runs CLI commands in-process, gates their outputs and checks determinism."""

    def __init__(self, cli, workdir: Path, recorder: SpanRecorder | None = None):
        self.cli = cli
        self.workdir = workdir
        self.recorder = recorder
        self.digests = {}
        self._serial = 0

    def run(self, index: int, cmd: workloads.Command) -> Outcome:
        self._serial += 1
        outdir = self.workdir / f"cmd{self._serial:05d}"
        if self.recorder is not None:
            self.recorder.command = self._serial
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.main(cmd.with_out(outdir))
            reason = err.getvalue().strip()
        except SystemExit as exc:  # argparse rejected the arguments
            rc, reason = exc.code, err.getvalue().strip()
        except Exception:  # a crash is a failed command, never a lost one
            rc, reason = "exception", traceback.format_exc(limit=3).strip()
        wall = time.perf_counter() - t0
        outcome = Outcome(index, wall, rc, "failed", reason)
        if rc == 0:
            try:
                workloads.gate(cmd, outdir)
                digest = workloads.digest(outdir)
                first = self.digests.setdefault(index, digest)
                if digest != first:
                    raise workloads.GateError(
                        "data files differ from an identical earlier command: "
                        + ", ".join(k for k in sorted(set(first) | set(digest))
                                    if first.get(k) != digest.get(k)))
                outcome.status = "ok"
            except workloads.GateError as exc:
                outcome.status, outcome.reason = "incorrect", str(exc)
        shutil.rmtree(outdir, ignore_errors=True)
        return outcome


def measure_setup(workload: str, seed: int) -> list:
    """Wall times of fresh interpreters importing radialnls.cli and building
    the workload's inputs."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; "
        "import radialnls.cli, workloads; workloads.commands(sys.argv[3], int(sys.argv[4]))"
    )
    argv = [sys.executable, "-c", code, str(SRC), str(HERE), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[f"L{level}{suffix}"] = (index / "size").read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_pinned": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def measure(runner: Runner, cmds, seconds: float) -> list:
    """Untraced: the pass's commands in order, cycling, until the window ends."""
    outcomes = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        i = len(outcomes) % len(cmds)
        outcomes.append(runner.run(i, cmds[i]))
    return outcomes


def measure_traced(runner: Runner, cmds, seconds: float, recorder: SpanRecorder):
    """Each pass untraced and then traced, while one more pair fits the
    window (at least one pair).  Returns (untraced, traced, pairs)."""
    untraced, traced = [], []
    t0 = time.perf_counter()
    pairs = 0
    while True:
        untraced += [runner.run(i, c) for i, c in enumerate(cmds)]
        with Instrumentation(recorder):
            traced += [runner.run(i, c) for i, c in enumerate(cmds)]
        pairs += 1
        if (time.perf_counter() - t0) * (pairs + 1) / pairs > seconds:
            return untraced, traced, pairs


def end_to_end(outcomes, setup, n_pass: int) -> tuple:
    done = [o for o in outcomes if o.ok]
    walls = [o.wall_s for o in done]
    repeats = defaultdict(list)
    for o in done:
        repeats[o.index].append(o.wall_s)
    value, pct, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": n_pass * statistics.mean(statistics.median(v) for v in repeats.values()),
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "run_s": f"one pass of {n_pass} commands at their median times; "
        f"{len(repeats)} succeeded ({min(map(len, repeats.values()))}+ repeats each), "
        "failed ones count at the successful mean",
        "cmd_p50_s": f"N={len(walls)} successful commands",
        "cmd_tail_s": f"p{pct:.1f}, N={len(walls)}, {beyond} beyond"
        + ("" if len(walls) >= 2 * TAIL_BEYOND else
           f" (fewer than {2 * TAIL_BEYOND} samples: floored at the median)"),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "radialnls" / "cli.py").is_file():
        print(f"radialnls sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import radialnls.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "radialnls").resolve():
        print(f"radialnls imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    cmds = workloads.commands(args.workload, args.seed)
    setup = measure_setup(args.workload, args.seed)
    facts = machine_facts()
    workdir = OUT / f"cli-{args.workload}-{os.getpid()}"
    recorder = SpanRecorder() if args.trace else None
    runner = Runner(cli, workdir, recorder)
    warm = runner.run(0, cmds[0])
    if recorder is None:
        untraced, traced, pairs = measure(runner, cmds, args.seconds), [], 0
    else:
        untraced, traced, pairs = measure_traced(runner, cmds, args.seconds, recorder)
    # the known defect, checked apart so that it never moves a timed metric
    probe = runner.run(-1, workloads.DEFECT_PROBE) if args.workload == "threshold" else None
    shutil.rmtree(workdir, ignore_errors=True)

    timed = untraced + traced
    every = [warm] + timed
    attempted = len(timed)
    failed = sum(1 for o in timed if not o.ok)
    incorrect = [o for o in every if o.status == "incorrect"]
    succeeded = any(o.ok for o in untraced)
    correct = succeeded and not incorrect

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"pass: {len(cmds)} commands; {len(untraced)} commands measured"
          + (f" in {pairs} passes, each also run traced" if traced else ""))
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} commands attempted)")
    for o in every:
        if not o.ok:
            reason = o.reason.splitlines()[-1] if o.reason else ""
            print(f"  {o.status}{' (warm-up)' if o is warm else ''}: command {o.index} "
                  f"({' '.join(cmds[o.index].argv)}) exit {o.rc}: {reason}")

    if probe is not None:
        reason = probe.reason.splitlines()[-1] if probe.reason else ""
        print(f"known defect, oracle bracket ({' '.join(workloads.DEFECT_PROBE.argv)}): "
              + ("still present" if probe.rc == 1 else "no longer shows")
              + f", exit {probe.rc}: {reason}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "setup_s": setup,
              "commands": [list(c.argv) for c in cmds],
              "outcomes": [o.__dict__ for o in every],
              "defect_probe": probe.__dict__ if probe else None}
    metrics, table = {}, PER_LAYER if traced else END_TO_END
    if succeeded and not traced:
        metrics, notes = end_to_end(untraced, setup, len(cmds))
        for name, value in metrics.items():
            print(f"{name:<12} {value:12.6g} {table[name][0]:<4} ({notes[name]})")
        record["notes"] = notes
    elif succeeded:
        metrics = layer_metrics(
            recorder, pairs, len(traced),
            traced_s=sum(o.wall_s for o in traced),
            untraced_s=sum(o.wall_s for o in untraced))
        for name, value in metrics.items():
            print(f"{name:<38} {value:14.6g} {table[name][0]}")
        for text, passed in layer_map_checks(args.workload, metrics):
            print(f"layer map: {'PASS' if passed else 'FAIL'}: {text}")
        recorder.write_csv(OUT / f"spans-{args.workload}.csv")

    record["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in metrics.items()},
    }))
    return 0 if succeeded else 1


if __name__ == "__main__":
    # BLAS and OpenMP read their thread counts once, when numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
