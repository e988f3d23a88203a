#!/usr/bin/env python3
"""Seeded end-to-end benchmark of posetdist, with an optional traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closure_search --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

One workload runs as a closed loop with one client in this single process,
without threads: set-up (repeated, median reported), one untimed warm-up op,
then ops until ``--seconds`` have passed and at least ``MIN_OPS`` ops ran.
Every op's output is checked outside the timed region, and each op runs
under a ``signal.alarm`` deadline.  Garbage is collected before every op.
A calibration runs before every op and around every set-up, and the reported times are rescaled by it to one
reference machine speed (see ``speed.py``).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs each op untraced and then traced,
and reports the per-layer metrics.  ``--workload all`` runs every
workload, untraced and traced, each in its own child process.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any op
failed (raised, ran past the deadline or returned a wrong value), and 2
when the package cannot be found under ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import speed
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 3  # at least this many set-ups, and
SETUP_MIN_S = 2.0  # at least this much set-up time in all
SETUP_CALIBRATIONS = 5  # before each set-up and after the last
MIN_OPS = 100
MAX_WALL_S = 120.0  # give up reaching MIN_OPS past this
DEADLINE_S = 30

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "fileio.load_graph.self_ms": "ms",
    "fileio.load_graph.calls": "count",
    "cli.cli_main.self_ms": "ms",
    "core.validate_properties.self_ms": "ms",
    "core.validate_properties.calls": "count",
    "core.validate_properties.repeat_ratio": "ratio",
    "core.topological_sort.self_ms": "ms",
    "metric.d_e.self_ms": "ms",
    "metric.choose_solver.self_ms": "ms",
    "metric.route.brute": "share",
    "metric.route.alg1": "share",
    "metric.route.alg2": "share",
    "metric.route.alg3": "share",
    "metric.route.clique": "share",
    "solvers.dmces.self_ms": "ms",
    "solvers.matched_edges.self_ms": "ms",
    "solvers.matched_edges.calls": "count",
    "solvers.score.calls": "count",
    "line_digraph.extended_line_digraph.self_ms": "ms",
    "line_digraph.eld_arcs": "count",
    "clique.compatibility_graph.self_ms": "ms",
    "clique.compat_vertices": "count",
    "clique.compat_edges": "count",
    "clique.max_clique.self_ms": "ms",
    "clique.clique_size": "count",
    "clique.dmces_via_clique.self_ms": "ms",
    "clique.mcis.self_ms": "ms",
    "isomorphism.find_isomorphism.self_ms": "ms",
    "isomorphism.find_isomorphism.calls": "count",
    "trace.overhead_ratio": "ratio",
}
WORKLOAD_NAMES = ("headline_cli", "closure_search", "open_clique", "matrix_reuse")


class OpDeadline(BaseException):
    """Raised by SIGALRM; a BaseException so that no handler in the
    program under test (the CLI catches Exception) can swallow it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


class Loop:
    """Closed-loop op runner: times ops, checks them, counts failures.

    ``latencies`` holds the time of every op that returned, right or wrong;
    ops that raised or ran past the deadline have none.  All three kinds
    count in ``failed``, and any of them fails the run.  ``calibrations``
    holds one machine-speed calibration per op, taken just before it, and
    ``calibrated_at[k]`` indexes the one before ``latencies[k]``.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []
        self.calibrations: list[float] = []
        self.calibrated_at: list[int] = []
        self.traced: list[tuple[float, float]] = []  # (untraced, traced)
        self.attempted = 0
        self.raised = 0
        self.overran = 0
        self.wrong = 0
        self.messages: list[str] = []

    def _timed(self, i: int, traced: bool) -> Optional[float]:
        scope = self.tracer.op() if traced else contextlib.nullcontext()
        self.attempted += 1
        start = time.perf_counter()
        try:
            signal.alarm(DEADLINE_S)
            try:
                with scope:
                    output = self.workload.run(i)
            finally:
                signal.alarm(0)
                elapsed = time.perf_counter() - start
        except OpDeadline:
            self.overran += 1
            self.messages.append(f"op {i}: ran past {DEADLINE_S} s")
            return None
        except Exception as exc:  # an op that raises is a counted failure
            self.raised += 1
            self.messages.append(f"op {i}: raised {exc!r}")
            return None
        try:
            problem = self.workload.check(i, output)
        except Exception as exc:  # malformed output, such as CLI text that is not JSON
            problem = f"check raised {exc!r}"
        if problem is not None:
            self.wrong += 1
            self.messages.append(f"op {i}: {problem}")
        return elapsed

    def run(self, seconds: float) -> None:
        self._timed(0, False)  # warm-up: lazy imports and first-touch caches
        self.attempted = self.raised = self.overran = self.wrong = 0
        self.messages.clear()
        # The set-up's inputs stay alive for the whole run; freezing them
        # keeps the collector from scanning them inside ops, as it would
        # not in a process that holds one pair.  Collecting before each op
        # then costs little, and every op starts from a collected heap, so
        # garbage left by one op is not collected in the next op's time.
        gc.collect()
        gc.freeze()
        try:
            self._loop(seconds)
        finally:
            gc.unfreeze()

    def _loop(self, seconds: float) -> None:
        start = time.perf_counter()
        i = 0
        while True:
            wall = time.perf_counter() - start
            if wall >= seconds and (i >= MIN_OPS or wall >= MAX_WALL_S):
                break
            gc.collect()
            self.calibrations.append(speed.calibrate())
            elapsed = self._timed(i, False)
            if elapsed is not None:
                self.latencies.append(elapsed)
                self.calibrated_at.append(len(self.calibrations) - 1)
            if self.tracer is not None:
                gc.collect()
                with self.tracer:  # patched only around the traced op
                    traced = self._timed(i, True)
                if elapsed is not None and traced is not None:
                    self.traced.append((elapsed, traced))
            i += 1

    @property
    def failed(self) -> int:
        return self.raised + self.overran + self.wrong

    def scaled_latencies(self) -> list[float]:
        """Each op's time at the reference machine speed."""
        factor = speed.factors(self.calibrations)
        return [t * factor[k] for t, k in zip(self.latencies, self.calibrated_at)]


def timing(latencies: list[float], wrong: int) -> dict[str, float]:
    return {
        "ops_per_s": (len(latencies) - wrong) / sum(latencies),
        "op_ms_p50": statistics.median(latencies) * 1000.0,
        "op_ms_p90": statistics.quantiles(latencies, n=10)[-1] * 1000.0,
    }


def end_to_end(loop: Loop, setup_times: list[float]) -> dict[str, float]:
    if len(loop.latencies) < 2:
        raise SystemExit(f"error: only {len(loop.latencies)} ops completed; no result")
    return {
        **timing(loop.scaled_latencies(), loop.wrong),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(loop: Loop, tracer: Tracer) -> dict[str, float]:
    out = layer_metrics(tracer, PER_LAYER)
    untraced = sum(u for u, _ in loop.traced)
    out["trace.overhead_ratio"] = sum(t for _, t in loop.traced) / untraced if untraced else 0.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads  # imports posetdist, so only once src/ is on the path

    scratch_root = ROOT / ".bench_build"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"perfbench-{name}-", dir=scratch_root))
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        setup_times, calibrations = [], [[speed.calibrate() for _ in range(SETUP_CALIBRATIONS)]]
        while len(setup_times) < SETUPS or sum(setup_times) < SETUP_MIN_S:
            workload = None  # each set-up starts from the same heap
            gc.collect()
            target = workdir / f"setup{len(setup_times)}"
            target.mkdir()
            start = time.perf_counter()
            workload = workloads.build(name, seed, target)
            setup_times.append(time.perf_counter() - start)
            calibrations.append([speed.calibrate() for _ in range(SETUP_CALIBRATIONS)])
        # each set-up at the speed of the calibrations on either side of it
        scaled_setups = [
            t * speed.REFERENCE_S / statistics.median(before + after)
            for t, before, after in zip(setup_times, calibrations, calibrations[1:])
        ]
        tracer = Tracer() if trace else None
        loop = Loop(workload, tracer)
        loop.run(seconds)
        if tracer is not None:
            metrics, units = per_layer(loop, tracer), PER_LAYER
        else:
            metrics, units = end_to_end(loop, scaled_setups), END_TO_END
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)

    timed = len(loop.latencies)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"ops per pass {workload.ops_per_pass}")
    print(f"  ops timed {timed}, samples beyond p90 {timed - int(timed * 0.9)}, "
          f"setups {len(setup_times)}")
    for key, value in metrics.items():
        print(f"  {key:44s} {value:14.6f} {units[key]}")
    if tracer is None and len(loop.latencies) >= 2:
        wall = timing(loop.latencies, loop.wrong)
        print(f"  unscaled: ops_per_s {wall['ops_per_s']:.4f}, op_ms_p50 {wall['op_ms_p50']:.4f}, "
              f"op_ms_p90 {wall['op_ms_p90']:.4f}, setup_s {statistics.median(setup_times):.4f}; "
              f"median speed factor {statistics.median(speed.factors(loop.calibrations)):.4f}")
    ratio = loop.failed / loop.attempted if loop.attempted else 0.0
    print(f"  {'failed_ratio':44s} {ratio:14.6f} ({loop.failed}/{loop.attempted}: "
          f"{loop.raised} raised, {loop.overran} overran, {loop.wrong} wrong)")
    for message in loop.messages[:20]:
        print(f"  FAIL {message}", file=sys.stderr)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if loop.failed else 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a child process."""
    worst = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            worst = max(worst, proc.returncode)
            if proc.returncode in (0, 1) and lines:
                summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()) and worst == 0,
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {
            f"{key}/{metric}": value
            for key, result in summary.items()
            for metric, value in result["metrics"].items()
        },
    }))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "posetdist" / "__init__.py").is_file():
        print(f"error: no posetdist package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import posetdist

    if Path(posetdist.__file__).resolve().parent != SRC / "posetdist":
        print(f"error: imported posetdist from {posetdist.__file__}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
