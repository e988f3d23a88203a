"""Tests of the benchmark itself: the tracer's arithmetic and bindings,
the output checks, the deadline, and a smoke run of every workload.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import posetdist  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from posetdist import DistanceResult, d_e  # noqa: E402

SMOKE_SEED = 7  # not the default seed, so only the witness and identity checks run
TINY = {
    "headline_cli": dict(sizes=(8, 10), pool=2),
    "closure_search": dict(sizes=(6,), pool=3),
    "open_clique": dict(sizes=(7,), pool=2),
    "matrix_reuse": dict(sizes=(8,), pool=4),
}


def tiny(name: str) -> workloads.Spec:
    return dataclasses.replace(workloads.SPECS[name], **TINY[name])


@pytest.fixture
def small_runs(monkeypatch):
    """Tiny pools, one set-up and a handful of ops per run."""
    for name in TINY:
        monkeypatch.setitem(workloads.SPECS, name, tiny(name))
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    monkeypatch.setattr(run, "MIN_OPS", 6)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# -- self time ---------------------------------------------------------


def test_self_time_subtracts_children_on_a_synthetic_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("b", 5.0, 9.0, 0, 0),
        S("c", 6.0, 7.0, 2, 0),
        S("d", 7.5, 8.5, 2, 0),
        S("root", 20.0, 21.0, None, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    S = tracing.Span
    spans = [S("p", 0.0, 10.0, None, 0), S("x", 2.0, 6.0, 0, 0), S("y", 4.0, 12.0, 0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_layer_metrics_take_median_self_time_and_mean_counts():
    t = tracing.Tracer()
    S = tracing.Span
    t.spans = [
        S("metric.d_e", 0.0, 0.010, None, 0),
        S("solvers.dmces", 0.001, 0.009, 0, 0),
        S("metric.d_e", 1.0, 1.004, None, 1),
        S("metric.d_e", 2.0, 2.006, None, 2),
    ]
    t.ops = [tracing.OpRecord() for _ in range(3)]
    for record, route in zip(t.ops, ("alg2", "alg2", "clique")):
        record.routes.append(route)
        record.counters["core.validate_properties.calls"] += 2
    t.ops[0].counters["core.validate_properties.repeats"] += 1
    out = tracing.layer_metrics(t, run.PER_LAYER)
    assert out["metric.d_e.self_ms"] == pytest.approx(4.0)  # median of 2, 4, 6
    assert out["solvers.dmces.self_ms"] == pytest.approx(8.0)
    assert out["core.validate_properties.calls"] == 2
    assert out["core.validate_properties.repeat_ratio"] == pytest.approx(1 / 6)
    assert out["metric.route.alg2"] == pytest.approx(2 / 3)
    assert out["metric.route.clique"] == pytest.approx(1 / 3)
    assert out["clique.max_clique.self_ms"] == 0.0


# -- machine-speed scaling ---------------------------------------------


def test_speed_factors_use_the_rolling_median():
    ref = speed.REFERENCE_S
    cals = [ref, ref, 2 * ref, ref, 100 * ref, ref / 2, ref / 2]
    assert speed.factors(cals, window=1) == pytest.approx([1.0, 1.0, 1.0, 0.5, 1.0, 2.0, 2.0])


def test_op_times_are_scaled_by_the_calibration_before_them():
    loop = run.Loop(workload=None)
    ref = speed.REFERENCE_S
    loop.calibrations = [ref] * 7 + [2 * ref] * 7  # the machine halves its speed
    loop.latencies = [0.010, 0.020, 0.040]
    loop.calibrated_at = [0, 6, 13]  # the op at 6 follows a raised one, say
    assert loop.scaled_latencies() == pytest.approx([0.010, 0.020, 0.020])


def test_calibration_takes_about_the_reference_time():
    times = sorted(speed.calibrate() for _ in range(21))
    assert speed.REFERENCE_S / 4 < times[10] < speed.REFERENCE_S * 4


# -- tracer bindings and exact counts at the seed ----------------------


def traced_counts(name: str, ops: int, tmp_path) -> dict:
    workload = workloads.build(name, workloads.DEFAULT_SEED, tmp_path)
    t = tracing.Tracer()
    with t:
        for i in range(ops):
            with t.op():
                output = workload.run(i)
            assert workload.check(i, output) is None
    return tracing.layer_metrics(t, run.PER_LAYER)


def test_tracer_restores_every_binding():
    before = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name.startswith("posetdist")
        for attr, value in vars(module).items()
    }
    original = before[("posetdist.core", "validate_properties")]
    with tracing.Tracer():
        for name in ("posetdist", "posetdist.core", "posetdist.metric", "posetdist.solvers",
                     "posetdist.clique", "posetdist.line_digraph", "posetdist.cli"):
            assert sys.modules[name].validate_properties.__wrapped__ is original, name
    after = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name.startswith("posetdist")
        for attr, value in vars(module).items()
    }
    assert after == before


def test_headline_cli_counts_match_the_code(tmp_path):
    out = traced_counts("headline_cli", 3, tmp_path)
    # 2 in d_e, 2 in choose_solver, 4 in dmces_alg3's guards
    assert out["core.validate_properties.calls"] == 8
    assert out["core.validate_properties.repeat_ratio"] == pytest.approx(6 / 8)
    assert out["metric.route.alg3"] == 1.0
    assert out["fileio.load_graph.calls"] == 2
    assert out["solvers.matched_edges.calls"] == 1
    assert out["cli.cli_main.self_ms"] > 0
    assert out["solvers.dmces.self_ms"] > 0


def test_closure_search_routes_to_alg2(tmp_path):
    out = traced_counts("closure_search", 4, tmp_path)
    assert out["metric.route.alg2"] == 1.0
    assert out["core.validate_properties.calls"] == 6  # alg2 has no chain guard
    assert out["core.topological_sort.self_ms"] > 0
    assert out["fileio.load_graph.calls"] == 0


def test_open_clique_counts_match_the_code(tmp_path):
    out = traced_counts("open_clique", 4, tmp_path)
    assert out["metric.route.clique"] == 1.0
    # d_e: 2 + 2 in choose_solver + 2 in dmces_via_clique + 2 in the line
    # digraphs; d_n: 2 in the line digraphs.  Ops alternate.
    assert out["core.validate_properties.calls"] == 5
    assert out["isomorphism.find_isomorphism.calls"] == 0.5
    assert out["solvers.score.calls"] == 0.5
    assert out["clique.compat_vertices"] > 0
    assert out["line_digraph.eld_arcs"] > 0
    assert out["clique.clique_size"] > 0


def test_matrix_reuse_routes_to_alg3(tmp_path):
    out = traced_counts("matrix_reuse", 2, tmp_path)
    assert out["metric.route.alg3"] == 1.0
    assert out["core.validate_properties.calls"] == 8


# -- reference ---------------------------------------------------------


def test_reference_covers_each_pool_and_matches_its_first_pair():
    doc = json.loads(workloads.REFERENCE.read_text())
    assert doc["seed"] == workloads.DEFAULT_SEED
    for name, spec in workloads.SPECS.items():
        expected = spec.pool * (spec.pool - 1) // 2 if name == "matrix_reuse" else spec.pool
        assert len(doc["workloads"][name]) == expected, name
        assert doc["provenance"][name]
    for name in ("closure_search", "open_clique"):
        g, g2 = workloads.make_pairs(dataclasses.replace(workloads.SPECS[name], pool=1), 0)[0]
        result = d_e(g, g2, "clique")
        assert [result.dmces_value, result.normalizer] == doc["workloads"][name][0]


# -- smoke runs, wrong values and the deadline -------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_smoke_run_of_each_workload(name, trace, small_runs, capsys):
    code = run.main(["--workload", name, "--seed", str(SMOKE_SEED),
                     "--seconds", "0.05", "--trace", str(trace)])
    result = last_json(capsys.readouterr().out)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 6
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _off_by_one(result: DistanceResult) -> DistanceResult:
    value = result.dmces_value - 1 if result.dmces_value else 1
    return DistanceResult(value, result.normalizer, 1 - Fraction(value, result.normalizer),
                          result.witness, result.solver)


@pytest.mark.parametrize("name", ["closure_search", "open_clique", "matrix_reuse"])
def test_wrong_value_fails_the_run(name, small_runs, monkeypatch, capsys):
    real = posetdist.d_e
    monkeypatch.setattr(posetdist, "d_e", lambda g, g2, *a: _off_by_one(real(g, g2, *a)))
    code = run.main(["--workload", name, "--seed", str(SMOKE_SEED),
                     "--seconds", "0.05", "--trace", "0"])
    result = last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0


@pytest.mark.parametrize("name", ["closure_search", "open_clique", "matrix_reuse"])
def test_raising_op_fails_the_run(name, small_runs, monkeypatch, capsys):
    """d_e raises on one pair, as a solver that gives up would; the run fails."""
    real, calls = posetdist.d_e, itertools.count()

    def raise_once(g, g2, *a):
        if next(calls) == 1:  # call 0 is the warm-up op, call 1 the first timed one
            raise RecursionError("maximum recursion depth exceeded")
        return real(g, g2, *a)

    monkeypatch.setattr(posetdist, "d_e", raise_once)
    code = run.main(["--workload", name, "--seed", str(SMOKE_SEED),
                     "--seconds", "0.05", "--trace", "0"])
    result = last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1


def _garbled_cli(argv):
    print("not json")
    return 0


@pytest.mark.parametrize("inject", ["value", "text"])
def test_wrong_cli_output_fails_the_run(inject, small_runs, monkeypatch, capsys):
    if inject == "value":
        real = posetdist.cli.d_e
        monkeypatch.setattr(posetdist.cli, "d_e", lambda g, g2, **kw: _off_by_one(real(g, g2, **kw)))
    else:
        monkeypatch.setattr(posetdist, "cli_main", _garbled_cli)
    code = run.main(["--workload", "headline_cli", "--seed", str(SMOKE_SEED),
                     "--seconds", "0.05", "--trace", "0"])
    assert code == 1
    assert last_json(capsys.readouterr().out)["correct"] is False


def test_reference_catches_a_value_the_witness_would_allow(tmp_path):
    """At the default seed a lower value with a matching witness is still wrong."""
    workload = workloads.build("closure_search", workloads.DEFAULT_SEED, tmp_path)
    result = workload.run(0)
    assert workload.check(0, result) is None
    worse = dataclasses.replace(result, dmces_value=0, distance=Fraction(1),
                                witness=posetdist.NodeMatching(()))
    assert "reference" in workload.check(0, worse)


def test_overrun_counts_as_failure(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "DEADLINE_S", 1)
    monkeypatch.setattr(run, "MIN_OPS", 2)
    monkeypatch.setattr(posetdist, "d_e", lambda g, g2, *a: time.sleep(5))
    workload = workloads.ClosureSearch(tiny("closure_search"), SMOKE_SEED, tmp_path)
    previous = run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    try:
        loop = run.Loop(workload)
        start = time.perf_counter()
        loop.run(0.0)
    finally:
        run.signal.signal(run.signal.SIGALRM, previous)
    assert loop.overran == 2 and loop.failed == 2 and loop.wrong == 0
    assert time.perf_counter() - start < 4.5


def test_timed_ops_run_on_a_frozen_heap_that_is_thawed_after(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 3)

    class Probe:
        seen = []

        def run(self, i):
            self.seen.append(gc.get_freeze_count() > 0)
            return None

        def check(self, i, output):
            return None

    loop = run.Loop(Probe())
    loop.run(0.0)
    assert Probe.seen == [False, True, True, True]  # the warm-up runs before the freeze
    assert gc.get_freeze_count() == 0 and loop.failed == 0


def test_exits_nonzero_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and perfbench/ has no program to run."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure_search",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
