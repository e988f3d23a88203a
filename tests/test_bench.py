"""The cross-solver agreement harness."""

import pytest

from posetdist import BenchConfig, Solver, SolverDisagreement, bench_harness, rows_to_csv
import posetdist.metric as metric_module


class TestConfig:
    def test_default_solver_sets(self):
        assert BenchConfig(kind="wso").solver_set() == (
            Solver.BRUTE,
            Solver.ALG1,
            Solver.CLIQUE,
        )
        assert BenchConfig(kind="closure").solver_set() == (
            Solver.BRUTE,
            Solver.ALG1,
            Solver.ALG2,
            Solver.CLIQUE,
        )
        assert BenchConfig(kind="path-closure").solver_set() == (
            Solver.BRUTE,
            Solver.ALG2,
            Solver.ALG3,
        )

    def test_explicit_solvers_override_the_kind(self):
        config = BenchConfig(kind="closure", solvers=(Solver.ALG2,))
        assert config.solver_set() == (Solver.ALG2,)


class TestHarness:
    def test_rows_cover_the_grid(self):
        config = BenchConfig(kind="closure", sizes=(4, 5), trials=2, seed=11)
        rows = bench_harness(config)
        # 2 sizes x 2 trials x 4 solvers, none skipped at these sizes
        assert len(rows) == 16
        assert {r["solver"] for r in rows} == {"brute", "alg1", "alg2", "clique"}
        assert all(r["agree"] for r in rows)
        assert all(r["elapsed_ms"] >= 0 for r in rows)

    def test_values_agree_within_each_trial(self):
        rows = bench_harness(BenchConfig(kind="wso", sizes=(5,), trials=3, seed=2))
        by_trial: dict[tuple, set] = {}
        for i, row in enumerate(rows):
            by_trial.setdefault(i // 3, set()).add(row["value"])
        for values in by_trial.values():
            assert len(values) == 1

    def test_brute_skipped_beyond_its_cap(self):
        rows = bench_harness(
            BenchConfig(kind="path-closure", sizes=(12,), trials=1, seed=0)
        )
        assert {r["solver"] for r in rows} == {"alg2", "alg3"}

    def test_explicit_solver_subset(self):
        rows = bench_harness(
            BenchConfig(kind="closure", sizes=(4,), trials=1, solvers=(Solver.ALG2,))
        )
        assert [r["solver"] for r in rows] == ["alg2"]

    def test_disagreement_aborts_and_names_both_values(self, monkeypatch):
        # force one solver to lie; the harness must dump the pair and raise
        real = metric_module.dmces_alg2

        def lying_alg2(g, g2):
            outcome = real(g, g2)
            object.__setattr__(outcome, "value", outcome.value + 1)
            return outcome

        monkeypatch.setattr(metric_module, "dmces_alg2", lying_alg2)
        config = BenchConfig(kind="closure", sizes=(4,), trials=1, seed=11)
        with pytest.raises(SolverDisagreement, match="alg2") as err:
            bench_harness(config)
        assert "first graph" in str(err.value)
        assert '"nodes"' in str(err.value)


class TestCsv:
    def test_header_and_rows(self):
        rows = bench_harness(BenchConfig(kind="wso", sizes=(4,), trials=1, seed=5))
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "solver,n_nodes,n_edges,value,elapsed_ms,agree"
        assert len(lines) == len(rows) + 1
        assert all(line.split(",")[1] == "4" for line in lines[1:])

    def test_empty_rows_still_emit_the_header(self):
        assert rows_to_csv([]).strip() == "solver,n_nodes,n_edges,value,elapsed_ms,agree"
