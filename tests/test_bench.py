"""The cross-solver agreement harness."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from posetdist import (
    BenchConfig,
    SizeCapExceeded,
    SolverDisagreement,
    bench_harness,
    rows_to_csv,
)
from posetdist.bench import check_pair, matching_count, seeded_pair
from posetdist.generate import KINDS
from posetdist.metric import closure_flags
import posetdist.bench as bench_module
import posetdist.metric as metric_module
from conftest import seeded_graphs
from oracles import iter_matchings


def solvers_of(rows) -> list[str]:
    return [r["solver"] for r in rows]


class TestCheckPair:
    @pytest.mark.parametrize(
        ("kind", "seed", "flags", "solvers"),
        [
            ("wso", 0, (False, False), ["brute", "alg1", "clique"]),
            ("closure", 2, (True, False), ["brute", "alg1", "alg2", "clique"]),
            ("path-closure", 0, (True, True), ["brute", "alg1", "alg2", "alg3", "clique"]),
        ],
    )
    def test_solvers_follow_the_pair_shape(self, kind, seed, flags, solvers):
        # open pair: brute, alg1, clique; branching closures add alg2;
        # chain closures add alg3 as well (all small enough for both gates)
        g, g2 = seeded_pair(kind, 5, 2, 0.5, seed)
        assert closure_flags(g, g2) == flags
        assert solvers_of(check_pair(g, g2)) == solvers

    @given(st.data())
    @settings(max_examples=40)
    def test_matching_count_is_the_oracles_leaf_count(self, data):
        kind = data.draw(st.sampled_from(KINDS))
        g, g2 = data.draw(seeded_graphs(kind, 2, 6)), data.draw(seeded_graphs(kind, 2, 6))
        assert matching_count(g, g2) == sum(1 for _ in iter_matchings(g, g2))


class TestHarness:
    def test_rows_cover_the_grid(self):
        config = BenchConfig(kind="closure", sizes=(4, 5), trials=2, seed=11)
        rows = bench_harness(config)
        # 4 pairs x {brute, alg1, alg2, clique}, plus alg3 on the second
        # pair, whose label classes are chains in both graphs
        assert len(rows) == 17
        assert solvers_of(rows).count("alg3") == 1
        assert {r["solver"] for r in rows} == {"brute", "alg1", "alg2", "alg3", "clique"}
        assert all(r["agree"] for r in rows)
        assert all(r["elapsed_ms"] >= 0 for r in rows)

    def test_values_agree_within_each_trial(self):
        for seed in (2, 4, 6):
            rows = check_pair(*seeded_pair("wso", 5, 3, 0.4, seed))
            assert len({r["value"] for r in rows}) == 1

    def test_brute_skipped_beyond_its_cap(self):
        # 9 129 329 matchings: brute is out; 47 x 52 = 2444 edge pairs, but
        # only 291 compatibility vertices: clique stays in
        config = BenchConfig(kind="path-closure", sizes=(12,), trials=1, seed=0)
        assert metric_module._compat_vertices(*seeded_pair("path-closure", 12, 3, 0.4, 0)) == 291
        rows = bench_harness(config)
        assert solvers_of(rows) == ["alg1", "alg2", "alg3", "clique"]

    def test_brute_gated_by_matching_count_and_node_cap(self):
        # 10 nodes fit the oracle's node cap, but 241 604 matchings are over
        # the gate
        assert matching_count(*seeded_pair("path-closure", 10, 3, 0.3, 0)) == 241_604
        config = BenchConfig(kind="path-closure", sizes=(10,), trials=1, density=0.3)
        assert solvers_of(bench_harness(config)) == ["alg1", "alg2", "alg3", "clique"]
        # one node per label: 2 ** 14 matchings pass the gate, 14 nodes break
        # the cap; 19 compatibility vertices keep clique in
        assert metric_module._compat_vertices(*seeded_pair("path-closure", 14, 14, 0.3, 0)) == 19
        config = BenchConfig(kind="path-closure", sizes=(14,), trials=1, labels=14, density=0.3)
        assert solvers_of(bench_harness(config)) == ["alg1", "alg2", "alg3", "clique"]

    def test_alg1_skipped_on_a_16_node_path_closure_pair(self, monkeypatch):
        # 3.2e10 matchings, over the chain gate; brute and clique (k = 1411)
        # are out too, so alg2 and alg3 audit each other
        g, g2 = seeded_pair("path-closure", 16, 3, 0.4, 0)
        assert matching_count(g, g2) > bench_module._ALG1_CHAIN_MATCHINGS
        assert metric_module._compat_vertices(g, g2) > bench_module._CLIQUE_LIMIT
        rows = check_pair(g, g2)
        assert solvers_of(rows) == ["alg2", "alg3"]
        assert rows[0]["value"] == rows[1]["value"]
        real = metric_module.dmces_alg3

        def lying_alg3(g, g2):
            outcome = real(g, g2)
            object.__setattr__(outcome, "value", outcome.value - 1)
            return outcome

        monkeypatch.setattr(metric_module, "dmces_alg3", lying_alg3)
        with pytest.raises(SolverDisagreement, match="alg2=.*alg3="):
            check_pair(g, g2)

    def test_alg1_gated_by_matching_count_and_pair_shape(self):
        # 499 534 244 matchings on 14-node chain closures: under the chain gate
        pair = seeded_pair("path-closure", 14, 3, 0.3, 0)
        assert matching_count(*pair) <= bench_module._ALG1_CHAIN_MATCHINGS
        assert "alg1" in solvers_of(check_pair(*pair))
        # an open pair just under the other gate, and one over it
        under, over = seeded_pair("wso", 12, 3, 0.3, 2), seeded_pair("wso", 12, 3, 0.3, 0)
        assert matching_count(*under) <= bench_module._ALG1_MATCHINGS < matching_count(*over)
        assert solvers_of(check_pair(*under)) == ["alg1", "clique"]
        assert solvers_of(check_pair(*over)) == ["clique"]

    def test_a_pair_no_gate_admits_is_an_error(self):
        # an open pair with 7.7e16 matchings and k = 2246: brute, alg1 and
        # clique are all gated out, and alg2 and alg3 do not apply
        g, g2 = seeded_pair("wso", 20, 2, 0.5, 0)
        with pytest.raises(
            SizeCapExceeded, match="76893829632166993 matchings, k = 2246 compat"
        ):
            check_pair(g, g2)

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
