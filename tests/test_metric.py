"""Edge- and node-overlap distances and the auto solver policy."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import posetdist.clique as clique_module
import posetdist.core as core_module
import posetdist.metric as metric_module
from posetdist import (
    DegenerateInput,
    DistanceResult,
    KindMismatch,
    LabeledDigraph,
    NodeMatching,
    PosetDigraph,
    PropertyViolation,
    Solver,
    UndirectedGraph,
    build_poset_digraph,
    choose_solver,
    compatibility_graph,
    d_e,
    d_n,
    dmces_alg1,
    dmces_alg2,
    dmces_alg3,
    dmces_bruteforce,
    dmces_via_clique,
    extended_line_digraph,
    find_isomorphism,
    graph_to_json,
    induced_subgraph,
    label_budget,
    matched_edges,
    mcis,
    mcis_size,
    poset_distance,
    predecessors,
    respects_order_on_labels,
    save_graph,
    score,
    structure,
    topological_sort,
    transitive_reduction,
    untwist,
    validate_properties,
)
from posetdist.bench import seeded_pair
from conftest import (
    budget_pair,
    chain_pair,
    deep_chain_closure,
    deep_path,
    diamond_graph,
    seeded_graphs,
)


def long_open_path(n: int) -> LabeledDigraph:
    """A directed path on n nodes; not transitively closed once n > 2."""
    ids = [f"p{i:03d}" for i in range(n)]
    return LabeledDigraph(
        ids,
        dict.fromkeys(ids, "a"),
        [(ids[i], ids[i + 1]) for i in range(n - 1)],
    )


def plain(g: LabeledDigraph) -> LabeledDigraph:
    """A fresh plain digraph with the nodes, labels and edges of ``g``."""
    return LabeledDigraph(g.nodes, g.node_labels, g.edges)


def single_edge(label_a: str, label_b: str, prime: str = "") -> LabeledDigraph:
    a, b = f"s{prime}", f"t{prime}"
    return LabeledDigraph((a, b), {a: label_a, b: label_b}, ((a, b),))


class TestDistanceResult:
    def test_valid(self):
        r = DistanceResult(2, 4, Fraction(1, 2), NodeMatching(()), Solver.BRUTE)
        assert r.distance == Fraction(1, 2)

    def test_normalizer_must_be_positive(self):
        with pytest.raises(ValueError, match="normalizer"):
            DistanceResult(0, 0, Fraction(0), NodeMatching(()), Solver.BRUTE)

    def test_value_bounded_by_normalizer(self):
        with pytest.raises(ValueError, match="outside"):
            DistanceResult(5, 4, Fraction(0), NodeMatching(()), Solver.BRUTE)

    def test_distance_must_match_ingredients(self):
        with pytest.raises(ValueError, match="does not match"):
            DistanceResult(2, 4, Fraction(1, 3), NodeMatching(()), Solver.BRUTE)


class TestChooseSolver:
    def test_chain_closures_get_the_chain_solver(self):
        g, g2 = chain_pair()
        assert choose_solver(g, g2) is Solver.ALG3

    def test_small_branching_closures_get_the_clique_route(self):
        fork = LabeledDigraph(
            ("a", "b", "c"), dict.fromkeys("abc", "x"), (("a", "b"), ("a", "c"))
        )
        assert choose_solver(fork, fork) is Solver.CLIQUE
        g, g2 = seeded_pair("closure", 10, 3, 0.3, 0)
        assert not g.report.per_label_path
        assert metric_module._compat_vertices(g, g2) <= metric_module._CLOSURE_CLIQUE_GATE
        assert choose_solver(g, g2) is Solver.CLIQUE

    def test_dense_closures_above_the_gate_get_the_order_solver(self):
        g, g2 = seeded_pair("closure", 12, 1, 0.6, 0)
        assert not g.report.per_label_path
        assert metric_module._compat_vertices(g, g2) > metric_module._CLOSURE_CLIQUE_GATE
        assert choose_solver(g, g2) is Solver.ALG2

    def test_the_gate_admits_exactly_k_vertices(self, monkeypatch):
        # the closure gate, then the open-pair gate
        for gate, pair, beyond in (
            ("_CLOSURE_CLIQUE_GATE", ("closure", 10, 3, 0.3, 0), Solver.ALG2),
            ("_CLIQUE_AUTO_LIMIT", ("wso", 50, 8, 0.1, 7003), Solver.ALG1),
        ):
            g, g2 = seeded_pair(*pair)
            k = metric_module._compat_vertices(g, g2)
            monkeypatch.setattr(metric_module, gate, k)
            assert choose_solver(g, g2) is Solver.CLIQUE
            monkeypatch.setattr(metric_module, gate, k - 1)
            assert choose_solver(g, g2) is beyond

    @given(
        st.sampled_from(("wso", "closure", "path-closure")),
        st.integers(3, 8),
        st.integers(1, 4),
        st.sampled_from((0.3, 0.45, 0.6)),
        st.integers(0, 10**6),
    )
    @settings(max_examples=40)
    def test_gate_counts_the_compatibility_vertices(self, kind, nodes, labels, density, seed):
        g, g2 = seeded_pair(kind, nodes, labels, density, seed)
        comp = compatibility_graph(extended_line_digraph(g), extended_line_digraph(g2))
        k = metric_module._compat_vertices(g, g2)
        assert k == len(comp.pair_index)
        assert k == len(clique_module._edge_pair_graph(g, g2).pair_index)

    def test_small_open_inputs_get_the_clique_route(self):
        g = diamond_graph()  # acyclic but missing the composite edge
        assert choose_solver(g, g) is Solver.CLIQUE
        cyc, _ = budget_pair()
        assert choose_solver(cyc, cyc) is Solver.CLIQUE

    def test_many_labels_keep_a_large_edge_product_on_the_clique_route(self):
        # |E| * |E'| = 13 216 edge pairs, but only k = 163 match labels
        g, g2 = seeded_pair("wso", 50, 8, 0.1, 7003)
        assert len(g.edges) * len(g2.edges) > metric_module._CLIQUE_AUTO_LIMIT
        assert metric_module._compat_vertices(g, g2) == 163
        assert choose_solver(g, g2) is Solver.CLIQUE
        r = d_e(g, g2)
        assert r.solver is Solver.CLIQUE
        assert score(g, g2, r.witness) == r.dmces_value

    def test_large_open_inputs_fall_back_to_recursion(self):
        g = long_open_path(102)  # 101 edges on each side
        assert choose_solver(g, g) is Solver.ALG1

    def test_mixed_closure_and_open_counts_as_open(self):
        g, _ = chain_pair()
        assert choose_solver(g, diamond_graph()) is Solver.CLIQUE


class TestDE:
    def test_self_distance_is_zero(self):
        for g in (chain_pair()[0], diamond_graph(), budget_pair()[0]):
            r = d_e(g, g)
            assert r.distance == Fraction(0)
            assert r.dmces_value == r.normalizer == len(g.edges)

    def test_path_deeper_than_the_recursion_limit(self):
        # one clique vertex per edge, so the clique search holds a stack
        # deeper than the interpreter's recursion limit
        g = deep_path()
        r = d_e(g, g)
        assert r.distance == Fraction(0)
        assert r.solver is Solver.CLIQUE

    def test_path_deeper_than_the_recursion_limit_under_alg1(self):
        g = deep_path()
        assert d_e(g, g, Solver.ALG1).distance == Fraction(0)

    def test_chain_closure_deeper_than_the_recursion_limit(self):
        # one search frame per node, under alg3 and under alg2
        g = deep_chain_closure()
        r = d_e(g, g)
        assert r.solver is Solver.ALG3
        assert r.distance == Fraction(0)
        assert d_e(g, g, Solver.ALG2).distance == Fraction(0)

    def test_identical_pair_with_a_large_complete_compatibility_graph(self):
        # 600 distinct labels and 1500 edges: k = 1500 clique vertices, all
        # pairwise compatible, so the greedy clique is already the optimum
        ids = [f"q{i:03d}" for i in range(600)]
        edges = [(ids[i], ids[i + d]) for d in (1, 2, 3) for i in range(600 - d)][:1500]
        g = LabeledDigraph(ids, {v: v for v in ids}, edges)
        r = d_e(g, g)
        assert r.solver is Solver.CLIQUE
        assert r.dmces_value == 1500

    def test_budget_figure(self):
        g, g2 = budget_pair()
        r = d_e(g, g2)
        assert r.dmces_value == 2
        assert r.normalizer == 4
        assert r.distance == Fraction(1, 2)
        assert r.solver is Solver.CLIQUE  # cyclic input, small compatibility graph
        assert score(g, g2, r.witness) == 2

    def test_normalizer_takes_the_larger_side(self):
        g = single_edge("alpha", "alpha")
        g2, _ = chain_pair()
        r = d_e(g, g2)
        assert r.normalizer == 3
        assert r.dmces_value == 1
        assert r.distance == Fraction(2, 3)
        assert d_e(g2, g).distance == Fraction(2, 3)

    def test_disjoint_alphabets_are_at_distance_one(self):
        r = d_e(single_edge("a", "a"), single_edge("b", "b", prime="'"))
        assert r.distance == Fraction(1)
        assert r.dmces_value == 0

    def test_explicit_solver_selection(self):
        g, g2 = chain_pair()
        assert d_e(g, g2, Solver.BRUTE).solver is Solver.BRUTE
        assert d_e(g, g2, "clique").solver is Solver.CLIQUE
        assert d_e(g, g2).solver is Solver.ALG3

    def test_unknown_solver_name(self):
        g, g2 = chain_pair()
        with pytest.raises(ValueError):
            d_e(g, g2, "simplex")

    def test_rejects_non_wso(self):
        two_cycle = LabeledDigraph(
            ("a", "b"), {"a": "x", "b": "x"}, (("a", "b"), ("b", "a"))
        )
        g, _ = chain_pair()
        with pytest.raises(PropertyViolation, match="first"):
            d_e(two_cycle, g)
        with pytest.raises(PropertyViolation, match="second"):
            d_e(g, two_cycle)

    def test_rejects_edgeless_input(self):
        dot = LabeledDigraph(("a",), {"a": "x"}, ())
        g, _ = chain_pair()
        with pytest.raises(DegenerateInput, match="first"):
            d_e(dot, g)
        with pytest.raises(DegenerateInput, match="second"):
            d_e(g, dot)

    def test_distance_is_exact(self):
        r = d_e(*budget_pair())
        assert isinstance(r.distance, Fraction)

    def test_auto_agrees_with_the_order_solver_on_closures(self):
        # closures with 1-4 labels at the densities of the crossover grid;
        # the 9-node pairs with one label, or two at density 0.6, land above
        # the clique gate
        routes = set()
        seed = 500000
        for nodes in (5, 7, 9):
            for labels in (1, 2, 3, 4):
                for density in (0.3, 0.45, 0.6):
                    g, g2 = seeded_pair("closure", nodes, labels, density, seed)
                    seed += 2
                    r = d_e(g, g2)
                    assert r.dmces_value == dmces_alg2(g, g2).value
                    assert score(g, g2, r.witness) == r.dmces_value
                    routes.add(r.solver)
        assert {Solver.CLIQUE, Solver.ALG2} <= routes

    @given(seeded_graphs("wso", 3, 6), seeded_graphs("wso", 3, 6))
    @settings(max_examples=40)
    def test_symmetry(self, g, g2):
        assert d_e(g, g2).distance == d_e(g2, g).distance

    @given(seeded_graphs("wso", 3, 6), seeded_graphs("wso", 3, 6))
    @settings(max_examples=40)
    def test_equals_node_distance_of_derived_edge_digraphs(self, g, g2):
        # the bridge identity: comparing edges directly is the same as
        # comparing nodes of the derived edge digraphs
        bridge = d_n(extended_line_digraph(g), extended_line_digraph(g2))
        assert d_e(g, g2).distance == bridge

    @given(
        seeded_graphs("wso", 3, 6),
        seeded_graphs("wso", 3, 6),
        seeded_graphs("wso", 3, 6),
    )
    @settings(max_examples=20)
    def test_pseudometric_axioms(self, a, b, c):
        ab, bc, ac = d_e(a, b).distance, d_e(b, c).distance, d_e(a, c).distance
        assert 0 <= ab <= 1
        assert ab == d_e(b, a).distance
        assert ac <= ab + bc
        assert d_e(a, a).distance == 0


class TestValidationPasses:
    """Each graph's structural report is computed once and cached on the
    graph object, whichever solver answers."""

    @pytest.fixture
    def counted_pair(self, monkeypatch):
        """Two fresh copies of generated graphs (the generator caches its
        graphs' reports), then a counter on every validation pass."""
        g, g2 = (
            LabeledDigraph(h.nodes, h.node_labels, h.edges)
            for h in seeded_pair("path-closure", 7, 2, 0.3, 5)
        )
        seen = []
        real = core_module.validate_properties

        def counting(graph):
            seen.append(graph)
            return real(graph)

        monkeypatch.setattr(core_module, "validate_properties", counting)
        return g, g2, seen

    @pytest.mark.parametrize("solver", ["auto", *Solver])
    def test_one_pass_per_graph_then_none(self, solver, counted_pair):
        g, g2, passes = counted_pair
        first = d_e(g, g2, solver)
        assert len(passes) == 2
        assert passes[0] is g and passes[1] is g2
        assert d_e(g, g2, solver) == first
        assert len(passes) == 2


class TestDN:
    def test_both_empty(self):
        empty = LabeledDigraph((), {}, ())
        assert d_n(empty, empty) == Fraction(0)

    def test_self_distance(self):
        g, _ = chain_pair()
        assert d_n(g, g) == Fraction(0)

    def test_disjoint_labels(self):
        a = LabeledDigraph(("a",), {"a": "x"}, ())
        b = LabeledDigraph(("b",), {"b": "y"}, ())
        assert d_n(a, b) == Fraction(1)

    def test_chain_against_its_prefix(self):
        g, _ = chain_pair()
        prefix = LabeledDigraph(
            ("m1", "m2"), {"m1": "alpha", "m2": "alpha"}, (("m1", "m2"),)
        )
        assert d_n(g, prefix) == Fraction(1, 3)

    def test_on_derived_edge_digraphs(self):
        g, g2 = chain_pair()
        assert d_n(extended_line_digraph(g), extended_line_digraph(g2)) == 0


class TestPosetDistance:
    def shuffled_chains(self):
        p = build_poset_digraph(
            [("a", "x"), ("b", "x"), ("c", "y")], [("a", "b"), ("b", "c")]
        )
        q = build_poset_digraph(
            [("d", "x"), ("e", "y"), ("f", "x")], [("d", "e"), ("e", "f")]
        )
        return p, q

    def test_label_shuffled_chains(self):
        p, q = self.shuffled_chains()
        r = poset_distance(p, q)
        assert r.dmces_value == 2
        assert r.distance == Fraction(1, 3)
        assert r.solver is Solver.ALG3

    def test_self_distance_is_zero(self):
        p, _ = self.shuffled_chains()
        assert poset_distance(p, p).distance == 0

    def test_every_entry_point_takes_posets(self):
        p, q = self.shuffled_chains()
        for a, b in ((p, p), (p, q)):
            value = poset_distance(a, b).dmces_value
            assert dmces_alg1(a, b).value == value
            assert dmces_via_clique(a, b).value == value
            assert d_e(a, b).dmces_value == value

    def test_the_line_digraph_entry_points_take_posets(self):
        p, q = self.shuffled_chains()
        eld, eld2 = extended_line_digraph(p), extended_line_digraph(q)
        assert d_n(eld, eld2) == d_e(p, q).distance == Fraction(1, 3)
        a, b = plain(p), plain(q)
        assert d_n(p, q) == d_n(a, b)
        assert mcis(p, q) == mcis(a, b)
        assert mcis_size(p, q) == mcis_size(a, b)
        assert compatibility_graph(p, q) == compatibility_graph(a, b)

    def test_brute_takes_posets_through_solve(self):
        p, q = self.shuffled_chains()
        for a, b in ((p, p), (p, q), (q, p)):
            outcome = metric_module.solve(a, b, "brute")
            expected = d_e(a, b, solver="brute")
            assert (outcome.value, outcome.witness) == (
                expected.dmces_value,
                expected.witness,
            )
            assert outcome.solver is Solver.BRUTE

    def test_chain_poset_deeper_than_the_recursion_limit(self):
        p = PosetDigraph(deep_chain_closure())
        r = poset_distance(p, p)
        assert r.solver is Solver.ALG3
        assert r.distance == 0

    def test_branching_label_class_uses_the_clique_route(self):
        p = build_poset_digraph(
            [("u", "x"), ("v", "x"), ("w", "x")], [("u", "v"), ("u", "w")]
        )
        r = poset_distance(p, p)
        assert r.solver is Solver.CLIQUE
        assert r.distance == 0


def seeded_posets():
    """Poset pairs from seeded closure and path-closure instances."""
    for kind in ("closure", "path-closure"):
        for seed in range(4):
            g, g2 = seeded_pair(kind, 6 + seed, 3, 0.4, 100 + 2 * seed)
            yield PosetDigraph(g), PosetDigraph(g2)


def twisted(p: LabeledDigraph, phi: NodeMatching):
    """``phi`` with the images of the first same-label edge it realizes
    swapped, and that edge's pair: a twisted pair; None if there is none."""
    m = phi.mapping
    for (u, v), _ in sorted(matched_edges(p, p, phi)):
        if p.node_labels[u] == p.node_labels[v]:
            return NodeMatching(dict(m, **{u: m[v], v: m[u]}).items()), (u, v)
    return None


class TestPosetIsADigraph:
    """A :class:`PosetDigraph` is a :class:`LabeledDigraph`, so every
    function on digraphs takes one and returns what it returns on a plain
    copy."""

    def test_a_poset_is_its_own_digraph(self):
        p = build_poset_digraph([("a", "x"), ("b", "y")], [("a", "b")])
        assert isinstance(p, LabeledDigraph)
        assert p.graph is p
        assert p == p.graph
        assert repr(p).startswith("PosetDigraph(nodes=('a', 'b'), node_labels=")
        # equal fields, but a poset is not equal to a plain digraph
        assert p != plain(p)

    def test_every_digraph_function_returns_the_same_on_posets(self, tmp_path):
        twists = 0
        for p, q in seeded_posets():
            a, b = plain(p), plain(q)
            phi = poset_distance(p, q).witness
            assert score(p, q, phi) == score(a, b, phi)
            assert respects_order_on_labels(p, q, phi) == respects_order_on_labels(a, b, phi)
            assert label_budget(p, q) == label_budget(a, b)
            assert matched_edges(p, q, phi) == matched_edges(a, b, phi)
            assert choose_solver(p, q) == choose_solver(a, b)
            assert topological_sort(p) == topological_sort(a)
            assert validate_properties(p) == validate_properties(a)
            assert transitive_reduction(p) == transitive_reduction(a)
            assert predecessors(p, p.nodes[-1]) == predecessors(a, a.nodes[-1])
            assert induced_subgraph(p, p.nodes[:3]) == induced_subgraph(a, a.nodes[:3])
            assert structure(p) == structure(a)
            assert graph_to_json(p) == graph_to_json(a)
            save_graph(p, tmp_path / "p.json")
            save_graph(a, tmp_path / "a.json")
            assert (tmp_path / "p.json").read_bytes() == (tmp_path / "a.json").read_bytes()
            assert find_isomorphism(p, q) == find_isomorphism(a, b)
            found = twisted(p, poset_distance(p, p).witness)
            if found is not None:
                psi, pair = found
                assert untwist(p, p, psi, pair) == untwist(a, a, psi, pair)
                twists += 1
        assert twists

    def test_score_rechecks_a_poset_distance_witness(self):
        for p, q in seeded_posets():
            r = poset_distance(p, q)
            assert score(p, q, r.witness) == r.dmces_value

    def test_a_poset_compares_with_a_plain_digraph(self):
        for p, q in seeded_posets():
            assert mcis(p, plain(q)) == mcis(plain(p), plain(q))
            bijection = find_isomorphism(p, plain(p))
            assert bijection.pairs == tuple((v, v) for v in sorted(p.nodes))


class TestNonDigraphsAreRefused:
    """The solver entry points take labeled digraphs only, and refuse any
    other graph with a typed error naming it."""

    @pytest.mark.parametrize(
        "solve_pair",
        [d_e, dmces_alg1, dmces_alg2, dmces_alg3, dmces_via_clique, dmces_bruteforce],
    )
    def test_line_digraphs_and_undirected_graphs(self, solve_pair):
        g, _ = chain_pair()  # passes every guard, so the second graph is reached
        eld = extended_line_digraph(g)
        ug = UndirectedGraph(("a", "b"), (("a", "b"),))
        for other in (eld, ug):
            name = type(other).__name__
            with pytest.raises(KindMismatch, match=f"^first graph .* not {name}$"):
                solve_pair(other, other)
            with pytest.raises(KindMismatch, match=f"^second graph .* not {name}$"):
                solve_pair(g, other)
