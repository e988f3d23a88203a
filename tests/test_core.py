"""Graph types, structural predicates, poset construction, order utilities."""

import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import posetdist.core as core_module
from posetdist import (
    AntisymmetryViolation,
    NodeMatching,
    CycleDetected,
    DegeneratePoset,
    LabeledDigraph,
    NotWeaklyConnected,
    PosetDigraph,
    PosetDistError,
    PropertyViolation,
    UndirectedGraph,
    build_poset_digraph,
    induced_subgraph,
    line_graph,
    predecessors,
    score,
    structure,
    topological_sort,
    transitive_closure,
    transitive_reduction,
    validate_properties,
)
from conftest import (
    diamond_graph,
    loopfree_digraphs,
    raw_digraphs,
    seeded_graphs,
    triangle,
)
from oracles import (
    adjacency_masks_by_edges,
    ancestors_by_networkx,
    antisymmetry_pair,
    bfs_closure_edges,
    closure_by_networkx,
    image_by_bits,
    labeled_digraph_by_loop,
    line_graph_by_networkx,
    mask_edges_by_bits,
    reduction_by_networkx,
    report_by_networkx,
    topological_order_by_networkx,
    transpose_by_bits,
)


def dag_from(g: LabeledDigraph) -> LabeledDigraph:
    """Keep only edges that go forward in node order: always acyclic."""
    pos = {v: i for i, v in enumerate(g.nodes)}
    return LabeledDigraph(
        g.nodes, g.node_labels, [(u, v) for u, v in g.edges if pos[u] < pos[v]]
    )


@st.composite
def any_digraphs(draw, max_nodes: int = 8):
    """Digraphs on 0..max_nodes nodes with 1-3 labels and shuffled string
    ids; self-loops, 2-cycles, isolated nodes, disconnected parts and
    cyclic label classes all occur."""
    n = draw(st.integers(0, max_nodes))
    ids = draw(st.permutations([f"n{i}" for i in range(n)]))
    labels = "abc"[: draw(st.integers(1, 3))]
    node_labels = {v: draw(st.sampled_from(labels)) for v in ids}
    pool = [(a, b) for a in ids for b in ids]
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return LabeledDigraph(ids, node_labels, edges)


@st.composite
def shuffled_dags(draw, max_nodes: int = 9):
    """DAGs whose node order, id strings and edge order are all shuffled,
    so the smallest-id tie-break differs from insertion order."""
    n = draw(st.integers(0, max_nodes))
    ids = draw(st.permutations([f"{chr(97 + i)}{i % 3}" for i in range(n)]))
    ranks = draw(st.permutations(ids))
    pool = [(a, b) for i, a in enumerate(ranks) for b in ranks[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return LabeledDigraph(ids, dict.fromkeys(ids, "x"), draw(st.permutations(edges)))


@st.composite
def edited_closures(draw, max_nodes: int = 10):
    """Transitive closures of DAGs with shuffled ids, node order and edge
    order and 1-3 labels, with 0-3 edges then toggled (removed if present,
    else added, self-loops and reversed edges included): the graphs where
    a wrong skip in the closure test would show."""
    n = draw(st.integers(1, max_nodes))
    ids = draw(st.permutations([f"{chr(97 + i)}{i % 3}" for i in range(n)]))
    ranks = draw(st.permutations(ids))
    pool = [(a, b) for i, a in enumerate(ranks) for b in ranks[i + 1 :]]
    labels = "xyz"[: draw(st.integers(1, 3))]
    node_labels = {v: draw(st.sampled_from(labels)) for v in ids}
    dag_edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    edges = dict.fromkeys(transitive_closure(LabeledDigraph(ids, node_labels, dag_edges)).edges)
    node = st.sampled_from(ids)
    for e in draw(st.lists(st.tuples(node, node), max_size=3)):
        if e in edges:
            del edges[e]
        else:
            edges[e] = None
    return LabeledDigraph(ids, node_labels, draw(st.permutations(list(edges))))


@st.composite
def shuffled_undirected(draw, max_nodes: int = 8):
    """Undirected graphs with shuffled ids, each edge given either way round."""
    n = draw(st.integers(0, max_nodes))
    ids = draw(st.permutations([f"{chr(97 + i)}{i % 3}" for i in range(n)]))
    pool = [(a, b) for a in ids for b in ids if a != b]
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return UndirectedGraph(ids, edges)


class TestLabeledDigraph:
    def test_duplicate_node_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LabeledDigraph(("a", "a"), {"a": "x"}, ())

    def test_missing_label_rejected(self):
        with pytest.raises(KeyError):
            LabeledDigraph(("a", "b"), {"a": "x"}, ())

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            LabeledDigraph(("a",), {"a": "x"}, (("a", "zz"),))

    def test_duplicate_edges_collapse_keeping_first_position(self):
        g = LabeledDigraph(
            ("a", "b", "c"),
            {"a": "x", "b": "x", "c": "x"},
            (("a", "b"), ("b", "c"), ("a", "b")),
        )
        assert g.edges == (("a", "b"), ("b", "c"))

    def test_the_first_bad_edge_is_named(self):
        labels = {"a": "x", "b": "x"}
        with pytest.raises(ValueError, match="too many values to unpack"):
            LabeledDigraph(("a", "b"), labels, (("a", "b"), ("a", "b", "a"), ("a", "zz")))
        with pytest.raises(ValueError, match=r"^edge \('a', 'zz'\) references"):
            LabeledDigraph(("a", "b"), labels, (("a", "b"), ("a", "zz"), ("a", "b", "a")))

    @given(st.data())
    def test_matches_the_edge_by_edge_build(self, data):
        ids = data.draw(st.lists(st.sampled_from("abcdef"), unique=True, max_size=5))
        labels = {v: "x" for v in ids}
        edges = []
        if ids:
            node = st.sampled_from(ids)
            edges = data.draw(st.lists(st.tuples(node, node), max_size=12))  # repeats too
        # up to two bad edges anywhere: an undeclared end "zz", or no pair
        end = st.sampled_from(ids + ["zz"])
        bad = st.one_of(
            st.tuples(end, st.just("zz")), st.tuples(end), st.tuples(end, end, end)
        )
        for edge in data.draw(st.lists(bad, max_size=2)):
            edges.insert(data.draw(st.integers(0, len(edges))), edge)
        try:
            expected = labeled_digraph_by_loop(ids, labels, edges)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                LabeledDigraph(ids, labels, edges)
            assert str(got.value) == str(exc)
            return
        g = LabeledDigraph(ids, labels, iter(edges))
        assert (g.nodes, g.node_labels, g.edges) == expected
        assert all(type(e) is tuple for e in g.edges)

    @pytest.mark.parametrize(
        "edges",
        [
            (("a", "b"), ("a",), ("a", "zz")),
            (("a", "b"), ("a", "b", "a"), ("zz", "a")),
            (("a", "b"), ("a", "zz"), ("a",)),
            (("b", "a"), ("zz", "b"), ("a", "b", "a")),
        ],
        ids=["short-then-undeclared", "long-then-undeclared",
             "undeclared-then-short", "undeclared-then-long"],
    )
    def test_the_first_bad_edge_raises_what_the_loop_raises(self, edges):
        labels = {"a": "x", "b": "x"}
        with pytest.raises(ValueError) as want:
            labeled_digraph_by_loop(("a", "b"), labels, edges)
        with pytest.raises(ValueError) as got:
            LabeledDigraph(("a", "b"), labels, edges)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_unhashable_endpoint_is_a_type_error(self):
        with pytest.raises(TypeError):
            LabeledDigraph(("a", "b"), {"a": "x", "b": "x"}, (("a", "b"), ("a", ["b"])))

    @given(st.data())
    def test_masks_match_the_edge_by_edge_oracle(self, data):
        # self-loops, 2-cycles and repeated edges all occur, on 0-7 nodes;
        # the edges come as a generator of tuples, lists or iterators
        n = data.draw(st.integers(0, 7))
        ids = data.draw(st.permutations([f"n{i}" for i in range(n)]))
        labels = {v: data.draw(st.sampled_from("ab")) for v in ids}
        edges = []
        if ids:
            node = st.sampled_from(ids)
            edges = data.draw(st.lists(st.tuples(node, node), max_size=3 * n))
            edges += data.draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
        wrap = data.draw(st.sampled_from((tuple, list, iter)))
        g = LabeledDigraph(ids, labels, (wrap(e) for e in edges))
        assert (g.nodes, g.node_labels, g.edges) == labeled_digraph_by_loop(ids, labels, edges)
        assert g.adjacency_masks == adjacency_masks_by_edges(g)
        _, out, inn = g.adjacency_masks
        assert type(out) is type(inn) is tuple

    @pytest.mark.parametrize(
        "nodes, edges",
        [((), ()), (("a",), ()), (("a",), (("a", "a"),)), (("a",), (("a", "a"), ("a", "a")))],
        ids=["empty", "one-node", "self-loop", "repeated-self-loop"],
    )
    def test_masks_of_tiny_graphs(self, nodes, edges):
        g = LabeledDigraph(nodes, dict.fromkeys(nodes, "x"), edges)
        assert g.edges == tuple(dict.fromkeys(edges))
        assert g.adjacency_masks == adjacency_masks_by_edges(g)

    @given(
        st.one_of(
            any_digraphs().map(dag_from),
            seeded_graphs("path-closure", max_nodes=12),
            seeded_graphs("closure", max_nodes=10),
        )
    )
    def test_mask_derived_graphs_match_the_checked_build(self, g):
        # a generated closure is built from its masks too
        derived = [g, transitive_closure(g), transitive_reduction(g)]
        elements = [(v, g.node_labels[v]) for v in g.nodes]
        try:
            derived.append(build_poset_digraph(elements, g.edges).graph)
        except PosetDistError:
            pass  # disconnected or edgeless: the poset build rejects it
        for h in derived:
            checked = LabeledDigraph(h.nodes, h.node_labels, h.edges)
            assert (h.nodes, h.node_labels, h.edges) == (
                checked.nodes, checked.node_labels, checked.edges
            )
            assert h.adjacency_masks == checked.adjacency_masks
            assert h.report == checked.report
            assert all(type(e) is tuple for e in h.edges)

    @given(st.data())
    def test_transpose_reads_the_columns(self, data):
        # any masks, not only symmetric ones, in id order or shuffled
        n = data.draw(st.integers(0, 70))
        masks = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n)]
        order = data.draw(st.sampled_from((list(range(n)), data.draw(st.permutations(range(n))))))
        assert core_module._transpose(masks, order) == transpose_by_bits(masks, order)

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2500])
    def test_transpose_in_bands_reads_the_columns(self, n):
        # one band up to 1 024 rows, then each band's columns ORed at its
        # offset; a shuffled order puts every band's rows out of place
        rng = random.Random(n)
        masks = [rng.getrandbits(n) for _ in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        assert core_module._transpose(masks, order) == transpose_by_bits(masks, order)

    def test_adjacency_maps(self):
        g = diamond_graph()
        index, out, inn = g.adjacency_masks
        # u's out-neighbours and w's in-neighbours are both v and x
        assert out[index["u"]] == inn[index["w"]] == 0b1010
        assert g.label_classes == {"a": ("u", "v", "w", "x")}

    def test_label_candidates_sizes_and_masks(self):
        # insertion order v, b, a, c; the search order sorts them by
        # in-degree minus out-degree, ties in insertion order: v and c
        # (-1), then b and a (1).  The rows and each label's candidates
        # run in it, the candidates then -1
        g = LabeledDigraph(
            ("v", "b", "a", "c"),
            {"v": "x", "b": "y", "a": "x", "c": "x"},
            (("v", "b"), ("c", "a")),
        )
        # no in-mask here is dense, so no row carries a selector
        assert g.search_rows == (
            (0, 0b0000, 0b0010, 0b1101, "x", 2, None),
            (3, 0b0000, 0b0100, 0b1101, "x", 1, None),
            (1, 0b0001, 0b0000, 0b0010, "y", 0, None),
            (2, 0b1000, 0b0000, 0b1101, "x", 0, None),
        )
        assert g.out_selectors == (None,) * 4
        assert g.candidates == {"x": (0, 3, 2, -1), "y": (1, -1)}
        assert g.label_sizes == {"x": 3, "y": 1}
        assert g.label_masks == {"x": 0b1101, "y": 0b0010}

    def test_equal_graphs_hash_equal(self):
        g = LabeledDigraph(("a", "b"), {"a": "x", "b": "y"}, (("a", "b"),))
        same = LabeledDigraph(["a", "b"], {"b": "y", "a": "x"}, [("a", "b")])
        assert g == same and hash(g) == hash(same)
        assert {g: "g"}[same] == "g" and len({g, same}) == 1
        assert "_hash" in vars(g)  # computed once per graph object
        p = build_poset_digraph([("a", "x"), ("b", "y")], [("a", "b")])
        assert p == PosetDigraph(same) and hash(p) == hash(PosetDigraph(same))
        # a poset never equals a plain digraph, though it may hash alike
        assert len({p, g}) == 2

    def test_relabel_carries_labels_and_edges(self):
        g = diamond_graph()
        m = {"u": "1", "v": "2", "w": "3", "x": "4"}
        h = g.relabel(m)
        assert h.nodes == ("1", "2", "3", "4")
        assert ("1", "2") in h.edge_set
        assert h.node_labels["3"] == "a"


class TestUndirectedGraph:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            UndirectedGraph(("a",), (("a", "a"),))

    def test_edges_canonicalize_and_collapse(self):
        g = UndirectedGraph(("a", "b"), (("b", "a"), ("a", "b")))
        assert g.edges == (("a", "b"),)
        assert g.has_edge("b", "a")

    def test_neighbors_symmetric(self):
        g = UndirectedGraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
        assert g.adjacency == (0b010, 0b101, 0b010)


class TestValidateProperties:
    def test_cyclic_triangle_is_wso_but_not_acyclic(self):
        r = validate_properties(triangle("cyclic"))
        assert r.is_wso and not r.is_acyclic

    def test_two_cycle_not_oriented(self):
        g = LabeledDigraph(("a", "b"), {"a": "x", "b": "x"}, (("a", "b"), ("b", "a")))
        r = validate_properties(g)
        assert r.is_simple and not r.is_oriented

    def test_self_loop_not_simple(self):
        g = LabeledDigraph(("a",), {"a": "x"}, (("a", "a"),))
        assert not validate_properties(g).is_simple

    def test_disconnected_flagged(self):
        g = LabeledDigraph(("a", "b", "c"), dict.fromkeys("abc", "x"), (("a", "b"),))
        assert not validate_properties(g).is_weakly_connected

    def test_diamond_not_closed(self):
        r = validate_properties(diamond_graph())
        assert r.is_wso and r.is_acyclic and not r.is_transitively_closed

    def test_closed_chain_has_path_classes(self):
        g = LabeledDigraph(
            ("a", "b", "c"),
            dict.fromkeys("abc", "x"),
            (("a", "b"), ("a", "c"), ("b", "c")),
        )
        r = validate_properties(g)
        assert r.is_transitively_closed and r.per_label_path

    def test_fork_class_is_not_a_path(self):
        g = LabeledDigraph(
            ("a", "b", "c"), dict.fromkeys("abc", "x"), (("a", "b"), ("a", "c"))
        )
        assert not validate_properties(g).per_label_path

    def test_singleton_classes_are_paths(self):
        g = LabeledDigraph(
            ("a", "b"), {"a": "x", "b": "y"}, (("a", "b"),)
        )
        assert validate_properties(g).per_label_path

    def test_singleton_class_with_self_loop_is_not_a_path(self):
        g = LabeledDigraph(
            ("a", "b"), {"a": "x", "b": "y"}, (("a", "a"), ("a", "b"))
        )
        assert not validate_properties(g).per_label_path

    @given(raw_digraphs())
    def test_flags_match_first_principles(self, g):
        r = validate_properties(g)
        edges = set(g.edges)
        simple = all(u != v for u, v in edges)
        assert r.is_simple == simple
        assert r.is_oriented == (
            simple and all((v, u) not in edges for u, v in edges)
        )
        closed = all(
            (u, w) in edges
            for (u, v) in edges
            for (v2, w) in edges
            if v == v2 and u != w
        )
        assert r.is_transitively_closed == closed
        # weak connectivity by union-find from scratch
        parent = {v: v for v in g.nodes}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for u, v in edges:
            parent[find(u)] = find(v)
        components = {find(v) for v in g.nodes}
        assert r.is_weakly_connected == (len(components) <= 1)


    @given(any_digraphs())
    @example(LabeledDigraph((), {}, ()))
    @example(LabeledDigraph(("a",), {"a": "x"}, (("a", "a"),)))
    @example(
        LabeledDigraph(
            ("a", "b", "c", "d"),
            {"a": "x", "b": "x", "c": "x", "d": "y"},
            (("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")),
        )
    )
    def test_report_matches_networkx_oracle(self, g):
        assert validate_properties(g) == report_by_networkx(g)

    @given(
        st.one_of(
            seeded_graphs("path-closure", max_nodes=12),
            seeded_graphs("closure", max_nodes=10),
            seeded_graphs("wso", max_nodes=10),
            loopfree_digraphs(max_nodes=7, labels="abc").map(
                lambda g: transitive_closure(dag_from(g))
            ),
        )
    )
    def test_report_matches_oracle_on_closures(self, g):
        # random digraphs are seldom closed; these reach the closed branches
        assert validate_properties(g) == report_by_networkx(g)

    def test_two_cycle_passing_the_skip_test_is_not_closed(self):
        # b <-> c: the skip test alone passes every node, though b -> d -> e
        # has no b -> e; only an oriented graph may rest on it.  The walk
        # goes highest bit first, so d is listed before b and c: b then
        # takes c first and c takes b, and each covers d
        g = LabeledDigraph(
            tuple("adbce"),
            dict.fromkeys("abcde", "x"),
            (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "b"), ("c", "d"), ("d", "e")),
        )
        _, out, _ = g.adjacency_masks
        assert core_module._skip_skeleton(out)
        assert not g.closed_dag
        assert not g.report.is_transitively_closed
        assert g.report == report_by_networkx(g)

    @given(edited_closures())
    def test_report_and_order_match_networkx_on_edited_closures(self, g):
        assert g.report == report_by_networkx(g)
        if g.report.is_acyclic:
            assert g.topological_order == tuple(topological_order_by_networkx(g))
        else:
            with pytest.raises(CycleDetected):
                topological_sort(g)

    @given(edited_closures())
    def test_skip_test_passes_exactly_the_closed_dags(self, g):
        r = g.report
        assert g.closed_dag == (r.is_oriented and r.is_transitively_closed)

    @given(st.data())
    def test_edges_of_masks_match_a_bit_by_bit_read(self, data):
        # nodes in unsorted insertion order, as strings or as ints
        n = data.draw(st.integers(0, 70))
        ids = data.draw(st.sampled_from((list(range(n)), [f"v{i}" for i in range(n)])))
        nodes = tuple(data.draw(st.permutations(ids)))
        masks = [data.draw(st.integers(0, (1 << n) - 1)) for _ in nodes]
        edges = core_module._edges(nodes, masks)
        assert edges == mask_edges_by_bits(nodes, masks)

    @pytest.mark.parametrize("n", [16, 40, 80, 200, 1000, 1025, 3000])
    def test_image_matches_a_bit_by_bit_sum(self, n, monkeypatch):
        monkeypatch.setattr(core_module, "_BIT", [])  # the walk must grow it
        # seeded masks from no bit to every bit, so that every size has
        # masks on both sides of the crossover; the table's entries overlap
        rng = random.Random(n)
        table = [rng.getrandbits(n) for _ in range(n)]
        counts = sorted({0, 1, 2, 3, 5, 8, 13, n // 8, n // 4, n // 2, n - 1, n})
        masks = [
            sum(1 << i for i in rng.sample(range(n), k)) for k in counts for _ in range(3)
        ]
        assert {core_module._dense(m) for m in masks} == {False, True}
        for m in masks:
            flags = bytes(m >> i & 1 for i in range(max(m.bit_length(), 1)))
            assert core_module._bit_flags(m) == flags
            assert core_module._image(m, table) == image_by_bits(m, table)
            selector = core_module._selector(m)
            assert selector == (flags if core_module._dense(m) else None)
            # through the selector of m, a sub-mask sums as the walk does
            # when the table is zero on the rest of m
            sub = m & rng.getrandbits(n)
            zeroed = [t if sub >> i & 1 else 0 for i, t in enumerate(table)]
            assert core_module._image(sub, zeroed, selector) == image_by_bits(sub, table)

    def test_long_path_validates_and_sorts(self, monkeypatch):
        # each walk below starts from an empty shared bit table, so each
        # must grow it to the graph's width itself
        ids = [f"v{i:04d}" for i in range(3000)]
        sparse = sum(1 << i for i in range(0, 3000, 97))
        assert not core_module._dense(sparse)
        for labels in (dict.fromkeys(ids, "x"), {v: v for v in ids}):
            g = LabeledDigraph(ids, labels, zip(ids, ids[1:]))
            monkeypatch.setattr(core_module, "_BIT", [])
            r = validate_properties(g)
            assert r.is_wso and r.is_acyclic and r.per_label_path
            assert not r.is_transitively_closed
            monkeypatch.setattr(core_module, "_BIT", [])
            assert topological_sort(g) == ids
            monkeypatch.setattr(core_module, "_BIT", [])
            assert score(g, g, NodeMatching(zip(ids, ids))) == len(ids) - 1
            monkeypatch.setattr(core_module, "_BIT", [])
            out = g.adjacency_masks[1]
            assert core_module._image(sparse, out) == image_by_bits(sparse, out) == sparse << 1

    def test_bit_table_grows_to_cover_every_width(self, monkeypatch):
        monkeypatch.setattr(core_module, "_BIT", [])
        start = core_module._BIT
        table = core_module._bit_table(1500)
        assert table is core_module._BIT and table == [1 << i for i in range(1500)]
        # a longer copy, so a table that a walk holds stays as it was
        assert start == []
        assert core_module._bit_table(10) is table
        wider = core_module._bit_table(2500)
        assert len(table) == 1500 and wider[:1500] == table and len(wider) == 2500
        assert wider[-1] == 1 << 2499


class TestBuildPoset:
    def test_chain_closure(self):
        p = build_poset_digraph(
            [("a", "x"), ("b", "x"), ("c", "x")], [("a", "b"), ("b", "c")]
        )
        assert set(p.graph.edges) == {("a", "b"), ("b", "c"), ("a", "c")}
        assert p.per_label_path

    def test_reflexive_pairs_stripped(self):
        p = build_poset_digraph(
            [("a", "x"), ("b", "x")], [("a", "a"), ("a", "b"), ("b", "b")]
        )
        assert p.graph.edges == (("a", "b"),)

    def test_antisymmetry_violation(self):
        with pytest.raises(AntisymmetryViolation):
            build_poset_digraph([("a", "x"), ("b", "x")], [("a", "b"), ("b", "a")])

    def test_cycle_caught_through_closure(self):
        with pytest.raises(AntisymmetryViolation):
            build_poset_digraph(
                [("a", "x"), ("b", "x"), ("c", "x")],
                [("a", "b"), ("b", "c"), ("c", "a")],
            )

    def test_no_edges_degenerate(self):
        with pytest.raises(DegeneratePoset):
            build_poset_digraph([("a", "x"), ("b", "x")], [])

    def test_disconnected_rejected(self):
        with pytest.raises(NotWeaklyConnected):
            build_poset_digraph(
                [("a", "x"), ("b", "x"), ("c", "x"), ("d", "x")],
                [("a", "b"), ("c", "d")],
            )

    def test_wrapper_revalidates(self):
        with pytest.raises(PropertyViolation):
            PosetDigraph(LabeledDigraph(("a",), {"a": "x"}, (("a", "a"),)))

    def test_wrapper_reports_an_edgeless_graph_as_degenerate(self):
        # no edges is checked before connectivity
        with pytest.raises(DegeneratePoset):
            PosetDigraph(LabeledDigraph(("a", "b"), dict.fromkeys("ab", "x"), ()))

    def test_reflexive_pair_on_an_undeclared_element_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            build_poset_digraph([("a", "x"), ("b", "x")], [("a", "b"), ("z", "z")])

    @pytest.mark.parametrize(
        "ids, relations, pair",
        [
            ("ab", ["ab", "ba"], "ab"),
            ("abc", ["ab", "bc", "ca"], "ab"),
            # p's smallest successor q does not reach back; s does
            ("pqrs", ["pq", "ps", "sp", "qr"], "ps"),
            # the first element on a cycle is d, not a
            ("dcba", ["ab", "ba", "cd", "dc"], "dc"),
            # x only leads into the cycle
            ("xab", ["xa", "ab", "ba"], "ab"),
            ("abcd", ["dc", "cb", "ba", "ad", "aa"], "ad"),
        ],
    )
    def test_antisymmetry_message_names_the_pinned_pair(self, ids, relations, pair):
        p, q = pair
        with pytest.raises(AntisymmetryViolation) as info:
            build_poset_digraph([(v, "x") for v in ids], relations)
        assert str(info.value) == f"{p!r} <= {q!r} and {q!r} <= {p!r}"

    @given(any_digraphs())
    def test_antisymmetry_pair_and_closure_by_definition(self, g):
        elements = [(v, g.node_labels[v]) for v in g.nodes]
        expected = antisymmetry_pair(g)
        try:
            p = build_poset_digraph(elements, g.edges)
        except AntisymmetryViolation as exc:
            a, b = expected
            assert str(exc) == f"{a!r} <= {b!r} and {b!r} <= {a!r}"
            return
        except (DegeneratePoset, NotWeaklyConnected):
            assert expected is None
            return
        assert expected is None
        assert p.graph.edges == tuple(sorted(bfs_closure_edges(g)))

    @given(shuffled_dags(), st.booleans(), st.data())
    def test_edges_match_networkx_closure(self, g, closed, data):
        # the relation as drawn, or already closed (as a closure file's
        # edges come), in shuffled order with reflexive pairs
        closure = transitive_closure(g)
        nodes = st.sampled_from(g.nodes) if g.nodes else st.nothing()
        loops = [(v, v) for v in data.draw(st.lists(nodes))]
        elements = [(v, g.node_labels[v]) for v in g.nodes]
        edges = closure.edges if closed else g.edges
        relations = data.draw(st.permutations([*edges, *loops]))
        expected = closure_by_networkx(g)
        if not expected:
            with pytest.raises(DegeneratePoset):
                build_poset_digraph(elements, relations)
        elif not report_by_networkx(g).is_weakly_connected:
            with pytest.raises(NotWeaklyConnected):
                build_poset_digraph(elements, relations)
        else:
            built = build_poset_digraph(elements, relations).graph
            assert list(built.edges) == expected
            assert built.edges == closure.edges

    @given(shuffled_dags(), st.booleans(), st.data())
    def test_a_closed_relation_is_skip_tested_once(self, g, loops, data):
        # the result of a closed relation takes the relation's skeleton and
        # in-masks; both equal those of the same graph built from its edges
        closure = transitive_closure(g)
        if not closure.edges or not closure.report.is_weakly_connected:
            return
        elements = [(v, g.node_labels[v]) for v in g.nodes]
        relations = data.draw(st.permutations(closure.edges))
        if loops:
            relations.append((g.nodes[0], g.nodes[0]))
        calls = []
        original = core_module._skip_skeleton

        def counted(out):
            calls.append(out)
            return original(out)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core_module, "_skip_skeleton", counted)
            built = build_poset_digraph(elements, relations).graph
        assert len(calls) == 1
        fresh = LabeledDigraph(built.nodes, built.node_labels, built.edges)
        assert built.adjacency_masks == fresh.adjacency_masks
        assert built.closed_dag is fresh.closed_dag is True
        assert built.report == fresh.report

    @given(loopfree_digraphs())
    def test_output_always_closed_and_acyclic(self, g):
        dag = dag_from(g)
        if not dag.edges:
            return
        try:
            p = build_poset_digraph(
                [(v, dag.node_labels[v]) for v in dag.nodes], dag.edges
            )
        except NotWeaklyConnected:
            return
        r = validate_properties(p.graph)
        assert r.is_acyclic and r.is_transitively_closed and r.is_wso


class TestStructureAndLineGraph:
    def test_diamond_structure_is_four_cycle(self):
        s = structure(diamond_graph())
        assert set(s.edges) == {("u", "v"), ("u", "x"), ("v", "w"), ("w", "x")}

    def test_structure_rejects_two_cycle(self):
        g = LabeledDigraph(("a", "b"), {"a": "x", "b": "x"}, (("a", "b"), ("b", "a")))
        with pytest.raises(PropertyViolation):
            structure(g)

    def test_line_graph_of_path(self):
        p3 = UndirectedGraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
        lg = line_graph(p3)
        assert lg.nodes == (("a", "b"), ("b", "c"))
        assert lg.edges == ((("a", "b"), ("b", "c")),)

    @given(shuffled_undirected())
    def test_line_graph_matches_networkx(self, ug):
        lg = line_graph(ug)
        assert (list(lg.nodes), list(lg.edges)) == line_graph_by_networkx(ug)

    def test_line_graphs_of_star_and_triangle_coincide(self):
        y = UndirectedGraph("cabd", (("c", "a"), ("c", "b"), ("c", "d")))
        tri = UndirectedGraph("abc", (("a", "b"), ("b", "c"), ("a", "c")))
        ly, lt = line_graph(y), line_graph(tri)
        assert len(ly.nodes) == len(lt.nodes) == 3
        assert len(ly.edges) == len(lt.edges) == 3


class TestOrderUtilities:
    def test_predecessors_full_reachability(self):
        g = LabeledDigraph(
            ("a", "b", "c"), dict.fromkeys("abc", "x"), (("a", "b"), ("b", "c"))
        )
        assert predecessors(g, "c") == {"a", "b"}
        assert predecessors(g, "a") == frozenset()
        with pytest.raises(ValueError):
            predecessors(g, "zz")

    def test_topological_sort_deterministic_tie_break(self):
        g = LabeledDigraph(
            ("z", "m", "a"), dict.fromkeys("zma", "x"), (("z", "a"), ("m", "a"))
        )
        assert topological_sort(g) == ["m", "z", "a"]

    def test_topological_sort_respects_edges(self):
        g = dag_from(diamond_graph())
        order = {v: i for i, v in enumerate(topological_sort(g))}
        assert all(order[u] < order[v] for u, v in g.edges)

    @given(any_digraphs())
    @example(LabeledDigraph(("a", "b"), dict.fromkeys("ab", "x"), (("a", "b"), ("b", "a"))))
    @example(LabeledDigraph(("a", "b"), dict.fromkeys("ab", "x"), (("a", "a"), ("a", "b"))))
    def test_predecessors_match_networkx(self, g):
        # cycles and self-loops included: v is never its own predecessor
        for v in g.nodes:
            assert predecessors(g, v) == ancestors_by_networkx(g, v)

    @given(shuffled_dags())
    def test_topological_sort_matches_networkx(self, g):
        assert topological_sort(g) == topological_order_by_networkx(g)

    @given(shuffled_dags(), st.data())
    def test_search_order_is_topological_on_closed_dags(self, g, data):
        # the order filter and alg3's dead-image cut rest on this: on a
        # closed DAG in shuffled node order, every edge goes forward in the
        # order of the search rows, and each label's candidates follow it
        labels = {v: data.draw(st.sampled_from("xyz")) for v in g.nodes}
        closed = LabeledDigraph(g.nodes, labels, transitive_closure(g).edges)
        order = [row[0] for row in closed.search_rows]
        assert sorted(order) == list(range(len(g.nodes)))
        rank = dict(zip(map(closed.nodes.__getitem__, order), itertools.count()))
        assert all(rank[u] < rank[v] for u, v in closed.edges)
        label = [labels[closed.nodes[m]] for m in order]
        assert closed.candidates == {
            a: (*(m for m, b in zip(order, label) if b == a), -1) for a in set(labels.values())
        }

    def test_order_is_computed_once_per_graph(self, monkeypatch):
        passes = []
        kahn = core_module._smallest_first_order
        monkeypatch.setattr(
            core_module, "_smallest_first_order", lambda g: passes.append(g) or kahn(g)
        )
        g = dag_from(diamond_graph())
        first = topological_sort(g)
        first.reverse()  # the caller's list is its own
        assert topological_sort(g) == topological_order_by_networkx(g)
        assert g.topological_order == tuple(topological_order_by_networkx(g))
        assert passes == [g]

    def test_cycle_detected_on_every_call(self):
        g = triangle("cyclic")
        for _ in range(3):
            with pytest.raises(CycleDetected, match="^graph contains a directed cycle$"):
                topological_sort(g)
        assert "topological_order" not in vars(g)

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            topological_sort(triangle("cyclic"))
        loop = LabeledDigraph(("a", "b"), dict.fromkeys("ab", "x"), (("a", "a"),))
        with pytest.raises(CycleDetected):
            topological_sort(loop)
        for g in (triangle("cyclic"), loop):
            with pytest.raises(
                CycleDetected, match="^transitive closure requires an acyclic graph$"
            ):
                transitive_closure(g)
            with pytest.raises(
                CycleDetected, match="^transitive reduction requires an acyclic graph$"
            ):
                transitive_reduction(g)

    @given(loopfree_digraphs())
    def test_closure_matches_reachability_oracle(self, g):
        dag = dag_from(g)
        assert set(transitive_closure(dag).edges) == bfs_closure_edges(dag)

    @given(shuffled_dags(), st.data())
    def test_closure_and_reduction_match_networkx(self, g, data):
        closed = transitive_closure(g)
        assert list(closed.edges) == closure_by_networkx(g)
        assert list(transitive_reduction(g).edges) == reduction_by_networkx(g)
        assert list(transitive_reduction(closed).edges) == reduction_by_networkx(closed)
        # a closure built from its edges in shuffled order: both operations
        # read its out-masks as its descendants
        given_closed = LabeledDigraph(
            g.nodes, g.node_labels, data.draw(st.permutations(closed.edges))
        )
        assert given_closed.closed_dag
        assert list(transitive_closure(given_closed).edges) == closure_by_networkx(g)
        assert list(transitive_reduction(given_closed).edges) == reduction_by_networkx(g)

    @given(loopfree_digraphs())
    def test_closure_idempotent_and_reduction_inverts(self, g):
        dag = dag_from(g)
        closed = transitive_closure(dag)
        assert transitive_closure(closed).edges == closed.edges
        reduced = transitive_reduction(closed)
        assert set(reduced.edges) <= set(closed.edges)
        assert transitive_closure(reduced).edges == closed.edges

    def test_induced_subgraph(self):
        g = diamond_graph()
        sub = induced_subgraph(g, ["u", "v", "w"])
        assert sub.nodes == ("u", "v", "w")
        assert set(sub.edges) == {("u", "v"), ("v", "w")}


def test_equal_closures_compare_equal():
    # same reachability through different explicit edge orderings
    a = transitive_closure(
        LabeledDigraph(
            ("a", "b", "c"), dict.fromkeys("abc", "x"), (("a", "b"), ("b", "c"))
        )
    )
    b = transitive_closure(
        LabeledDigraph(
            ("a", "b", "c"),
            dict.fromkeys("abc", "x"),
            (("a", "c"), ("b", "c"), ("a", "b")),
        )
    )
    assert a == b and hash(a) == hash(b)


def test_property_report_is_wso_summary():
    assert validate_properties(diamond_graph()).is_wso
    for bad in (
        LabeledDigraph(("a",), {"a": "x"}, (("a", "a"),)),
        LabeledDigraph(("a", "b"), dict.fromkeys("ab", "x"), ()),
    ):
        assert not validate_properties(bad).is_wso


def test_every_pair_of_distinct_three_node_dags_validated():
    # exhaustive: every digraph on 3 nodes, self-loops included, under one
    # shared label and under two labels, agrees with the networkx oracle
    ids = ("a", "b", "c")
    pool = [(u, v) for u, v in itertools.product(ids, ids)]
    for labels in ("xxx", "xxy"):
        node_labels = dict(zip(ids, labels))
        for mask in range(2 ** len(pool)):
            edges = [e for i, e in enumerate(pool) if mask >> i & 1]
            g = LabeledDigraph(ids, node_labels, edges)
            assert validate_properties(g) == report_by_networkx(g), edges
