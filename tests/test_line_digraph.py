"""Extended line digraph construction and its structural guarantees."""

import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import given

from posetdist import (
    HH,
    HT,
    TT,
    ExtendedLineDigraph,
    KINDS,
    LabeledDigraph,
    NotSimple,
    build_poset_digraph,
    eld_structure,
    extended_line_digraph,
    find_isomorphism,
    structure_commutes,
)
from conftest import diamond_graph, loopfree_digraphs, seeded_graphs, star, triangle
from oracles import arcs_by_definition


class TestDiamondExample:
    """The worked four-node example: u -> v -> w, u -> x -> w."""

    def test_exact_nodes_and_labels(self):
        eld = extended_line_digraph(diamond_graph())
        assert eld.nodes == (("u", "v"), ("u", "x"), ("v", "w"), ("x", "w"))
        assert eld.node_labels[("u", "v")] == ("a", "a")

    def test_exact_labeled_edges(self):
        eld = extended_line_digraph(diamond_graph())
        assert set(eld.labeled_edges) == {
            (("u", "v"), ("v", "w"), HT),
            (("u", "x"), ("x", "w"), HT),
            (("u", "v"), ("u", "x"), TT),
            (("u", "x"), ("u", "v"), TT),
            (("v", "w"), ("x", "w"), HH),
            (("x", "w"), ("v", "w"), HH),
        }
        assert eld.relationship_counts == {HT: 2, TT: 2, HH: 2}

    def test_edge_label_map(self):
        eld = extended_line_digraph(diamond_graph())
        assert eld.edge_label_map[(("u", "v"), ("v", "w"))] == HT
        assert (("v", "w"), ("u", "v")) not in eld.edge_label_map


# Edge-relationship multisets of the six orientations of the triangle and
# the three-leaf star, each checked against a hand enumeration of the
# shared-endpoint rule.
ORIENTATION_COUNTS = {
    ("triangle", "cyclic"): {HT: 3, TT: 0, HH: 0},
    ("triangle", "acyclic"): {HT: 1, TT: 2, HH: 2},
    ("star", "all_in"): {HT: 0, TT: 0, HH: 6},
    ("star", "all_out"): {HT: 0, TT: 6, HH: 0},
    ("star", "two_in_one_out"): {HT: 2, TT: 0, HH: 2},
    ("star", "one_in_two_out"): {HT: 2, TT: 2, HH: 0},
}


def orientation(shape: str, name: str) -> LabeledDigraph:
    return triangle(name) if shape == "triangle" else star(name)


class TestTriangleAndStarOrientations:
    @pytest.mark.parametrize("shape,name", sorted(ORIENTATION_COUNTS))
    def test_relationship_multisets(self, shape, name):
        eld = extended_line_digraph(orientation(shape, name))
        assert eld.relationship_counts == ORIENTATION_COUNTS[(shape, name)]

    def test_cyclic_triangle_eld_is_directed_three_cycle(self):
        eld = extended_line_digraph(triangle("cyclic"))
        heads = {e: f for e, f, _ in eld.labeled_edges}
        assert len(heads) == 3
        start = eld.nodes[0]
        assert heads[heads[heads[start]]] == start

    def test_no_star_eld_isomorphic_to_a_triangle_eld(self):
        stars = [
            extended_line_digraph(star(k))
            for k in ("all_in", "all_out", "two_in_one_out", "one_in_two_out")
        ]
        tris = [extended_line_digraph(triangle(k)) for k in ("cyclic", "acyclic")]
        for s in stars:
            for t in tris:
                assert find_isomorphism(s, t) is None


class TestInputChecking:
    def test_self_loop_rejected(self):
        g = LabeledDigraph(("a",), {"a": "x"}, (("a", "a"),))
        with pytest.raises(NotSimple):
            extended_line_digraph(g)

    def test_two_cycle_warns_and_builds_double_ht(self):
        g = LabeledDigraph(("a", "b"), {"a": "x", "b": "x"}, (("a", "b"), ("b", "a")))
        with pytest.warns(UserWarning, match="not oriented"):
            eld = extended_line_digraph(g)
        assert eld.relationship_counts == {HT: 2, TT: 0, HH: 0}

    def test_oriented_input_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            extended_line_digraph(diamond_graph())

    @given(loopfree_digraphs(max_nodes=5))
    def test_the_build_reads_no_structural_report(self, g):
        # both flags come off the masks; the source graph caches no report
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eld = extended_line_digraph(g)
        assert "report" not in vars(g)
        assert (eld.source is g) == g.report.is_oriented


class TestProperties:
    def test_single_edge_gives_one_isolated_node(self):
        g = LabeledDigraph(("a", "b"), {"a": "x", "b": "y"}, (("a", "b"),))
        eld = extended_line_digraph(g)
        assert eld.nodes == (("a", "b"),)
        assert eld.node_labels[("a", "b")] == ("x", "y")
        assert eld.labeled_edges == ()

    @given(seeded_graphs("wso"))
    def test_node_count_is_source_edge_count(self, g):
        eld = extended_line_digraph(g)
        assert len(eld.nodes) == len(g.edges)
        assert set(eld.node_labels) == set(g.edges)

    @given(seeded_graphs("wso"))
    def test_tt_and_hh_come_in_mirrored_pairs(self, g):
        eld = extended_line_digraph(g)
        for e, f, rel in eld.labeled_edges:
            if rel in (TT, HH):
                assert eld.edge_label_map[(f, e)] == rel

    @given(seeded_graphs("wso"))
    def test_at_most_one_relationship_per_unordered_pair(self, g):
        eld = extended_line_digraph(g)
        rels: dict[frozenset, set] = {}
        for e, f, rel in eld.labeled_edges:
            rels.setdefault(frozenset((e, f)), set()).add(rel)
        assert all(len(kinds) == 1 for kinds in rels.values())

    @given(seeded_graphs("wso", max_nodes=6))
    def test_structure_commutes_with_line_graph(self, g):
        assert structure_commutes(g)

    @given(st.one_of(*(seeded_graphs(kind) for kind in KINDS)))
    def test_node_labels_are_the_endpoint_labels_in_edge_order(self, g):
        # one (tail label, head label) per edge, the one derivation of it
        labels = g.endpoint_labels
        assert len(labels) == len(g.edges)
        assert labels == tuple((g.node_labels[u], g.node_labels[v]) for u, v in g.edges)
        assert labels == tuple(extended_line_digraph(g).node_labels.values())

    def test_a_poset_is_built_from_its_digraph(self):
        p = build_poset_digraph(
            [("a", "x"), ("b", "x"), ("c", "y")], [("a", "b"), ("b", "c")]
        )
        eld = extended_line_digraph(p)
        assert eld == extended_line_digraph(LabeledDigraph(p.nodes, p.node_labels, p.edges))
        assert eld.source is p

    def test_eld_structure_drops_directions(self):
        s = eld_structure(extended_line_digraph(diamond_graph()))
        assert len(s.nodes) == 4 and len(s.edges) == 4


class TestArcsOnFirstRead:
    def test_no_arc_is_built_up_front(self):
        eld = extended_line_digraph(diamond_graph())
        assert "labeled_edges" not in vars(eld)
        assert len(eld.labeled_edges) == 6
        assert "labeled_edges" in vars(eld)

    @given(loopfree_digraphs(max_nodes=5))
    def test_arcs_match_the_definition(self, g):
        # 2-cycles included: the arcs are read off the nodes alone
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eld = extended_line_digraph(g)
        assert len(eld.labeled_edges) == len(set(eld.labeled_edges))
        assert set(eld.labeled_edges) == arcs_by_definition(g)

    def test_equal_to_the_line_digraph_of_a_copy(self):
        g = diamond_graph()
        copy = LabeledDigraph(tuple(g.nodes), dict(g.node_labels), tuple(g.edges))
        eld, eld2 = extended_line_digraph(g), extended_line_digraph(copy)
        assert eld.source is g and eld2.source is copy
        eld.labeled_edges  # built on one side only
        assert eld == eld2
        # the source takes no part in equality
        assert eld == ExtendedLineDigraph(eld.nodes, dict(eld.node_labels))
