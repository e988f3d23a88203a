"""Backtracking isomorphism search against a permutation oracle."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posetdist import (
    Bijection,
    KindMismatch,
    LabeledDigraph,
    UndirectedGraph,
    build_poset_digraph,
    eld_structure,
    extended_line_digraph,
    find_isomorphism,
    is_label_respecting,
)
from conftest import chain_pair, deep_path, diamond_graph, raw_digraphs, star
from oracles import perm_isomorphic


def permuted(g: LabeledDigraph, shift: int) -> LabeledDigraph:
    ids = list(g.nodes)
    rotated = ids[shift % len(ids):] + ids[: shift % len(ids)]
    return g.relabel(dict(zip(ids, (f"p{v}" for v in rotated))))


def assert_valid_iso(phi: Bijection, g: LabeledDigraph, g2: LabeledDigraph):
    m = phi.as_dict()
    assert sorted(m) == sorted(g.nodes)
    assert sorted(m.values()) == sorted(g2.nodes)
    assert all(g.node_labels[v] == g2.node_labels[m[v]] for v in g.nodes)
    assert {(m[u], m[v]) for u, v in g.edges} == set(g2.edges)


class TestBasics:
    def test_identity_on_itself(self):
        g = diamond_graph()
        phi = find_isomorphism(g, g)
        assert phi is not None
        assert phi.as_dict() == {v: v for v in g.nodes}

    def test_star_vs_triangle_undirected(self):
        y = UndirectedGraph("cabd", (("c", "a"), ("c", "b"), ("c", "d")))
        tri = UndirectedGraph("abc", (("a", "b"), ("b", "c"), ("a", "c")))
        assert find_isomorphism(y, tri) is None

    def test_kind_mismatch(self):
        g = diamond_graph()
        with pytest.raises(KindMismatch):
            find_isomorphism(g, UndirectedGraph(("a",), ()))
        with pytest.raises(KindMismatch):
            find_isomorphism(extended_line_digraph(g), g)
        with pytest.raises(KindMismatch, match="unsupported"):
            find_isomorphism(object(), object())

    def test_a_poset_and_a_plain_digraph_are_one_kind(self):
        # a poset is an instance of the plain type, so they compare either
        # way round; an object with no edge labels is refused on either side
        p = build_poset_digraph([("a", "x"), ("b", "x")], [("a", "b")])
        g = LabeledDigraph(p.nodes, p.node_labels, p.edges)
        assert find_isomorphism(p, g).as_dict() == {"a": "a", "b": "b"}
        assert find_isomorphism(g, p).as_dict() == {"a": "a", "b": "b"}
        with pytest.raises(KindMismatch, match="^cannot compare ExtendedLineDigraph"):
            find_isomorphism(extended_line_digraph(p), p)
        for pair in ((g, object()), (object(), p)):
            with pytest.raises(KindMismatch, match="^unsupported graph type object$"):
                find_isomorphism(*pair)

    def test_label_blocks_structure_match(self):
        g = LabeledDigraph(("a", "b"), {"a": "x", "b": "y"}, (("a", "b"),))
        h = LabeledDigraph(("c", "d"), {"c": "y", "d": "x"}, (("c", "d"),))
        assert find_isomorphism(g, h) is None

    def test_witness_is_lexicographically_smallest(self):
        g = LabeledDigraph(("a", "b"), dict.fromkeys("ab", "x"), ())
        h = LabeledDigraph(("d", "c"), dict.fromkeys("cd", "x"), ())
        phi = find_isomorphism(g, h)
        assert phi.pairs == (("a", "c"), ("b", "d"))

    def test_deterministic(self):
        g, h = diamond_graph(), permuted(diamond_graph(), 2)
        assert find_isomorphism(g, h) == find_isomorphism(g, h)

    def test_path_deeper_than_the_recursion_limit(self):
        g = deep_path()
        phi = find_isomorphism(g, g)
        assert phi.pairs == tuple(zip(g.nodes, g.nodes))


class TestEdgeLabelSensitivity:
    def test_relationship_labels_distinguish_star_orientations(self):
        eld_in = extended_line_digraph(star("all_in"))
        eld_out = extended_line_digraph(star("all_out"))
        assert find_isomorphism(eld_in, eld_out) is None
        assert find_isomorphism(eld_structure(eld_in), eld_structure(eld_out)) is not None

    def test_eld_self_isomorphism(self):
        eld = extended_line_digraph(diamond_graph())
        assert find_isomorphism(eld, eld) is not None


class TestAgainstOracle:
    @given(raw_digraphs(max_nodes=5), raw_digraphs(max_nodes=5))
    def test_random_pairs_agree_with_permutation_scan(self, g, g2):
        assert (find_isomorphism(g, g2) is not None) == perm_isomorphic(g, g2)

    @given(raw_digraphs(max_nodes=6), st.integers(0, 5))
    def test_forced_isomorphic_pairs_found(self, g, shift):
        h = permuted(g, shift)
        phi = find_isomorphism(g, h)
        assert phi is not None
        assert_valid_iso(phi, g, h)

    @given(raw_digraphs(max_nodes=6), st.integers(0, 5))
    def test_witness_is_the_first_isomorphism_in_lexicographic_order(self, g, shift):
        h = permuted(g, shift)
        order = sorted(g.nodes)
        edges = set(h.edges)
        first = next(
            images
            for images in itertools.permutations(sorted(h.nodes))
            if all(g.node_labels[v] == h.node_labels[w] for v, w in zip(order, images))
            and {(images[order.index(u)], images[order.index(v)]) for u, v in g.edges}
            == edges
        )
        assert find_isomorphism(g, h).pairs == tuple(zip(order, first))

    @given(raw_digraphs(max_nodes=5), raw_digraphs(max_nodes=5))
    def test_success_is_symmetric(self, g, g2):
        assert (find_isomorphism(g, g2) is not None) == (
            find_isomorphism(g2, g) is not None
        )

    @given(raw_digraphs(max_nodes=6), st.integers(0, 4), st.integers(0, 4))
    def test_composition_respects_labels(self, g, s1, s2):
        h = permuted(g, s1)
        k = permuted(h, s2)
        phi = find_isomorphism(g, h).as_dict()
        psi = find_isomorphism(h, k).as_dict()
        composed = Bijection(tuple((v, psi[phi[v]]) for v in sorted(g.nodes)))
        assert is_label_respecting(composed, g, k)


class TestIsLabelRespecting:
    def test_identity_true(self):
        g = diamond_graph()
        ident = Bijection(tuple((v, v) for v in g.nodes))
        assert is_label_respecting(ident, g, g)

    def test_label_mismatch_false(self):
        g = LabeledDigraph(("a", "b"), {"a": "x", "b": "y"}, (("a", "b"),))
        h = LabeledDigraph(("c", "d"), {"c": "y", "d": "x"}, (("c", "d"),))
        assert not is_label_respecting(Bijection((("a", "c"), ("b", "d"))), g, h)

    def test_clique_correspondence_is_label_respecting(self):
        g, g2 = chain_pair()
        phi = Bijection((("u", "u'"), ("v", "v'"), ("w", "w'")))
        assert is_label_respecting(phi, g, g2)

    def test_partial_map_rejected(self):
        g = diamond_graph()
        with pytest.raises(ValueError):
            is_label_respecting(Bijection((("u", "u"),)), g, g)
