"""Compatibility graphs, exact maximum clique, and the clique route."""

import hashlib
import itertools
import sys
import warnings
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import posetdist.clique as clique_module
import posetdist.core as core_module
from posetdist import (
    KindMismatch,
    LabeledDigraph,
    PropertyViolation,
    Solver,
    UndirectedGraph,
    compatibility_graph,
    d_e,
    d_n,
    dmces_bruteforce,
    dmces_via_clique,
    extended_line_digraph,
    matched_edges,
    max_clique,
    mcis,
    mcis_size,
)
from posetdist.bench import seeded_pair
from conftest import (
    chain_pair,
    diamond_graph,
    loopfree_digraphs,
    raw_digraphs,
    seeded_graphs,
    undirected_graphs,
)
from oracles import color_order, compatibility_edges_by_definition, subset_max_clique


def _quiet_eld(g):
    """The extended line digraph, 2-cycles allowed (they only warn)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return extended_line_digraph(g)


# Pairs of one graph type: labeled digraphs with self-loops and 2-cycles,
# undirected graphs, and extended line digraphs of digraphs with 2-cycles.
same_type_pairs = st.one_of(
    st.tuples(raw_digraphs(max_nodes=5), raw_digraphs(max_nodes=5)),
    st.tuples(undirected_graphs(max_nodes=6), undirected_graphs(max_nodes=6)),
    st.tuples(
        st.builds(_quiet_eld, loopfree_digraphs(max_nodes=4)),
        st.builds(_quiet_eld, loopfree_digraphs(max_nodes=4)),
    ),
)


# a -> a, a -> b against c -> d, all one label: a carries a self-loop that
# nothing on the other side can match.
def self_loop_pair() -> tuple[LabeledDigraph, LabeledDigraph]:
    g = LabeledDigraph(("a", "b"), {"a": "x", "b": "x"}, (("a", "a"), ("a", "b")))
    h = LabeledDigraph(("c", "d"), {"c": "x", "d": "x"}, (("c", "d"),))
    return g, h


class TestCompatibilityFigure:
    """The worked example: a three-node chain closure against its primed
    copy gives a five-node, five-edge compatibility graph whose unique
    largest clique is the identity correspondence."""

    def test_nodes(self):
        comp = compatibility_graph(*chain_pair())
        assert set(comp.pair_index) == {
            ("u", "u'"),
            ("u", "v'"),
            ("v", "u'"),
            ("v", "v'"),
            ("w", "w'"),
        }
        assert len(comp.graph.nodes) == 5

    def test_edges(self):
        comp = compatibility_graph(*chain_pair())
        as_pairs = {
            tuple(sorted((comp.pair(i), comp.pair(j)))) for i, j in comp.graph.edges
        }
        assert as_pairs == {
            tuple(sorted((("w", "w'"), ("u", "u'")))),
            tuple(sorted((("w", "w'"), ("u", "v'")))),
            tuple(sorted((("w", "w'"), ("v", "u'")))),
            tuple(sorted((("w", "w'"), ("v", "v'")))),
            tuple(sorted((("u", "u'"), ("v", "v'")))),
        }

    def test_clique_and_mcis(self):
        g, g2 = chain_pair()
        comp = compatibility_graph(g, g2)
        clique = max_clique(comp.graph)
        assert {comp.pair(i) for i in clique} == {
            ("u", "u'"),
            ("v", "v'"),
            ("w", "w'"),
        }
        size, pairs = mcis(g, g2)
        assert size == 3
        assert pairs == frozenset({("u", "u'"), ("v", "v'"), ("w", "w'")})


class TestCompatibilityConstruction:
    def test_shared_coordinates_never_adjacent(self):
        g, g2 = chain_pair()
        comp = compatibility_graph(g, g2)
        for i, j in comp.graph.edges:
            (n, n2), (m, m2) = comp.pair(i), comp.pair(j)
            assert n != m and n2 != m2

    def test_label_mismatch_produces_no_pair(self):
        g = LabeledDigraph(("a",), {"a": "x"}, ())
        h = LabeledDigraph(("b",), {"b": "y"}, ())
        assert compatibility_graph(g, h).pair_index == ()

    def test_twisted_pairs_not_adjacent(self):
        # (u, v') with (v, u') would map an edge onto its reversal
        comp = compatibility_graph(*chain_pair())
        idx = {p: i for i, p in enumerate(comp.pair_index)}
        assert not comp.graph.has_edge(idx[("u", "v'")], idx[("v", "u'")])

    def test_self_loops_must_agree(self):
        g, h = self_loop_pair()
        assert compatibility_graph(g, h).pair_index == (("b", "c"), ("b", "d"))
        assert compatibility_graph(g, g).pair_index == (("a", "a"), ("b", "b"))

    @given(same_type_pairs)
    def test_matches_pairwise_definition(self, pair):
        comp = compatibility_graph(*pair)
        pairs, edges = compatibility_edges_by_definition(*pair)
        assert comp.pair_index == tuple(pairs)
        assert comp.graph.edges == tuple(edges)

    @given(same_type_pairs)
    def test_search_on_masks_equals_search_on_graph(self, pair):
        comp = compatibility_graph(*pair)
        assert max_clique(comp) == max_clique(comp.graph)

    @given(same_type_pairs)
    def test_bound_is_the_screening_bound_of_the_vertex_classes(self, pair):
        # per (label, self-loop label): the smaller of the two class sizes
        first, second = (
            [(h.node_labels[n], h.edge_label_map.get((n, n), "no loop")) for n in h.nodes]
            for h in pair
        )
        comp = compatibility_graph(*pair)
        assert comp.bound == sum(min(first.count(k), second.count(k)) for k in set(first))
        assert len(max_clique(comp)) <= comp.bound <= len(comp.pair_index)

    def test_bound_takes_no_part_in_equality_or_repr(self):
        comp = compatibility_graph(*self_loop_pair())
        plain = clique_module.CompatibilityGraph(comp.pair_index, comp.adjacency)
        assert (comp.bound, plain.bound) == (1, 2)
        assert comp == plain and repr(comp) == repr(plain)


class TestMaxClique:
    def test_empty_graph(self):
        assert max_clique(UndirectedGraph((), ())) == frozenset()

    def test_complete_graph(self):
        # the larger clique is deeper than the interpreter's recursion limit
        for n in (5, sys.getrecursionlimit() + 100):
            nodes = tuple(range(n))
            g = UndirectedGraph(nodes, tuple(itertools.combinations(nodes, 2)))
            assert max_clique(g) == frozenset(nodes)

    def test_lexicographically_smallest_witness(self):
        # two disjoint triangles; the one on smaller ids wins
        g = UndirectedGraph(
            range(6),
            ((3, 4), (4, 5), (3, 5), (0, 1), (1, 2), (0, 2)),
        )
        assert max_clique(g) == frozenset({0, 1, 2})

    # the witness search must look past the first branch of each existence
    # test here: stopping after it gives {1, 2, 6, 7}, not {0, 1, 5, 7}
    @example(
        UndirectedGraph(
            range(9),
            (
                (0, 1), (0, 3), (0, 5), (0, 6), (0, 7), (0, 8), (1, 2),
                (1, 5), (1, 6), (1, 7), (2, 3), (2, 6), (2, 7), (3, 4),
                (3, 7), (3, 8), (4, 6), (4, 7), (5, 7), (5, 8), (6, 7),
            ),
        )
    )
    # the size phase finds {1, 3, 5}, but the witness starts at 0, so the
    # clique it holds must switch to {0, 2, 4}: keeping {1, 3, 5} would
    # take 1 next and return {0, 1}
    @example(
        UndirectedGraph(
            range(6), ((0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 4), (3, 5))
        )
    )
    @given(undirected_graphs())
    def test_matches_subset_enumeration_oracle(self, g):
        # the witness too: the lexicographically smallest maximum clique
        assert max_clique(g) == subset_max_clique(g)

    def test_a_known_clique_among_more_than_1024_vertices(self):
        # a 1 100-cycle with a 5-clique planted on vertices 10 apart, so no
        # cycle edge joins two of them: the planted clique is the only
        # clique past an edge.  The search's bit table and its relabel (two
        # transpose bands) must cover every vertex
        n, planted = 1100, range(1030, 1080, 10)
        cycle = ((v, (v + 1) % n) for v in range(n))
        g = UndirectedGraph(range(n), (*cycle, *itertools.combinations(planted, 2)))
        assert max_clique(g) == frozenset(planted)
        assert sorted(clique_module._some_max_clique(g)) == list(planted)

    @given(undirected_graphs())
    def test_the_size_phase_clique_is_a_maximum_clique(self, g):
        # any maximum clique, not the canonical one: no witness walk
        clique = clique_module._some_max_clique(g)
        assert len(clique) == len(set(clique)) == len(subset_max_clique(g))
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(clique, 2))

    @given(undirected_graphs(max_nodes=7))
    def test_deterministic_witness_stable(self, g):
        assert max_clique(g) == max_clique(g)

    @given(undirected_graphs(), st.data())
    def test_relabel_is_an_isomorphism(self, g, data):
        adj, n = g.adjacency, len(g.nodes)
        degrees = [mask.bit_count() for mask in adj]
        by_degree = sorted(range(n), key=degrees.__getitem__, reverse=True)
        shuffled = data.draw(st.permutations(range(n)))
        for order in (by_degree, shuffled):
            new = core_module._transpose(adj, order)
            assert len(new) == n
            assert all(
                (new[p] >> q & 1) == (adj[order[p]] >> order[q] & 1)
                for p in range(n)
                for q in range(n)
            )
            assert all(mask >> n == 0 for mask in new)

    @pytest.mark.parametrize("adj", [(), (0,)], ids=["empty", "one-vertex"])
    def test_relabel_of_tiny_graphs(self, adj):
        assert core_module._transpose(adj, list(range(len(adj)))) == adj

    @given(undirected_graphs())
    def test_ids_in_reverse_degree_order(self, g):
        # node order by increasing degree, so the relabel reverses it and
        # the witness must be read back through every position
        degree = dict(zip(g.nodes, (mask.bit_count() for mask in g.adjacency)))
        reordered = UndirectedGraph(sorted(g.nodes, key=degree.__getitem__), g.edges)
        assert max_clique(reordered) == subset_max_clique(reordered)

    @given(undirected_graphs())
    def test_adjacency_is_symmetric_and_matches_edges(self, g):
        adj = g.adjacency
        as_edges = {
            (g.nodes[i], g.nodes[j])
            for i in range(len(g.nodes))
            for j in range(i + 1, len(g.nodes))
            if adj[i] >> j & 1
        }
        assert as_edges == set(g.edges)
        assert all(
            (adj[i] >> j & 1) == (adj[j] >> i & 1)
            for i in range(len(g.nodes))
            for j in range(len(g.nodes))
        )
        assert not any(adj[i] >> i & 1 for i in range(len(g.nodes)))


def _complements(adj: tuple[int, ...]) -> tuple[int, ...]:
    """The masks of the vertices outside each closed neighbourhood."""
    full = (1 << len(adj)) - 1
    return tuple(full & ~(mask | 1 << v) for v, mask in enumerate(adj))


def _search(g: UndirectedGraph, cand: int, incumbent: tuple, stop: int) -> tuple:
    adj = g.adjacency
    bit = [1 << v for v in range(len(adj))]
    return clique_module._search(adj, _complements(adj), bit, cand, incumbent, stop)


def _mirror(mask: int, n: int) -> int:
    """``mask`` with bit ``v`` moved to bit ``n - 1 - v``, for ``v < n``."""
    return sum(1 << n - 1 - v for v in range(n) if mask >> v & 1)


def _mirrored(g: UndirectedGraph) -> UndirectedGraph:
    """``g`` on ``range(n)`` with vertex ``v`` renamed ``n - 1 - v``.  The
    clique kernel takes the highest vertex where the lowest-first search
    it mirrors takes the lowest, so on the mirrored graph it must meet the
    same classes, branches and cliques, mirrored."""
    n = len(g.nodes)
    return UndirectedGraph(range(n), ((n - 1 - a, n - 1 - b) for a, b in g.edges))


# a 5-cycle: no triangle, and three colors
FIVE_CYCLE = UndirectedGraph(range(5), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))


class TestColorClasses:
    @given(undirected_graphs(), st.data())
    def test_classes_are_the_colors_above_the_floor(self, g, data):
        # the kernel colors the mirrored graph highest first; mirrored
        # back, its classes are the lowest-first colors of the oracle
        n = len(g.nodes)
        cand = data.draw(st.integers(0, (1 << n) - 1))
        floor = data.draw(st.integers(-1, n + 1))
        adj = _mirrored(g).adjacency
        bit = [1 << v for v in range(n)]
        top, classes = clique_module._color_classes(
            _complements(adj), bit, _mirror(cand, n), floor
        )
        order = color_order(g.adjacency, cand)
        colors = max((color for _, color in order), default=0)
        by_color = [
            sum(1 << v for v, c in order if c == color) for color in range(1, colors + 1)
        ]
        assert top == colors
        # the colors above the floor in color order, and nothing at or below it
        assert [_mirror(cls, n) for cls in classes] == by_color[max(floor, 0) :]
        # disjoint independent sets of candidates, none of them empty
        seen = 0
        for cls in classes:
            assert cls and not cls & seen and not cls & ~_mirror(cand, n)
            assert not any(adj[v] & cls for v in range(n) if cls >> v & 1)
            seen |= cls


class TestSearch:
    @pytest.mark.parametrize("mask", [0b11, 0, 0b10101], ids=["edge", "empty", "foreign"])
    def test_an_unbeaten_incumbent_comes_back_unchanged(self, mask):
        # the mask is returned as given, even when it is no clique of cand
        mirrored = _mirror(mask, 5)
        assert _search(_mirrored(FIVE_CYCLE), 0b11111, (2, mirrored), 5) == (2, mirrored)

    @given(undirected_graphs(), st.data())
    def test_incumbent_of_the_largest_size_comes_back_unchanged(self, g, data):
        n = len(g.nodes)
        g = _mirrored(g)
        cand = data.draw(st.integers(0, (1 << n) - 1))
        inside = UndirectedGraph(
            [v for v in g.nodes if cand >> v & 1],
            [(a, b) for a, b in g.edges if cand >> a & 1 and cand >> b & 1],
        )
        largest = len(subset_max_clique(inside))
        foreign = 1 << n  # no vertex of g: the search must not touch it
        assert _search(g, cand, (largest, foreign), n) == (largest, foreign)
        size, clique = _search(g, cand, (largest - 1, foreign), n)
        assert size == largest == clique.bit_count()
        assert not clique & ~cand
        assert all(
            not clique & ~(g.adjacency[v] | 1 << v) for v in range(n) if clique >> v & 1
        )

    def test_returns_as_soon_as_it_holds_stop_vertices(self):
        # the triangle {0, 2, 3} is the largest clique, but the lowest-first
        # search branches on 4 first (the highest vertex of the top color
        # class {3, 4}) and meets the edge {2, 4} at its first leaf; on the
        # mirrored graph the kernel branches on 0, the lowest vertex of
        # {0, 1}, and meets the edge {0, 2}
        g = _mirrored(UndirectedGraph(range(5), ((0, 2), (0, 3), (1, 4), (2, 3), (2, 4))))
        assert _search(g, 0b11111, (-1, 0), 2) == (2, 0b00101)
        assert _search(g, 0b11111, (-1, 0), 3) == (3, 0b10110)

    def test_an_incumbent_of_stop_vertices_ends_the_search_at_once(self, monkeypatch):
        # no coloring runs, so not even the root is branched on
        monkeypatch.setattr(clique_module, "_color_classes", None)
        g = _mirrored(FIVE_CYCLE)
        assert _search(g, 0b11111, (2, 0b00011), 2) == (2, 0b00011)

    @pytest.mark.parametrize(
        "g", [UndirectedGraph((), ()), FIVE_CYCLE], ids=["no-vertex", "five-cycle"]
    )
    def test_no_candidates_and_no_incumbent_give_the_empty_clique(self, g):
        g = _mirrored(g)
        n = len(g.nodes)
        top = 1 << max(n - 1, 0)  # the mirror of vertex 0, or foreign
        assert _search(g, 0, (-1, 0), n) == (0, 0)
        assert _search(g, 0, (1, top), n) == (1, top)


# SHA-256 over repr of the clique route's results on every cell of wso
# sizes (6, 8, 10, 12, 14) and closure sizes (6, 8, 10) x labels (2, 3) x
# density (0.3, 0.5) x seed (0, 2), and the number of colorings the
# searches ran, one per search node.  Per pair: the dmces_via_clique
# outcome; mcis on the line digraphs (size and sorted pairs), and mcis_size
# on them; the sorted clique of the size phase alone; mcis_size and the
# sorted mcis pairs of the two digraphs themselves.  A change to the
# kernel's layout or walk order must leave every result and every search
# node as it was.
CLIQUE_ROUTE_DIGEST = "5b5bea8941c5d9038e57a1fc91ed8f161718a5f784b16024655e1b6f08d0ff25"
CLIQUE_ROUTE_COLORINGS = 57891


def test_clique_route_outcomes_and_search_nodes_are_pinned(monkeypatch):
    colorings = 0
    color_classes = clique_module._color_classes

    def counted(*args):
        nonlocal colorings
        colorings += 1
        return color_classes(*args)

    monkeypatch.setattr(clique_module, "_color_classes", counted)
    digest = hashlib.sha256()
    for kind, sizes in (("wso", (6, 8, 10, 12, 14)), ("closure", (6, 8, 10))):
        cells = itertools.product(sizes, (2, 3), (0.3, 0.5), (0, 2))
        for nodes, labels, density, seed in cells:
            g, g2 = seeded_pair(kind, nodes, labels, density, seed)
            eld, eld2 = extended_line_digraph(g), extended_line_digraph(g2)
            size, pairs = mcis(eld, eld2)
            found = clique_module._some_max_clique(clique_module._edge_pair_graph(g, g2))
            results = (
                dmces_via_clique(g, g2),
                size,
                sorted(pairs),
                mcis_size(eld, eld2),
                sorted(found),
                mcis_size(g, g2),
                sorted(mcis(g, g2)[1]),
            )
            digest.update(repr(results).encode())
    assert digest.hexdigest() == CLIQUE_ROUTE_DIGEST
    assert colorings == CLIQUE_ROUTE_COLORINGS


class TestMcis:
    def test_disjoint_labels_give_zero(self):
        g = LabeledDigraph(("a", "b"), {"a": "x", "b": "x"}, (("a", "b"),))
        h = LabeledDigraph(("c", "d"), {"c": "y", "d": "y"}, (("c", "d"),))
        assert mcis(g, h) == (0, frozenset())

    def test_unmatched_self_loop_is_left_out(self):
        g, h = self_loop_pair()
        assert mcis(g, h) == (1, frozenset({("b", "c")}))
        assert mcis(g, g) == (2, frozenset({("a", "a"), ("b", "b")}))
        assert d_n(g, h) == Fraction(1, 2)

    def test_kind_mismatch(self):
        g = LabeledDigraph(("a", "b"), dict.fromkeys("ab", "x"), (("a", "b"),))
        ug = UndirectedGraph(("a", "b"), (("a", "b"),))
        for call in (compatibility_graph, mcis, d_n):
            with pytest.raises(
                KindMismatch, match="^cannot compare LabeledDigraph with UndirectedGraph$"
            ):
                call(g, ug)
        with pytest.raises(KindMismatch):
            mcis(extended_line_digraph(g), g)
        with pytest.raises(KindMismatch):
            d_n(LabeledDigraph((), {}, ()), UndirectedGraph((), ()))
        with pytest.raises(KindMismatch, match="unsupported"):
            mcis(object(), object())

    @given(same_type_pairs)
    def test_mcis_size_is_the_size_of_mcis(self, pair):
        assert mcis_size(*pair) == mcis(*pair)[0]

    def test_self_mcis_is_node_count(self):
        g = diamond_graph()
        size, pairs = mcis(g, g)
        assert size == len(g.nodes)

    def test_on_extended_line_digraphs(self):
        eld = extended_line_digraph(diamond_graph())
        size, _ = mcis(eld, eld)
        assert size == len(eld.nodes)

    @pytest.mark.parametrize(
        "searched, route",
        [
            (lambda g: g, lambda g: mcis(g, g)),
            (extended_line_digraph, lambda g: dmces_via_clique(g, g)),
            (
                extended_line_digraph,
                lambda g: mcis(extended_line_digraph(g), extended_line_digraph(g)),
            ),
        ],
        ids=["mcis", "dmces_via_clique", "sourced-eld-mcis"],
    )
    @pytest.mark.parametrize(
        "bad_pairs",
        [
            # every pair at once: shares coordinates, so not injective
            lambda h: set(compatibility_graph(h, h).pair_index),
            # a<->b swapped across a one-way edge a->b between equal labels:
            # injective and label-preserving, but (a, b) lands on a non-edge
            lambda h: next(
                {(a, b), (b, a)}
                for a, b in h.edge_label_map
                if h.node_labels[a] == h.node_labels[b]
                and (b, a) not in h.edge_label_map
            ),
        ],
        ids=["not-injective", "edge-not-kept"],
    )
    def test_a_set_that_is_no_clique_is_an_internal_error(
        self, bad_pairs, searched, route, monkeypatch
    ):
        g = diamond_graph()
        h = searched(g)
        comp = compatibility_graph(h, h)
        chosen = frozenset(comp.pair_index.index(p) for p in bad_pairs(h))
        monkeypatch.setattr(clique_module, "max_clique", lambda graph: chosen)
        with pytest.raises(RuntimeError, match="internal error"):
            route(g)


# mcis of the extended line digraphs of seeded 20-node wso pairs (4 labels,
# density 0.3, generator seeds s and s + 1): k, size and every edge pair,
# written "u>v=u2>v2".  The witness is the lexicographically smallest
# maximum clique, so no change to the order the search visits vertices in
# may move them.
GOLDEN_MCIS = {
    2000: (
        198,
        18,
        """
        n01>n12=n12>n02 n01>n15=n12>n06 n02>n04=n04>n14 n02>n08=n04>n07
        n02>n16=n04>n09 n03>n04=n15>n14 n03>n10=n15>n03 n04>n19=n14>n17
        n07>n02=n10>n04 n08>n18=n07>n19 n10>n00=n03>n11 n10>n02=n03>n04
        n11>n00=n18>n11 n11>n16=n18>n09 n11>n17=n18>n08 n12>n18=n02>n19
        n18>n01=n19>n12 n19>n17=n17>n08
        """,
    ),
    2002: (
        181,
        20,
        """
        n00>n13=n18>n12 n00>n14=n18>n17 n01>n02=n08>n02 n01>n17=n08>n07
        n04>n07=n03>n11 n05>n19=n01>n06 n07>n02=n11>n02 n08>n04=n04>n03
        n10>n05=n13>n01 n10>n07=n13>n11 n11>n08=n10>n04 n11>n14=n10>n17
        n12>n02=n19>n02 n12>n17=n19>n07 n12>n19=n19>n06 n15>n07=n00>n11
        n15>n18=n00>n16 n16>n02=n09>n02 n17>n19=n07>n06 n19>n00=n06>n18
        """,
    ),
    2004: (
        184,
        17,
        """
        n00>n03=n14>n02 n00>n19=n14>n13 n04>n03=n11>n02 n05>n13=n00>n10
        n05>n14=n00>n04 n06>n11=n01>n03 n07>n08=n17>n15 n08>n00=n15>n14
        n08>n03=n15>n02 n08>n19=n15>n13 n09>n05=n18>n00 n09>n14=n18>n04
        n11>n10=n03>n07 n13>n10=n10>n07 n14>n17=n04>n08 n15>n09=n16>n18
        n19>n09=n13>n18
        """,
    ),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_MCIS))
def test_golden_mcis_on_seeded_line_digraphs(seed):
    k, size, written = GOLDEN_MCIS[seed]
    g, g2 = seeded_pair("wso", 20, 4, 0.3, seed)
    eld, eld2 = extended_line_digraph(g), extended_line_digraph(g2)
    expected = frozenset(
        tuple(tuple(edge.split(">")) for edge in item.split("="))
        for item in written.split()
    )
    assert len(compatibility_graph(eld, eld2).pair_index) == k
    assert mcis(eld, eld2) == (size, expected)


# Seeded pairs of one instance kind with 1-4 labels.
source_pairs = st.builds(
    seeded_pair,
    st.sampled_from(("wso", "closure", "path-closure")),
    st.integers(3, 8),
    st.integers(1, 4),
    st.sampled_from((0.3, 0.45, 0.6)),
    st.integers(0, 10**6),
)


class TestEdgePairGraph:
    """The clique route's own build, straight from the two source digraphs."""

    @given(source_pairs)
    def test_equals_the_compatibility_graph_of_the_line_digraphs(self, pair):
        # DMCES(G, G') = MCIS(L(G), L(G')) holds by construction: the route
        # searches this very graph, vertex for vertex and in the same order
        g, g2 = pair
        direct = clique_module._edge_pair_graph(g, g2)
        via_eld = compatibility_graph(extended_line_digraph(g), extended_line_digraph(g2))
        assert direct.pair_index == via_eld.pair_index
        assert direct.adjacency == via_eld.adjacency

    @given(source_pairs)
    def test_both_builds_share_the_screening_bound(self, pair):
        g, g2 = pair
        direct = clique_module._edge_pair_graph(g, g2)
        via_eld = compatibility_graph(extended_line_digraph(g), extended_line_digraph(g2))
        classes, classes2 = g.endpoint_classes, g2.endpoint_classes
        screening = sum(min(len(c), len(classes2.get(key, ()))) for key, c in classes.items())
        assert direct.bound == via_eld.bound == screening
        assert clique_module._compat_vertices(g, g2) == len(direct.pair_index)

    def test_the_route_builds_no_line_digraph(self, monkeypatch):
        g, g2 = seeded_pair("wso", 8, 2, 0.45, 11)
        expected = dmces_bruteforce(g, g2).value

        def refuse(graph):
            raise AssertionError("the clique route built an extended line digraph")

        for module in list(sys.modules.values()):
            if getattr(module, "extended_line_digraph", None) is extended_line_digraph:
                monkeypatch.setattr(module, "extended_line_digraph", refuse)
        assert dmces_via_clique(g, g2).value == expected


def _generic_mcis(eld, eld2) -> tuple[int, frozenset]:
    """The maximum clique of the generic compatibility graph, as pairs."""
    comp = compatibility_graph(eld, eld2)
    pairs = frozenset(comp.pair(i) for i in max_clique(comp))
    return len(pairs), pairs


def _refuse(*args):
    raise AssertionError("this route must not run")


class TestSourcedMcis:
    """``mcis`` on two line digraphs of simple, oriented sources runs the
    clique route's core on the sources."""

    def _assert_equals_the_generic_search(self, g, g2):
        eld, eld2 = extended_line_digraph(g), extended_line_digraph(g2)
        assert eld.source is g and eld2.source is g2
        got = mcis(eld, eld2)
        assert got == _generic_mcis(eld, eld2)
        clique_module._check_isomorphism(eld, eld2, got[1])

    @given(seeded_graphs("wso", max_nodes=7), seeded_graphs("wso", max_nodes=7))
    def test_equals_the_generic_search(self, g, g2):
        self._assert_equals_the_generic_search(g, g2)

    @pytest.mark.parametrize("seed", [0, 7, 21, 3_000_000])
    @pytest.mark.parametrize("nodes, labels", [(8, 1), (12, 2), (16, 4)])
    def test_equals_the_generic_search_on_seeded_pairs(self, nodes, labels, seed):
        self._assert_equals_the_generic_search(
            *seeded_pair("wso", nodes, labels, 0.3, seed)
        )

    def test_builds_no_arc_and_no_generic_graph(self, monkeypatch):
        g, g2 = seeded_pair("wso", 10, 2, 0.45, 5)
        eld, eld2 = extended_line_digraph(g), extended_line_digraph(g2)
        expected = _generic_mcis(extended_line_digraph(g), extended_line_digraph(g2))
        monkeypatch.setattr(clique_module, "compatibility_graph", _refuse)
        monkeypatch.setattr(clique_module, "_check_isomorphism", _refuse)
        assert mcis(eld, eld2) == expected
        assert d_n(eld, eld2) == 1 - Fraction(expected[0], max(len(g.edges), len(g2.edges)))
        assert "labeled_edges" not in vars(eld) and "labeled_edges" not in vars(eld2)

    def test_a_non_oriented_source_warns_and_takes_the_generic_route(self, monkeypatch):
        two_cycle = LabeledDigraph(
            ("a", "b", "c"),
            dict.fromkeys("abc", "x"),
            (("a", "b"), ("b", "a"), ("b", "c")),
        )
        with pytest.warns(UserWarning, match="not oriented"):
            eld = extended_line_digraph(two_cycle)
        assert eld.source is None
        oriented = extended_line_digraph(diamond_graph())
        monkeypatch.setattr(clique_module, "_edge_pair_clique", _refuse)
        assert mcis(eld, eld) == (3, frozenset((e, e) for e in two_cycle.edges))
        # one sourced side is not enough
        assert mcis(eld, oriented) == _generic_mcis(eld, oriented)
        assert mcis(oriented, eld) == _generic_mcis(oriented, eld)

    def test_mixed_with_a_labeled_digraph_is_a_kind_mismatch(self):
        g = diamond_graph()
        eld = extended_line_digraph(g)
        message = "^cannot compare ExtendedLineDigraph with LabeledDigraph$"
        for call in (mcis, d_n):
            with pytest.raises(KindMismatch, match=message):
                call(eld, g)
            with pytest.raises(KindMismatch):
                call(g, eld)


class TestValuePath:
    """``d_n`` and ``mcis_size`` take the size phase's clique, check it,
    and run no witness walk."""

    @staticmethod
    def _assert_the_optima_agree(g, g2):
        eld, eld2 = extended_line_digraph(g), extended_line_digraph(g2)
        n = max(len(g.edges), len(g2.edges))
        distance = d_n(eld, eld2)
        assert distance == d_e(g, g2).distance
        assert distance == 1 - Fraction(mcis(eld, eld2)[0], n)

    @pytest.mark.parametrize("seed", [0, 7, 21, 3_000_000])
    @pytest.mark.parametrize("nodes, labels", [(8, 1), (12, 2), (16, 4)])
    def test_d_n_of_line_digraphs_is_d_e_on_seeded_pairs(self, nodes, labels, seed):
        self._assert_the_optima_agree(*seeded_pair("wso", nodes, labels, 0.3, seed))

    @given(seeded_graphs("wso", max_nodes=7), seeded_graphs("wso", max_nodes=7))
    def test_d_n_of_line_digraphs_is_d_e(self, g, g2):
        self._assert_the_optima_agree(g, g2)

    def test_one_search_per_d_n_and_more_for_the_witness(self, monkeypatch):
        calls = []
        search = clique_module._search

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(clique_module, "_search", counted)
        g, g2 = seeded_pair("wso", 16, 4, 0.3, 0)
        eld, eld2 = extended_line_digraph(g), extended_line_digraph(g2)
        d_n(eld, eld2)
        assert len(calls) == 1
        calls.clear()
        mcis(eld, eld2)
        assert len(calls) > 1

    @pytest.mark.parametrize(
        "graphs",
        [
            lambda g: (extended_line_digraph(g), extended_line_digraph(g)),
            lambda g: (g, g),
        ],
        ids=["sourced-eld", "generic"],
    )
    def test_a_search_that_returns_no_clique_is_an_internal_error(
        self, graphs, monkeypatch
    ):
        # every vertex at once: shares coordinates, so no clique
        def every_vertex(adj, nadj, bit, cand, incumbent, stop):
            return len(adj), (1 << len(adj)) - 1

        monkeypatch.setattr(clique_module, "_search", every_vertex)
        with pytest.raises(RuntimeError, match="internal error"):
            d_n(*graphs(diamond_graph()))


class TestCliqueRoute:
    def test_requires_wso(self):
        disconnected = LabeledDigraph(
            ("a", "b", "c"), dict.fromkeys("abc", "x"), (("a", "b"),)
        )
        with pytest.raises(PropertyViolation):
            dmces_via_clique(disconnected, disconnected)

    def test_self_distance_realizes_every_edge(self):
        g = diamond_graph()
        out = dmces_via_clique(g, g)
        assert out.value == len(g.edges)
        assert out.solver is Solver.CLIQUE

    @given(seeded_graphs("wso", max_nodes=6), seeded_graphs("wso", max_nodes=6))
    def test_agrees_with_bruteforce(self, g, g2):
        assert dmces_via_clique(g, g2).value == dmces_bruteforce(g, g2).value

    @given(seeded_graphs("wso", max_nodes=6))
    def test_witness_invariants(self, g):
        out = dmces_via_clique(g, g)
        mapping = out.witness.mapping
        assert len(set(mapping.values())) == len(mapping)
        assert all(
            g.node_labels[v] == g.node_labels[w] for v, w in mapping.items()
        )
        assert out.value == len(matched_edges(g, g, out.witness))

    @pytest.mark.parametrize(
        "swap", [False, True], ids=["one-node-two-ways", "two-nodes-one-way"]
    )
    def test_endpoints_that_disagree_are_an_internal_error(self, swap, monkeypatch):
        # two edges with a shared tail matched to two disjoint edges: the
        # tail maps two ways (or, swapped, two tails map to one), which the
        # one witness check rejects as not injective
        star = LabeledDigraph("abc", dict.fromkeys("abc", "x"), ("ab", "ac"))
        path = LabeledDigraph("defh", dict.fromkeys("defh", "x"), ("de", "ef", "fh"))
        chosen = [(("a", "b"), ("d", "e")), (("a", "c"), ("f", "h"))]
        g, g2 = (path, star) if swap else (star, path)
        if swap:
            chosen = [(e2, e) for e, e2 in chosen]
        comp = clique_module._edge_pair_graph(g, g2)
        clique = frozenset(map(comp.pair_index.index, chosen))
        monkeypatch.setattr(clique_module, "max_clique", lambda graph: clique)
        message = "^internal error: clique witness: .*not injective"
        with pytest.raises(RuntimeError, match=message):
            dmces_via_clique(g, g2)

    def test_endpoints_of_another_label_are_an_internal_error(self, monkeypatch):
        # a vertex that pairs edges of different endpoint labels gives an
        # injective map that realizes the edge, but not a label-preserving one
        g = LabeledDigraph(("a", "b"), {"a": "x", "b": "y"}, (("a", "b"),))
        g2 = LabeledDigraph(("c", "d"), {"c": "y", "d": "x"}, (("c", "d"),))
        comp = clique_module.CompatibilityGraph(((("a", "b"), ("c", "d")),), (0,))
        monkeypatch.setattr(clique_module, "_edge_pair_graph", lambda g, g2: comp)
        with pytest.raises(RuntimeError, match="internal error: .* label"):
            dmces_via_clique(g, g2)
