"""Matching utilities and the four search-based DMCES solvers."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings

import posetdist.core as core_module
import posetdist.solvers as solvers_module
from posetdist import (
    InvalidMatching,
    LabelClassNotPath,
    LabeledDigraph,
    NodeMatching,
    NotTransitivelyClosed,
    PairNotTwisted,
    PropertyViolation,
    SizeCapExceeded,
    Solver,
    build_poset_digraph,
    cli_main,
    d_e,
    dmces_alg1,
    dmces_alg2,
    dmces_alg3,
    dmces_bruteforce,
    dmces_via_clique,
    generate_instance,
    label_budget,
    matched_edges,
    respects_order_on_labels,
    save_graph,
    score,
    untwist,
)
from posetdist.bench import _BRUTE_MATCHINGS, matching_count, seeded_pair
from conftest import (
    budget_pair,
    chain_pair,
    deep_chain_closure,
    deep_path,
    equal_score_twist,
    seeded_graphs,
    triangle,
)
from oracles import (
    adjacency_masks_by_edges,
    best_score_enumerated,
    iter_matchings,
    score_by_definition,
    score_by_edge_set,
)


def outcome_is_consistent(g, g2, out):
    """value == score(witness) == |matched_edges|, and every matched edge
    pair really is an edge on each side, related by the witness."""
    assert score(g, g2, out.witness) == out.value
    edges = matched_edges(g, g2, out.witness)
    assert len(edges) == out.value
    m = out.witness.mapping
    for (a, b), (c, d) in edges:
        assert (a, b) in g.edge_set
        assert (c, d) in g2.edge_set
        assert m[a] == c and m[b] == d
    return True


def witness_label_counts(g, phi: NodeMatching) -> dict[str, int]:
    counts: dict[str, int] = {}
    for v in phi.domain:
        lab = g.node_labels[v]
        counts[lab] = counts.get(lab, 0) + 1
    return counts


def two_chain(labels=("z", "z"), prime="") -> LabeledDigraph:
    a, b = f"v1{prime}", f"v2{prime}"
    return LabeledDigraph((a, b), {a: labels[0], b: labels[1]}, ((a, b),))


class TestNodeMatching:
    def test_pairs_are_sorted(self):
        phi = NodeMatching((("b", "y"), ("a", "x")))
        assert phi.pairs == (("a", "x"), ("b", "y"))

    def test_accessors(self):
        phi = NodeMatching((("a", "x"), ("b", "y")))
        assert phi.mapping == {"a": "x", "b": "y"}
        assert phi.domain == ("a", "b")
        assert phi.image == ("x", "y")
        assert len(phi) == 2

    def test_equal_regardless_of_order(self):
        assert NodeMatching((("b", "y"), ("a", "x"))) == NodeMatching(
            (("a", "x"), ("b", "y"))
        )


class TestScore:
    def test_empty_matching_scores_zero(self):
        g, g2 = budget_pair()
        assert score(g, g2, NodeMatching(())) == 0

    def test_identity_realizes_every_edge(self):
        g, _ = chain_pair()
        ident = NodeMatching(tuple((v, v) for v in g.nodes))
        assert score(g, g, ident) == len(g.edges) == 3

    def test_budget_figure_value(self):
        g, g2 = budget_pair()
        phi = NodeMatching((("n1", "n5"), ("n4", "n8"), ("n2", "n6")))
        assert score(g, g2, phi) == 2
        assert matched_edges(g, g2, phi) == frozenset(
            {(("n1", "n4"), ("n5", "n8")), (("n4", "n2"), ("n8", "n6"))}
        )

    def test_agrees_with_ordered_pair_count(self):
        # the edge-counting form equals the definition as a count of
        # ordered domain pairs present on both sides
        g, g2 = chain_pair()
        for phi in iter_matchings(g, g2):
            got = score(g, g2, NodeMatching(tuple(phi.items())))
            assert got == score_by_definition(g, g2, phi)

    def test_unknown_domain_node(self):
        g, g2 = chain_pair()
        with pytest.raises(InvalidMatching, match="first graph"):
            score(g, g2, NodeMatching((("ghost", "u'"),)))

    def test_unknown_image_node(self):
        g, g2 = chain_pair()
        with pytest.raises(InvalidMatching, match="second graph"):
            score(g, g2, NodeMatching((("u", "ghost"),)))

    def test_duplicate_image_rejected(self):
        g, g2 = chain_pair()
        with pytest.raises(InvalidMatching, match="injective"):
            score(g, g2, NodeMatching((("u", "u'"), ("v", "u'"))))

    def test_duplicate_domain_rejected(self):
        g, g2 = chain_pair()
        with pytest.raises(InvalidMatching, match="injective"):
            score(g, g2, NodeMatching((("u", "u'"), ("u", "v'"))))

    def test_label_mismatch_rejected(self):
        g, g2 = chain_pair()
        with pytest.raises(InvalidMatching, match="label mismatch"):
            score(g, g2, NodeMatching((("u", "w'"),)))


def random_matchings(g, g2, rng, count):
    """Label-respecting injective matchings of every size, from empty to
    the largest, each label class paired in a shuffled order."""
    for k in range(count):
        pairs = []
        for a, vs in g.label_classes.items():
            ws = list(g2.label_classes.get(a, ()))
            vs = list(vs)
            rng.shuffle(vs)
            rng.shuffle(ws)
            pairs.extend(zip(vs, ws))
        rng.shuffle(pairs)
        yield dict(pairs[: len(pairs) * k // (count - 1)])


def loopy_digraph(rng, n, labels, p) -> LabeledDigraph:
    """A random digraph on ``n`` nodes in which every ordered pair, a
    node with itself included, is an edge with probability ``p``: it has
    self-loops and 2-cycles."""
    ids = [f"n{i}" for i in rng.sample(range(n), n)]
    edges = [(u, v) for u in ids for v in ids if rng.random() < p]
    return LabeledDigraph(ids, {v: f"L{rng.randrange(labels)}" for v in ids}, edges)


class TestScoreOnMasks:
    """score counts on the adjacency masks; the edge-set count is the
    oracle, on graphs dense and sparse, with and without self-loops, for
    matchings from empty to the largest."""

    @pytest.mark.parametrize(
        "kind, nodes, labels, density",
        [
            ("path-closure", 20, 3, 0.5),
            ("path-closure", 80, 6, 0.5),
            ("wso", 40, 4, 0.1),
            ("wso", 200, 4, 0.02),
        ],
    )
    def test_generated_pairs(self, kind, nodes, labels, density):
        rng = random.Random(nodes)
        g, g2 = seeded_pair(kind, nodes, labels, density, 0)
        for phi in random_matchings(g, g2, rng, 6):
            got = score(g, g2, NodeMatching(tuple(phi.items())))
            assert got == score_by_edge_set(g, g2, phi)

    @pytest.mark.parametrize("seed", range(6))
    def test_self_loops_and_two_cycles(self, seed):
        rng = random.Random(seed)
        g = loopy_digraph(rng, 12, 2, 0.3)
        g2 = loopy_digraph(rng, 14, 2, 0.3)
        assert any(u == v for u, v in g.edges)
        assert any(u != v and (v, u) in g.edge_set for u, v in g.edges)
        for phi in random_matchings(g, g2, rng, 6):
            got = score(g, g2, NodeMatching(tuple(phi.items())))
            assert got == score_by_edge_set(g, g2, phi)


class TestLabelBudget:
    def test_budget_figure(self):
        got = label_budget(*budget_pair())
        assert got.per_label == {"a": 2, "b": 1}
        assert got.total == 3

    def test_graph_with_itself(self):
        g, _ = chain_pair()
        got = label_budget(g, g)
        assert got.per_label == {"alpha": 2, "beta": 1}
        assert got.total == 3

    def test_disjoint_alphabets(self):
        g = two_chain(("z", "z"))
        h = LabeledDigraph(("a", "b"), {"a": "q", "b": "q"}, (("a", "b"),))
        got = label_budget(g, h)
        assert got.per_label == {"q": 0, "z": 0}
        assert got.total == 0

    def test_budgets_on_the_seeded_search_pairs_are_pinned(self):
        digest = hashlib.sha256()
        for kind, _, sizes in SEARCH_DIGESTS:
            for cell in itertools.product(sizes, (2, 3), (0.3, 0.5), (0, 2)):
                digest.update(repr(label_budget(*seeded_pair(kind, *cell))).encode())
        assert digest.hexdigest() == LABEL_BUDGET_DIGEST


# SHA-256 over repr of label_budget on every pair of SEARCH_DIGESTS, in its
# order, as counted from the label classes of both graphs
LABEL_BUDGET_DIGEST = "18ac3e0496906d3d426663e5bf3df32c1d3c0edd378e1cc54fa27aba6e7b8c2a"


class TestBruteforce:
    def test_budget_figure(self):
        g, g2 = budget_pair()
        out = dmces_bruteforce(g, g2)
        assert out.value == 2
        assert out.solver is Solver.BRUTE
        assert outcome_is_consistent(g, g2, out)

    def test_self_comparison_finds_identity(self):
        g, _ = chain_pair()
        out = dmces_bruteforce(g, g)
        assert out.value == 3
        assert out.witness.mapping == {v: v for v in g.nodes}

    def test_opposed_single_edges_share_nothing(self):
        g = LabeledDigraph(("s", "t"), {"s": "a", "t": "b"}, (("s", "t"),))
        h = LabeledDigraph(("s2", "t2"), {"s2": "b", "t2": "a"}, (("s2", "t2"),))
        assert dmces_bruteforce(g, h).value == 0

    def test_node_cap(self):
        # 13 nodes, one over the cap on either side; the cap is checked
        # before any search
        ids = [f"v{i:02d}" for i in range(13)]
        big = LabeledDigraph(ids, dict.fromkeys(ids, "a"), zip(ids, ids[1:]))
        small = two_chain(("a", "a"))
        for pair in ((big, small), (small, big)):
            with pytest.raises(SizeCapExceeded, match="capped at 12 nodes"):
                dmces_bruteforce(*pair)

    @given(seeded_graphs("wso", 3, 6), seeded_graphs("wso", 3, 6))
    @settings(max_examples=40)
    def test_matches_full_enumeration(self, g, g2):
        assert dmces_bruteforce(g, g2).value == best_score_enumerated(g, g2)


class TestAlg1:
    def test_budget_figure(self):
        g, g2 = budget_pair()
        out = dmces_alg1(g, g2)
        assert out.value == 2
        assert out.solver is Solver.ALG1
        assert outcome_is_consistent(g, g2, out)

    def test_witness_saturates_label_budget(self):
        g, g2 = budget_pair()
        out = dmces_alg1(g, g2)
        assert witness_label_counts(g, out.witness) == {"a": 2, "b": 1}

    def test_accepts_cyclic_input(self):
        g = triangle("cyclic")
        assert dmces_alg1(g, g).value == 3

    def test_rejects_two_cycle(self):
        g = LabeledDigraph(
            ("a", "b"), {"a": "x", "b": "x"}, (("a", "b"), ("b", "a"))
        )
        with pytest.raises(PropertyViolation):
            dmces_alg1(g, g)

    def test_rejects_disconnected(self):
        g = LabeledDigraph(
            ("a", "b", "c", "d"),
            dict.fromkeys("abcd", "x"),
            (("a", "b"), ("c", "d")),
        )
        with pytest.raises(PropertyViolation):
            dmces_alg1(g, g)

    @given(seeded_graphs("wso", 3, 7), seeded_graphs("wso", 3, 7))
    @settings(max_examples=60)
    def test_agrees_with_bruteforce(self, g, g2):
        out = dmces_alg1(g, g2)
        assert out.value == dmces_bruteforce(g, g2).value
        assert outcome_is_consistent(g, g2, out)

    @given(seeded_graphs("wso", 3, 7), seeded_graphs("wso", 3, 7))
    @settings(max_examples=60)
    def test_witness_always_saturates_budget(self, g, g2):
        # the skip rule only fires while the per-label target stays
        # reachable, so accepted leaves match each label class exactly
        # min(|class|, |class'|) times
        out = dmces_alg1(g, g2)
        counts = witness_label_counts(g, out.witness)
        budget = label_budget(g, g2).per_label
        for lab in g.label_classes:
            assert counts.get(lab, 0) == budget[lab]


class TestAlg2:
    def test_identical_two_chains(self):
        g = two_chain(("a", "a"))
        out = dmces_alg2(g, g)
        assert out.value == 1
        assert out.witness.mapping == {"v1": "v1", "v2": "v2"}
        assert out.solver is Solver.ALG2

    def test_chain_closure_self(self):
        g, g2 = chain_pair()
        out = dmces_alg2(g, g2)
        assert out.value == 3
        assert outcome_is_consistent(g, g2, out)

    def test_rejects_open_graph(self):
        g, _ = budget_pair()  # contains a directed cycle, so not closed
        with pytest.raises(NotTransitivelyClosed):
            dmces_alg2(g, g)

    def test_rejects_non_wso(self):
        g = LabeledDigraph(
            ("a", "b"), {"a": "x", "b": "x"}, (("a", "b"), ("b", "a"))
        )
        with pytest.raises(PropertyViolation):
            dmces_alg2(g, g)

    def test_accepts_poset_wrapper(self):
        poset = build_poset_digraph(
            [("u", "alpha"), ("v", "alpha"), ("w", "beta")],
            [("w", "u"), ("u", "v")],
        )
        g, _ = chain_pair()
        assert dmces_alg2(poset, g).value == 3
        assert dmces_alg2(g, poset).value == 3

    @given(seeded_graphs("closure", 3, 7), seeded_graphs("closure", 3, 7))
    @settings(max_examples=60)
    def test_agrees_with_bruteforce(self, g, g2):
        out = dmces_alg2(g, g2)
        assert out.value == dmces_bruteforce(g, g2).value
        assert outcome_is_consistent(g, g2, out)

    @given(seeded_graphs("closure", 3, 7), seeded_graphs("closure", 3, 7))
    @settings(max_examples=60)
    def test_witness_respects_order_on_labels(self, g, g2):
        out = dmces_alg2(g, g2)
        assert respects_order_on_labels(g, g2, out.witness) == frozenset()


class TestAlg3:
    def test_identical_three_chains(self):
        g = LabeledDigraph(
            ("c1", "c2", "c3"),
            dict.fromkeys(("c1", "c2", "c3"), "x"),
            (("c1", "c2"), ("c2", "c3"), ("c1", "c3")),
        )
        out = dmces_alg3(g, g)
        assert out.value == 3
        assert out.witness.mapping == {v: v for v in g.nodes}
        assert out.solver is Solver.ALG3

    def test_short_chain_against_long(self):
        g = two_chain(("x", "x"))
        g2 = LabeledDigraph(
            ("b1", "b2", "b3"),
            dict.fromkeys(("b1", "b2", "b3"), "x"),
            (("b1", "b2"), ("b2", "b3"), ("b1", "b3")),
        )
        assert dmces_alg3(g, g2).value == 1
        assert dmces_alg3(g2, g).value == 1

    def test_rejects_branching_label_class(self):
        g = LabeledDigraph(
            ("a", "b", "c"),
            dict.fromkeys("abc", "x"),
            (("a", "b"), ("a", "c")),  # closed, but b and c are incomparable
        )
        with pytest.raises(LabelClassNotPath):
            dmces_alg3(g, g)

    def test_accepts_poset_wrapper(self):
        poset = build_poset_digraph(
            [("p", "x"), ("q", "x")], [("p", "q")]
        )
        assert dmces_alg3(poset, poset).value == 1

    @given(
        seeded_graphs("path-closure", 3, 8),
        seeded_graphs("path-closure", 3, 8),
    )
    @settings(max_examples=60)
    def test_agrees_with_bruteforce(self, g, g2):
        # an 8-node, 1-label pair has 1 441 729 matchings for brute to
        # score; above the bench's brute gate the clique route checks it
        out = dmces_alg3(g, g2)
        if matching_count(g, g2) <= _BRUTE_MATCHINGS:
            assert out.value == dmces_bruteforce(g, g2).value
        else:
            assert out.value == dmces_via_clique(g, g2).value
        assert outcome_is_consistent(g, g2, out)

    @given(
        seeded_graphs("path-closure", 3, 8),
        seeded_graphs("path-closure", 3, 8),
    )
    @settings(max_examples=60)
    def test_witness_invariants(self, g, g2):
        out = dmces_alg3(g, g2)
        assert respects_order_on_labels(g, g2, out.witness) == frozenset()
        counts = witness_label_counts(g, out.witness)
        budget = label_budget(g, g2).per_label
        for lab in g.label_classes:
            assert counts.get(lab, 0) == budget[lab]


class TestRespectsOrderOnLabels:
    def test_identity_has_no_twists(self):
        g, _ = chain_pair()
        ident = NodeMatching(tuple((v, v) for v in g.nodes))
        assert respects_order_on_labels(g, g, ident) == frozenset()

    def test_swapped_chain_is_twisted(self):
        g, h = two_chain(("z", "z")), two_chain(("z", "z"), prime="'")
        phi = NodeMatching((("v1", "v2'"), ("v2", "v1'")))
        assert respects_order_on_labels(g, h, phi) == frozenset(
            {frozenset({"v1", "v2"})}
        )

    def test_figure_matching_is_twisted(self):
        g, g2, twisted = equal_score_twist()
        phi = NodeMatching(tuple(twisted.items()))
        assert respects_order_on_labels(g, g2, phi) == frozenset(
            {frozenset({"u", "v"})}
        )

    def test_cross_label_reversal_is_not_twisted(self):
        # reversal between different label classes does not count
        g = two_chain(("a", "b"))
        h = LabeledDigraph(
            ("w1", "w2"), {"w1": "b", "w2": "a"}, (("w1", "w2"),)
        )
        phi = NodeMatching((("v1", "w2"), ("v2", "w1")))
        assert respects_order_on_labels(g, h, phi) == frozenset()


class TestUntwist:
    def test_swaps_the_pair(self):
        g, g2, twisted = equal_score_twist()
        phi = NodeMatching(tuple(twisted.items()))
        psi = untwist(g, g2, phi, ("u", "v"))
        assert psi.mapping == {"u": "u'", "v": "v'", "x": "x'"}

    def test_without_closure_no_improvement_is_possible(self):
        # both graphs miss a composite edge; the swap trades one realized
        # edge for another and the score stays at 1
        g, g2, twisted = equal_score_twist()
        phi = NodeMatching(tuple(twisted.items()))
        psi = untwist(g, g2, phi, ("u", "v"))
        assert score(g, g2, phi) == score(g, g2, psi) == 1

    def test_on_closures_the_swap_gains_an_edge(self):
        g, h = two_chain(("z", "z")), two_chain(("z", "z"), prime="'")
        phi = NodeMatching((("v1", "v2'"), ("v2", "v1'")))
        psi = untwist(g, h, phi, ("v1", "v2"))
        assert score(g, h, phi) == 0
        assert score(g, h, psi) == 1

    def test_resolves_the_pair(self):
        g, g2, twisted = equal_score_twist()
        phi = NodeMatching(tuple(twisted.items()))
        psi = untwist(g, g2, phi, ("u", "v"))
        assert frozenset({"u", "v"}) not in respects_order_on_labels(g, g2, psi)
        with pytest.raises(PairNotTwisted):
            untwist(g, g2, psi, ("u", "v"))

    def test_rejects_untwisted_pair(self):
        g, g2, twisted = equal_score_twist()
        phi = NodeMatching(tuple(twisted.items()))
        with pytest.raises(PairNotTwisted):
            untwist(g, g2, phi, ("u", "x"))

    def test_rejects_degenerate_pair(self):
        g, g2, twisted = equal_score_twist()
        phi = NodeMatching(tuple(twisted.items()))
        with pytest.raises(PairNotTwisted, match="two distinct"):
            untwist(g, g2, phi, ("u", "u"))

    @given(seeded_graphs("closure", 3, 5), seeded_graphs("closure", 3, 5))
    @settings(max_examples=25)
    def test_improves_strictly_on_closures(self, g, g2):
        # on a pair of transitively closed graphs, resolving any twisted
        # pair raises the score by at least one
        checked = 0
        for raw in iter_matchings(g, g2):
            if checked >= 25:
                break
            phi = NodeMatching(tuple(raw.items()))
            twists = respects_order_on_labels(g, g2, phi)
            if not twists:
                continue
            checked += 1
            pair = min(twists, key=sorted)
            psi = untwist(g, g2, phi, pair)
            assert score(g, g2, psi) >= score(g, g2, phi) + 1


class TestSolverEnum:
    def test_string_round_trip(self):
        assert Solver("brute") is Solver.BRUTE
        assert Solver("alg1") is Solver.ALG1
        assert Solver("alg2") is Solver.ALG2
        assert Solver("alg3") is Solver.ALG3
        assert Solver("clique") is Solver.CLIQUE
        assert sorted(s.value for s in Solver) == [
            "alg1",
            "alg2",
            "alg3",
            "brute",
            "clique",
        ]


class TestAllRoutesAgree:
    def test_on_the_chain_closure(self):
        g, g2 = chain_pair()
        values = {
            dmces_bruteforce(g, g2).value,
            dmces_alg1(g, g2).value,
            dmces_alg2(g, g2).value,
            dmces_alg3(g, g2).value,
            dmces_via_clique(g, g2).value,
        }
        assert values == {3}

    def test_on_the_budget_figure(self):
        g, g2 = budget_pair()  # cyclic, so only the order-free routes apply
        values = {
            dmces_bruteforce(g, g2).value,
            dmces_alg1(g, g2).value,
            dmces_via_clique(g, g2).value,
        }
        assert values == {2}


# repr((value, witness, solver)) of the order searches on seeded pairs,
# taken from the recursive search they replaced.  Each pair has other
# optimal matchings, so the pins fix the branch order, not just the value;
# the second graph's nodes are inserted in reverse, so that its ids and its
# positions run in opposite directions
GOLDEN = [
    (
        dmces_alg1,
        ("wso", 7, 2, 0.45, 4100),
        "(5, NodeMatching(pairs=(('n0', 'n3'), ('n1', 'n4'), ('n2', 'n0'), "
        "('n3', 'n6'), ('n4', 'n2'), ('n6', 'n5'))), <Solver.ALG1: 'alg1'>)",
    ),
    (
        dmces_alg1,
        ("wso", 7, 2, 0.45, 4102),
        "(6, NodeMatching(pairs=(('n0', 'n6'), ('n1', 'n1'), ('n3', 'n2'), "
        "('n4', 'n3'), ('n5', 'n4'), ('n6', 'n5'))), <Solver.ALG1: 'alg1'>)",
    ),
    (
        dmces_alg2,
        ("closure", 7, 2, 0.45, 4210),
        "(9, NodeMatching(pairs=(('n0', 'n4'), ('n1', 'n3'), ('n2', 'n0'), "
        "('n3', 'n2'), ('n4', 'n5'), ('n5', 'n1'), ('n6', 'n6'))), "
        "<Solver.ALG2: 'alg2'>)",
    ),
    (
        dmces_alg2,
        ("closure", 7, 2, 0.45, 4218),
        "(6, NodeMatching(pairs=(('n0', 'n5'), ('n2', 'n4'), ('n4', 'n3'), "
        "('n5', 'n2'), ('n6', 'n1'))), <Solver.ALG2: 'alg2'>)",
    ),
    (
        dmces_alg3,
        ("path-closure", 8, 2, 0.45, 4300),
        "(20, NodeMatching(pairs=(('n0', 'n3'), ('n1', 'n1'), ('n2', 'n5'), "
        "('n3', 'n2'), ('n4', 'n6'), ('n5', 'n7'), ('n6', 'n4'), ('n7', 'n0'))), "
        "<Solver.ALG3: 'alg3'>)",
    ),
    (
        dmces_alg3,
        ("path-closure", 8, 2, 0.45, 4304),
        "(20, NodeMatching(pairs=(('n0', 'n6'), ('n1', 'n5'), ('n2', 'n0'), "
        "('n3', 'n3'), ('n4', 'n7'), ('n5', 'n1'), ('n6', 'n2'), ('n7', 'n4'))), "
        "<Solver.ALG3: 'alg3'>)",
    ),
]


class TestOrderSearch:
    @pytest.mark.parametrize("solver, spec, expected", GOLDEN)
    def test_golden_results_on_seeded_pairs(self, solver, spec, expected):
        g, g2 = seeded_pair(*spec)
        g2 = LabeledDigraph(g2.nodes[::-1], g2.node_labels, g2.edges)
        out = solver(g, g2)
        assert repr((out.value, out.witness, out.solver)) == expected
        assert outcome_is_consistent(g, g2, out)

    def test_alg2_on_a_chain_closure_deeper_than_the_recursion_limit(self):
        g = deep_chain_closure()
        out = dmces_alg2(g, g)
        assert out.value == len(g.edges)
        assert out.witness.pairs == tuple(zip(g.nodes, g.nodes))

    def test_alg1_on_a_path_deeper_than_the_recursion_limit(self):
        g = deep_path()
        out = dmces_alg1(g, g)
        assert out.value == len(g.edges)
        assert out.witness.pairs == tuple(zip(g.nodes, g.nodes))

    @pytest.mark.parametrize("seed", [4300, 4304, 4310])
    def test_solvers_leave_the_cached_masks_as_built(self, seed):
        g, g2 = seeded_pair("path-closure", 8, 2, 0.45, seed)
        for solver in (
            dmces_bruteforce,
            dmces_alg1,
            dmces_alg2,
            dmces_alg3,
            dmces_via_clique,
        ):
            solver(g, g2)
            solver(g2, g)
        for graph in (g, g2):
            index, out, inn = graph.adjacency_masks
            assert type(out) is type(inn) is tuple
            assert graph.adjacency_masks == adjacency_masks_by_edges(graph)


# SHA-256 over repr of every outcome of one solver on one instance kind,
# over the cells of its sizes x labels (2, 3) x density (0.3, 0.5) x seed
# (0, 2).  They pin value, witness and solver of every cell, so a change to
# how the search computes its masks must leave each outcome as it was.
SEARCH_DIGESTS = {
    ("wso", "alg1", (6, 7, 8, 9, 10)):
        "cfe6a0178270f1d5c15af1d598417a72956fa2a24d6b3ad7d2afcda9629c2386",
    ("closure", "alg1", (6, 7, 8, 9, 10)):
        "a9b4e4a067bccd8d6da726ff17cd6cfe7df18d2827938d873713a2f7848f3473",
    ("closure", "alg2", (6, 7, 8, 9, 10)):
        "5709d07d45259318509a232566dbbe4a4e4e00fde7ca0dca393de99a73a2ef3e",
    ("path-closure", "alg1", (8, 10, 12)):
        "ded2430642600c878befa491dc8aca01e7f99cb674312af64702cb8f5c1cc2b0",
    ("path-closure", "alg2", (8, 10, 12, 14, 16)):
        "4cc59a8fb6c98ffd1cb6b33cc60ca74cc286c449281504ba933338423a79222d",
    ("path-closure", "alg3", (8, 10, 12, 14, 16)):
        "f21aee20d7ea3c22147d687d70e5c991b147ea11221777d45adb5000d9621927",
}


@pytest.mark.parametrize("kind, solver, sizes", SEARCH_DIGESTS)
def test_search_outcomes_are_pinned(kind, solver, sizes):
    solve = {"alg1": dmces_alg1, "alg2": dmces_alg2, "alg3": dmces_alg3}[solver]
    digest = hashlib.sha256()
    for nodes, labels, density, seed in itertools.product(sizes, (2, 3), (0.3, 0.5), (0, 2)):
        digest.update(repr(solve(*seeded_pair(kind, nodes, labels, density, seed))).encode())
    assert digest.hexdigest() == SEARCH_DIGESTS[kind, solver, sizes]


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize("kind, solver, sizes", SEARCH_DIGESTS)
def test_search_outcomes_hold_on_either_neighbour_sum(kind, solver, sizes, dense, monkeypatch):
    """With every neighbour mask forced dense, so that the search and the
    witness check sum through a cached compress selector over whole masks,
    and again with every mask forced to the walk, each search reproduces
    its pinned outcomes and its witnesses score as by definition.  The
    dense sums hold only while the search's image bits are zero outside
    the nodes mapped on its branch.  The patch precedes every graph, so no
    cached selector escapes it."""
    monkeypatch.setattr(core_module, "_dense", lambda mask: dense)
    solve = {"alg1": dmces_alg1, "alg2": dmces_alg2, "alg3": dmces_alg3}[solver]
    digest = hashlib.sha256()
    for nodes, labels, density, seed in itertools.product(sizes, (2, 3), (0.3, 0.5), (0, 2)):
        g, g2 = seeded_pair(kind, nodes, labels, density, seed)
        out = solve(g, g2)
        digest.update(repr(out).encode())
        assert score(g, g2, out.witness) == score_by_definition(g, g2, out.witness.mapping)
        selectors = [row[-1] for row in g.search_rows] + list(g.out_selectors)
        assert all((s is not None) == dense for s in selectors)
    assert digest.hexdigest() == SEARCH_DIGESTS[kind, solver, sizes]


@pytest.mark.parametrize("solver", ["alg1", "alg2", "alg3"])
def test_a_graph_builds_its_search_tables_once(solver, monkeypatch):
    """However many partners a graph meets, on either side of a pair and
    for every order search, it builds the rows and the candidates of its
    search, and the out-selectors of the witness check, once; the search
    takes the label targets off the cached class sizes, not from
    label_budget, and no topological order."""
    built = []
    for name in ("_search_rows", "_candidates", "_out_selectors"):
        build = getattr(core_module, name)
        monkeypatch.setattr(
            core_module, name, lambda g, build=build: built.append(id(g)) or build(g)
        )
    monkeypatch.setattr(solvers_module, "label_budget", None)
    g, *partners = (
        generate_instance("path-closure", 8, 2, 0.45, seed) for seed in range(4300, 4306)
    )
    for partner in partners:
        assert d_e(g, partner, solver).solver == solver
        d_e(partner, g, solver)
    assert sorted(built) == sorted(3 * [id(h) for h in (g, *partners)])
    for h in (g, *partners):
        assert {"search_rows", "candidates", "out_selectors"} <= vars(h).keys()
        assert "topological_order" not in vars(h)


class TestWitnessCheck:
    """Every solver returns through one check of its value against its
    witness; a search that reports a wrong result is an internal error."""

    LIES = {
        "value": (lambda value, phi: (value + 1, phi), "scored"),
        "not-injective": (
            lambda value, phi: (value, NodeMatching((("u", "u'"), ("v", "u'")))),
            "not injective",
        ),
    }

    @pytest.mark.parametrize("lie", sorted(LIES))
    @pytest.mark.parametrize(
        "solver, solve",
        [(Solver.ALG1, dmces_alg1), (Solver.ALG2, dmces_alg2), (Solver.ALG3, dmces_alg3)],
        ids=["alg1", "alg2", "alg3"],
    )
    def test_a_wrong_search_result_is_an_internal_error(
        self, solver, solve, lie, tmp_path, capsys, monkeypatch
    ):
        g, g2 = chain_pair()
        search = solvers_module._pick_nodes
        distort, message = self.LIES[lie]
        monkeypatch.setattr(
            solvers_module,
            "_pick_nodes",
            lambda *args, **kwargs: distort(*search(*args, **kwargs)),
        )
        with pytest.raises(RuntimeError, match=f"internal error: .*{message}"):
            solve(g, g2)
        paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
        save_graph(g, paths[0])
        save_graph(g2, paths[1])
        assert cli_main(["dmces", *paths, "--solver", solver.value]) == 1
        assert message in capsys.readouterr().err
