"""Shared strategies and the hand-checked example graphs used across suites."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

import posetdist
from posetdist import LabeledDigraph, UndirectedGraph, generate_instance

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


def subprocess_env(**extra: str) -> dict[str, str]:
    """The environment for a ``python`` subprocess that must import the
    ``posetdist`` under test: its ``src`` directory leads ``PYTHONPATH``."""
    src = str(Path(posetdist.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, **extra, "PYTHONPATH": path}


def deep_ids() -> list[str]:
    """``sys.getrecursionlimit() + 100`` node ids in ascending order, so a
    search that recursed once per node would overflow the stack."""
    return [f"p{i:04d}" for i in range(sys.getrecursionlimit() + 100)]


def deep_path() -> LabeledDigraph:
    """A directed path on :func:`deep_ids`, every node with its own label."""
    ids = deep_ids()
    return LabeledDigraph(ids, {v: v for v in ids}, zip(ids, ids[1:]))


def deep_chain_closure() -> LabeledDigraph:
    """The transitive closure of a one-label path on :func:`deep_ids`: a
    chain poset whose one label class is a chain."""
    ids = deep_ids()
    return LabeledDigraph(
        ids,
        dict.fromkeys(ids, "a"),
        ((u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]),
    )


def seeded_graphs(kind: str, min_nodes: int = 3, max_nodes: int = 8):
    """Instances drawn through the seeded generator, one per drawn seed."""
    return st.builds(
        generate_instance,
        st.just(kind),
        st.integers(min_nodes, max_nodes),
        st.integers(1, 3),
        st.sampled_from((0.3, 0.45, 0.6)),
        st.integers(0, 10**6),
    )


@st.composite
def raw_digraphs(draw, max_nodes: int = 6, labels: str = "ab"):
    """Arbitrary small labeled digraphs; not necessarily connected,
    oriented, or even free of self-loops."""
    n = draw(st.integers(1, max_nodes))
    ids = [f"v{i}" for i in range(n)]
    node_labels = {v: draw(st.sampled_from(labels)) for v in ids}
    pool = [(a, b) for a in ids for b in ids]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return LabeledDigraph(ids, node_labels, edges)


@st.composite
def undirected_graphs(draw, max_nodes: int = 9):
    n = draw(st.integers(0, max_nodes))
    ids = list(range(n))
    pool = [(a, b) for a in ids for b in ids if a < b]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    return UndirectedGraph(ids, edges)


@st.composite
def loopfree_digraphs(draw, max_nodes: int = 6, labels: str = "ab"):
    n = draw(st.integers(1, max_nodes))
    ids = [f"v{i}" for i in range(n)]
    node_labels = {v: draw(st.sampled_from(labels)) for v in ids}
    pool = [(a, b) for a in ids for b in ids if a != b]
    edges = (
        draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
        if pool
        else []
    )
    return LabeledDigraph(ids, node_labels, edges)


# The four-node diamond u -> v -> w <- x <- u whose derived edge digraph
# is the standard worked example: 4 nodes, two HT edges along the paths,
# a TT pair at u, an HH pair at w.
def diamond_graph() -> LabeledDigraph:
    return LabeledDigraph(
        nodes=("u", "v", "w", "x"),
        node_labels={"u": "a", "v": "a", "w": "a", "x": "a"},
        edges=(("u", "v"), ("u", "x"), ("v", "w"), ("x", "w")),
    )


# A pair with label classes of different sizes on each side: three
# a-nodes versus two, one b-node versus two.  Best matching realizes two
# edges (an a->b edge chained with a b->a edge), so the distance is 1/2.
def budget_pair() -> tuple[LabeledDigraph, LabeledDigraph]:
    g = LabeledDigraph(
        nodes=("n1", "n2", "n3", "n4"),
        node_labels={"n1": "a", "n2": "a", "n3": "a", "n4": "b"},
        edges=(("n1", "n4"), ("n3", "n1"), ("n4", "n3"), ("n4", "n2")),
    )
    g2 = LabeledDigraph(
        nodes=("n5", "n6", "n7", "n8"),
        node_labels={"n5": "a", "n6": "a", "n7": "b", "n8": "b"},
        edges=(("n5", "n8"), ("n7", "n5"), ("n8", "n7"), ("n8", "n6")),
    )
    return g, g2


# A three-node chain closure and its primed copy; their compatibility
# graph is the worked five-node, five-edge example whose unique largest
# clique picks out the identity correspondence.
def chain_pair() -> tuple[LabeledDigraph, LabeledDigraph]:
    g = LabeledDigraph(
        nodes=("u", "v", "w"),
        node_labels={"u": "alpha", "v": "alpha", "w": "beta"},
        edges=(("w", "u"), ("u", "v"), ("w", "v")),
    )
    g2 = LabeledDigraph(
        nodes=("u'", "v'", "w'"),
        node_labels={"u'": "alpha", "v'": "alpha", "w'": "beta"},
        edges=(("w'", "u'"), ("u'", "v'"), ("w'", "v'")),
    )
    return g, g2


# Two graphs that are NOT transitive closures, with a twisted matching
# whose swap does not improve the score: both maps realize exactly one
# edge.  Shows the closure hypothesis in the improvement lemma is needed.
def equal_score_twist() -> tuple[LabeledDigraph, LabeledDigraph, dict]:
    g = LabeledDigraph(
        nodes=("u", "v", "x"),
        node_labels={"u": "p", "v": "p", "x": "q"},
        edges=(("v", "u"), ("v", "x")),
    )
    g2 = LabeledDigraph(
        nodes=("u'", "v'", "x'"),
        node_labels={"u'": "p", "v'": "p", "x'": "q"},
        edges=(("v'", "u'"), ("u'", "x'")),
    )
    twisted = {"u": "v'", "v": "u'", "x": "x'"}
    return g, g2, twisted


def triangle(kind: str) -> LabeledDigraph:
    """The two orientations of a triangle: one directed cycle, one
    transitive tournament."""
    edges = {
        "cyclic": (("a", "b"), ("b", "c"), ("c", "a")),
        "acyclic": (("a", "b"), ("a", "c"), ("b", "c")),
    }[kind]
    return LabeledDigraph(("a", "b", "c"), dict.fromkeys("abc", "n"), edges)


def star(kind: str) -> LabeledDigraph:
    """The four orientations of a three-leaf star with center c."""
    edges = {
        "all_in": (("a", "c"), ("b", "c"), ("d", "c")),
        "all_out": (("c", "a"), ("c", "b"), ("c", "d")),
        "two_in_one_out": (("a", "c"), ("b", "c"), ("c", "d")),
        "one_in_two_out": (("a", "c"), ("c", "b"), ("c", "d")),
    }[kind]
    return LabeledDigraph(("a", "b", "c", "d"), dict.fromkeys("abcd", "n"), edges)
