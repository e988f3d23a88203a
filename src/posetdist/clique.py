"""Compatibility-graph construction and an exact maximum-clique solver.

The pipeline realized here: the edge-overlap value of two node-labeled
digraphs equals the maximum common node-induced subgraph size of their
extended line digraphs, which in turn is the maximum clique size of the
compatibility graph built from those.  :func:`dmces_via_clique` wires the
three steps together and converts the winning clique back into a node
matching on the original graphs.

The compatibility graph joins two label-matched pairs (n, n') and (m, m')
when the ordered pairs (n, m) / (n', m') agree (both edges present with
equal edge labels, or both absent) in BOTH orders, and the pairs share no
coordinate.  The shared-coordinate exclusion makes every clique project to
an injective map on either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from .core import LabeledDigraph, UndirectedGraph
from .isomorphism import MISSING, GraphView
from .line_digraph import extended_line_digraph
from .solvers import DmcesOutcome, NodeMatching, Solver, _outcome, _require


@dataclass(frozen=True)
class CompatibilityGraph:
    """An undirected graph on integer node ids plus the pair each id
    stands for."""

    graph: UndirectedGraph
    pair_index: tuple[tuple[Hashable, Hashable], ...]

    def pair(self, node: int) -> tuple[Hashable, Hashable]:
        return self.pair_index[node]


def compatibility_graph(g, g2) -> CompatibilityGraph:
    """Build the compatibility graph of two labeled digraphs (extended
    line digraphs welcome; their HT/TT/HH edge labels then take part in
    the agreement condition)."""
    a, b = GraphView(g), GraphView(g2)
    pairs = [
        (n, n2)
        for n in a.nodes
        for n2 in b.nodes
        if a.label[n] == b.label[n2]
    ]
    k = len(pairs)
    edges = []
    for i in range(k):
        n, n2 = pairs[i]
        for j in range(i + 1, k):
            m, m2 = pairs[j]
            if n == m or n2 == m2:
                continue
            if _agrees(a, b, n, m, n2, m2) and _agrees(a, b, m, n, m2, n2):
                edges.append((i, j))
    return CompatibilityGraph(UndirectedGraph(range(k), edges), tuple(pairs))


def _agrees(a: GraphView, b: GraphView, n, m, n2, m2) -> bool:
    return a.edge_label.get((n, m), MISSING) == b.edge_label.get((n2, m2), MISSING)


def max_clique(g: UndirectedGraph, *, deterministic: bool = True) -> frozenset:
    """Exact maximum clique by branch and bound.

    Candidates are greedily colored at every branch point; a partial clique
    extends only through vertices whose color class count can still beat
    the incumbent, and branching works down from the highest color.  With
    ``deterministic`` (the default) the witness is canonical: the
    lexicographically smallest maximum clique in the node order of ``g``.
    Without it the first maximum found is returned (same size, still
    reproducible single-threaded, but order-of-exploration dependent).
    """
    index = {v: i for i, v in enumerate(g.nodes)}
    n = len(g.nodes)
    adj = [0] * n
    for u, v in g.edges:
        iu, iv = index[u], index[v]
        adj[iu] |= 1 << iv
        adj[iv] |= 1 << iu

    best_size, best_mask = _bb_max_clique(adj, n)
    if deterministic and best_size:
        best_mask = _lex_smallest_clique(adj, n, best_size)
    return frozenset(g.nodes[i] for i in _bits(best_mask))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _color_order(adj: list[int], cand: int) -> list[tuple[int, int]]:
    """Greedy coloring of the candidate set; returns (vertex, color) in
    coloring order.  Any clique inside ``cand`` has at most max-color
    vertices, which is the branch-and-bound upper bound."""
    order: list[tuple[int, int]] = []
    left = cand
    color = 0
    while left:
        color += 1
        avail = left
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~adj[v] & (avail ^ (avail & -avail))
            left &= ~(1 << v)
            order.append((v, color))
    return order


def _bb_max_clique(adj: list[int], n: int) -> tuple[int, int]:
    best_size = 0
    best_mask = 0
    full = (1 << n) - 1

    def expand(r_mask: int, r_size: int, cand: int) -> None:
        nonlocal best_size, best_mask
        if not cand:
            if r_size > best_size:
                best_size, best_mask = r_size, r_mask
            return
        order = _color_order(adj, cand)
        for v, color in reversed(order):
            if r_size + color <= best_size:
                return
            expand(r_mask | (1 << v), r_size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, 0, full)
    return best_size, best_mask


def _clique_of_size_exists(adj: list[int], cand: int, need: int) -> bool:
    if need <= 0:
        return True
    if bin(cand).count("1") < need:
        return False
    order = _color_order(adj, cand)
    if order[-1][1] < need:
        return False
    for v, color in reversed(order):
        if color < need:
            return False
        if _clique_of_size_exists(adj, cand & adj[v], need - 1):
            return True
        cand &= ~(1 << v)
    return False


def _lex_smallest_clique(adj: list[int], n: int, size: int) -> int:
    """Greedily pick the smallest-index vertices that still allow a clique
    of the target size; yields the canonical witness."""
    chosen = 0
    cand = (1 << n) - 1
    need = size
    v = 0
    while need:
        bit = 1 << v
        if cand & bit and _clique_of_size_exists(adj, cand & adj[v], need - 1):
            chosen |= bit
            cand &= adj[v]
            need -= 1
        else:
            cand &= ~bit
        v += 1
    return chosen


def mcis(g, g2) -> tuple[int, frozenset[tuple[Hashable, Hashable]]]:
    """Maximum common node-induced subgraph size of two labeled digraphs,
    via the maximum clique of their compatibility graph.  The returned
    pairs are checked to be an isomorphism of the subgraphs they induce
    before reporting."""
    comp = compatibility_graph(g, g2)
    clique = max_clique(comp.graph)
    pairs = frozenset(comp.pair(i) for i in clique)
    _check_isomorphism(GraphView(g), GraphView(g2), pairs)
    return len(pairs), pairs


def _check_isomorphism(a: GraphView, b: GraphView, pairs) -> None:
    """Raise unless ``pairs`` is injective on both sides, keeps node labels,
    and keeps the edge label (or absence) of every ordered pair of pairs."""
    injective = len({n for n, _ in pairs}) == len({n2 for _, n2 in pairs}) == len(pairs)
    if not (
        injective
        and all(a.label[n] == b.label[n2] for n, n2 in pairs)
        and all(_agrees(a, b, n, m, n2, m2) for n, n2 in pairs for m, m2 in pairs)
    ):
        raise RuntimeError("internal error: clique does not induce isomorphic subgraphs")


def dmces_via_clique(g: LabeledDigraph, g2: LabeledDigraph) -> DmcesOutcome:
    """Edge-overlap optimum through the clique reduction.

    Both inputs must be weakly connected, simple, and oriented.  The
    maximum clique of the compatibility graph of the two extended line
    digraphs gives the value; the matched source-edge pairs determine the
    node matching by reading off endpoints (consistent and injective for
    any clique, since shared endpoints on one side force the same sharing
    on the other)."""
    _require(g, g2)
    eld, eld2 = extended_line_digraph(g), extended_line_digraph(g2)
    comp = compatibility_graph(eld, eld2)
    clique = max_clique(comp.graph)
    edge_pairs = sorted(comp.pair(i) for i in clique)

    node_map: dict[str, str] = {}
    reverse: dict[str, str] = {}
    for (u, v), (u2, v2) in edge_pairs:
        for s, t in ((u, u2), (v, v2)):
            if node_map.get(s, t) != t or reverse.get(t, s) != s:
                raise RuntimeError("internal error: clique endpoints disagree")
            node_map[s] = t
            reverse[t] = s

    outcome = _outcome(g, g2, NodeMatching(node_map.items()), Solver.CLIQUE)
    if outcome.value != len(clique):
        raise RuntimeError("internal error: clique value does not match witness")
    return outcome
