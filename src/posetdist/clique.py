"""Compatibility-graph construction and an exact maximum-clique solver.

The pipeline realized here: the edge-overlap value of two node-labeled
digraphs equals the maximum common node-induced subgraph size of their
extended line digraphs, which in turn is the maximum clique size of the
compatibility graph built from those.  :func:`mcis` is the last two steps
on any two graphs of this package; :func:`dmces_via_clique` is :func:`mcis`
on the two extended line digraphs, with the winning edge pairs read back
as a node matching on the original graphs.  So ``d_e(G, G')`` on the
clique route equals ``d_n(L(G), L(G'))`` by construction.

The compatibility graph has one vertex per label-matched pair (n, n') whose
self-loops agree (both absent, or both present with equal labels).  It
joins (n, n') and (m, m') when the ordered pairs (n, m) / (n', m') agree
(both edges present with equal edge labels, or both absent) in BOTH
orders, and the pairs share no coordinate.  The shared-coordinate
exclusion makes every clique project to an injective map on either side.

:class:`CompatibilityGraph` holds the pairs (``pair_index``) and one
neighbour bitmask per vertex (``adjacency``), which :func:`max_clique`
searches directly.  The build never compares two vertices: it groups the
other nodes ``m`` of each node ``n`` by the signature (label of n -> m,
label of m -> n), a handful of classes (on an extended line digraph: HT
out, HT in, TT, HH and not adjacent), and ORs together the masks of their
vertices.  The neighbours of (n, n') are then the vertices that lie in the
same signature class on both sides, so the build costs a few big-integer
operations per vertex.

Every graph is read directly through its ``nodes``, ``node_labels`` and
``edge_label_map``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable

from .core import LabeledDigraph, UndirectedGraph, _bits
from .isomorphism import MISSING, require_same_kind
from .line_digraph import extended_line_digraph
from .solvers import DmcesOutcome, NodeMatching, Solver, _outcome, _require


@dataclass(frozen=True)
class CompatibilityGraph:
    """The compatibility graph on vertices ``0 .. k-1``: vertex ``i`` stands
    for ``pair_index[i]``, and bit ``j`` of ``adjacency[i]`` is set when
    vertices ``i`` and ``j`` are adjacent."""

    pair_index: tuple[tuple[Hashable, Hashable], ...]
    adjacency: tuple[int, ...]

    @property
    def nodes(self) -> range:
        return range(len(self.pair_index))

    @cached_property
    def graph(self) -> UndirectedGraph:
        """The same graph as an :class:`UndirectedGraph` on the vertex ids."""
        edges = (
            (i, j)
            for i, mask in enumerate(self.adjacency)
            for j in _bits(mask >> (i + 1) << (i + 1))
        )
        return UndirectedGraph(self.nodes, edges)

    def pair(self, node: int) -> tuple[Hashable, Hashable]:
        return self.pair_index[node]


def compatibility_graph(g, g2) -> CompatibilityGraph:
    """Build the compatibility graph of two graphs of the same type
    (extended line digraphs welcome; their HT/TT/HH edge labels then take
    part in the agreement condition).  Raises :class:`KindMismatch` on two
    graphs of different types."""
    require_same_kind(g, g2)
    labels, labels2 = g.node_labels, g2.node_labels
    ea, eb = g.edge_label_map, g2.edge_label_map
    # the nodes of g2 by (label, self-loop label), each bucket in node order
    buckets: dict = {}
    for n2 in g2.nodes:
        buckets.setdefault((labels2[n2], eb.get((n2, n2), MISSING)), []).append(n2)
    pairs = [
        (n, n2)
        for n in g.nodes
        for n2 in buckets.get((labels[n], ea.get((n, n), MISSING)), ())
    ]
    rows = dict.fromkeys(g.nodes, 0)
    cols = dict.fromkeys(g2.nodes, 0)
    for i, (n, n2) in enumerate(pairs):
        rows[n] |= 1 << i
        cols[n2] |= 1 << i
    full = (1 << len(pairs)) - 1
    row_groups = _signature_groups(ea, rows, full)
    col_groups = _signature_groups(eb, cols, full)
    adjacency = []
    for n, n2 in pairs:
        row, col = row_groups[n], col_groups[n2]
        mask = 0
        for sig, group in row.items():
            if sig in col:
                mask |= group & col[sig]
        adjacency.append(mask)
    return CompatibilityGraph(tuple(pairs), tuple(adjacency))


def _signature_groups(edge_labels: dict, own: dict, full: int) -> dict:
    """For every node ``n``, the vertices of the other nodes ``m`` grouped
    by the signature ``(label of n -> m, label of m -> n)``, ``MISSING``
    for an absent edge; ``own[m]`` is the mask of the vertices of ``m``.
    Self-loops join no group; vertex admission compares them."""
    sig: dict = {n: {} for n in own}
    for (u, v), label in edge_labels.items():
        if u != v:
            back = edge_labels.get((v, u), MISSING)
            sig[u][v] = (label, back)
            sig[v][u] = (back, label)
    groups = {}
    for n, by_node in sig.items():
        seen = own[n]
        grouped: dict = {}
        for m, s in by_node.items():
            grouped[s] = grouped.get(s, 0) | own[m]
            seen |= own[m]
        grouped[(MISSING, MISSING)] = full & ~seen
        groups[n] = grouped
    return groups


def _agrees(ea: dict, eb: dict, n, m, n2, m2) -> bool:
    return ea.get((n, m), MISSING) == eb.get((n2, m2), MISSING)


def max_clique(g: UndirectedGraph | CompatibilityGraph) -> frozenset:
    """Exact maximum clique by branch and bound over the neighbour masks
    of ``g`` (an :class:`UndirectedGraph` or a :class:`CompatibilityGraph`).

    The search runs on the vertices relabelled by non-increasing degree
    (ties by index), the initial order of Tomita-style coloring branch and
    bound.  Candidates are greedily colored at every branch point; a partial
    clique extends only through vertices whose color class count can still
    beat the incumbent, and branching works down from the highest color.

    The witness is canonical: the lexicographically smallest maximum clique
    in the node order of ``g``, whatever the relabel.  It walks the vertices
    in that order, holding the rest of a maximum clique that extends the
    vertices chosen so far (first the size phase's whole clique); a vertex
    in that rest is taken at once, any other only when a yes/no search
    finds a clique that completes the choice, which then becomes the rest
    held.
    """
    nodes, adj = g.nodes, g.adjacency
    n = len(nodes)
    degrees = [mask.bit_count() for mask in adj]
    order = sorted(range(n), key=degrees.__getitem__, reverse=True)
    radj = _relabel(adj, order)
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p

    need, known = _search(radj, (1 << n) - 1, 0, n)
    witness = []
    cand = (1 << n) - 1
    for v in range(n):
        if not need:
            break
        p = pos[v]
        bit = 1 << p
        if not cand & bit:
            continue
        if not known & bit:
            found, rest = _search(radj, cand & radj[p], need - 2, need - 1)
            if found < need - 1:
                cand &= ~bit
                continue
            known = rest
        witness.append(nodes[v])
        cand &= radj[p]
        need -= 1
    return frozenset(witness)


def _relabel(adj: tuple[int, ...], order: list[int]) -> tuple[int, ...]:
    """The neighbour masks with vertex ``order[p]`` renamed ``p``: bit ``q``
    of mask ``p`` is bit ``order[q]`` of mask ``order[p]``.

    The masks are written out as one string of binary rows, last position
    first, and read back by column: by symmetry, column ``order[q]`` read
    over the rows is mask ``q``.  Every step is a C-level string or integer
    operation, one per vertex."""
    n = len(order)
    width = f"0{n}b"
    rows = "".join([format(adj[v], width) for v in reversed(order)])
    return tuple([int(rows[n - 1 - v :: n], 2) for v in order])


def _color_order(adj: tuple[int, ...], cand: int) -> list[tuple[int, int]]:
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


def _search(adj: tuple[int, ...], cand: int, floor: int, stop: int) -> tuple[int, int]:
    """The largest clique inside ``cand`` when it has more than ``floor``
    vertices, as (size, mask); else ``(floor, 0)``.  Returns as soon as it
    holds a clique of ``stop`` vertices.

    Branch and bound on an explicit stack, so the clique size is not capped
    by the interpreter's recursion limit.  Each frame is ``[clique, size,
    cand, order]``: ``order`` is the greedy coloring of the frame's
    candidates, branched on from its last entry (the highest color) until
    ``size + color`` cannot beat the incumbent; ``cand`` drops each vertex
    once its branch is done."""
    # an empty ``cand`` makes the root a leaf: the empty clique
    best, best_clique = (floor if cand else max(floor, 0)), 0
    stack = [[0, 0, cand, _color_order(adj, cand)]]
    while stack:
        clique, size, cand, order = frame = stack[-1]
        if not order or size + order[-1][1] <= best:
            stack.pop()
            continue
        v = order.pop()[0]
        frame[2] = cand & ~(1 << v)
        clique, size, cand = clique | 1 << v, size + 1, cand & adj[v]
        if cand:
            stack.append([clique, size, cand, _color_order(adj, cand)])
        elif size > best:
            best, best_clique = size, clique
            if best >= stop:
                break
    return best, best_clique


def mcis(g, g2) -> tuple[int, frozenset[tuple[Hashable, Hashable]]]:
    """Maximum common node-induced subgraph size of two graphs of the same
    type, via the maximum clique of their compatibility graph.  The
    returned pairs are checked to be an isomorphism of the subgraphs they
    induce before reporting.  Raises :class:`KindMismatch` on two graphs
    of different types."""
    comp = compatibility_graph(g, g2)
    pairs = frozenset(comp.pair(i) for i in max_clique(comp))
    _check_isomorphism(g, g2, pairs)
    return len(pairs), pairs


def _check_isomorphism(g, g2, pairs) -> None:
    """Raise unless ``pairs`` is injective on both sides, keeps node labels,
    and keeps the edge label (or absence) of every ordered pair of pairs."""
    labels, labels2 = g.node_labels, g2.node_labels
    ea, eb = g.edge_label_map, g2.edge_label_map
    injective = len({n for n, _ in pairs}) == len({n2 for _, n2 in pairs}) == len(pairs)
    if not (
        injective
        and all(labels[n] == labels2[n2] for n, n2 in pairs)
        and all(_agrees(ea, eb, n, m, n2, m2) for n, n2 in pairs for m, m2 in pairs)
    ):
        raise RuntimeError("internal error: clique does not induce isomorphic subgraphs")


def dmces_via_clique(g: LabeledDigraph, g2: LabeledDigraph) -> DmcesOutcome:
    """Edge-overlap optimum through the clique reduction.

    Both inputs must be weakly connected, simple, and oriented.  The value
    is :func:`mcis` of the two extended line digraphs; the matched
    source-edge pairs determine the node matching by reading off endpoints
    (consistent and injective for any clique, since shared endpoints on
    one side force the same sharing on the other)."""
    _require(g, g2)
    size, pairs = mcis(extended_line_digraph(g), extended_line_digraph(g2))

    node_map: dict[str, str] = {}
    reverse: dict[str, str] = {}
    for (u, v), (u2, v2) in sorted(pairs):
        for s, t in ((u, u2), (v, v2)):
            if node_map.get(s, t) != t or reverse.get(t, s) != s:
                raise RuntimeError("internal error: clique endpoints disagree")
            node_map[s] = t
            reverse[t] = s

    outcome = _outcome(g, g2, NodeMatching(node_map.items()), Solver.CLIQUE)
    if outcome.value != size:
        raise RuntimeError("internal error: clique value does not match witness")
    return outcome
