"""Compatibility-graph construction and an exact maximum-clique solver.

The pipeline realized here: the edge-overlap value of two node-labeled
digraphs equals the maximum common node-induced subgraph size of their
extended line digraphs, which in turn is the maximum clique size of the
compatibility graph built from those.  :func:`mcis` is the last two steps
on any two graphs of this package.  :func:`dmces_via_clique` searches the
same compatibility graph as ``mcis(L(G), L(G'))``, vertex for vertex and
in the same order, but builds it straight from the two source digraphs
and never builds an extended line digraph; the winning edge pairs are
read back as a node matching on the original graphs.  ``mcis`` on two
extended line digraphs that carry their simple, oriented sources runs
that same core on the sources (:func:`_edge_pair_clique`) and reads no
arc of either line digraph.

The compatibility graph has one vertex per label-matched pair (n, n') whose
self-loops agree (both absent, or both present with equal labels).  It
joins (n, n') and (m, m') when the ordered pairs (n, m) / (n', m') agree
(both edges present with equal edge labels, or both absent) in BOTH
orders, and the pairs share no coordinate.  The shared-coordinate
exclusion makes every clique project to an injective map on either side.

:class:`CompatibilityGraph` holds the pairs (``pair_index``) and one
neighbour bitmask per vertex (``adjacency``), which :func:`max_clique`
searches directly.  Neither build compares two vertices.  Each puts the
other nodes ``m`` of a node ``n`` into a handful of signature classes and
ORs together the masks of their vertices; the neighbours of (n, n') are
then the vertices that lie in the same class on both sides, a few
big-integer operations per vertex.

- :func:`compatibility_graph` reads any graph through its ``nodes``,
  ``node_labels`` and ``edge_label_map`` and classes ``m`` by the
  signature (label of n -> m, label of m -> n).
- The clique route's own build has one vertex per pair of source edges
  (e, e') with equal (tail label, head label).  On a simple, oriented
  graph the other edges f of an edge e = (u, v) fall into five disjoint
  classes, the ELD relations of the pair (e, f): TT (f leaves u), HT in
  (f enters u), HT out (f leaves v), HH (f enters v) and none.  So one
  pass over the edges, which ORs the vertex masks of the edges out of
  and into every node, gives every class.

:func:`max_clique` is coloring branch and bound on those masks, with the
vertices relabelled by degree.  At every branch point it colors the
candidates greedily into independent classes, one bitmask per class, in
the bit-parallel way of BBMC (San Segundo, Rodriguez-Losada & Jimenez,
2011), and keeps only the classes whose color exceeds the floor: the
incumbent's size less the size of the clique being extended.  A clique
drawn from the classes at or below the floor cannot beat the incumbent.
Its witness is the lexicographically smallest maximum clique.

The clique route's witness is the set of endpoint pairs of the clique's
edge pairs, handed as it stands to the check every solver's witness
passes (``solvers._outcome``, linear in the graph sizes): injective,
label-preserving, and realizing as many edges as the clique has vertices.
A clique whose endpoints disagree sends some node two ways, or two nodes
one way, and fails that check's injectivity test.  A map that passes
keeps every endpoint equality, hence every ELD node label and every
HT/TT/HH relation among the edges it realizes, so this implies the
quadratic isomorphism check (:func:`_check_isomorphism`) that
:func:`mcis` runs on every other pair of graphs.  The same check covers
``mcis`` on two sourced line digraphs.

:func:`mcis_size`, the value path of ``d_n`` and of the CLI's plain
``mcis``, takes the same route and checks its clique the same way, but
stops after :func:`max_clique`'s size phase: it reads back the maximum
clique that the search found, not the canonical one, so it runs one
search and no witness walk.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable

from .core import Edge, LabeledDigraph, UndirectedGraph, _bits, _transpose
from .isomorphism import MISSING, require_same_kind
from .line_digraph import ExtendedLineDigraph
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
    """Build the compatibility graph of two graphs of the same kind
    (extended line digraphs welcome; their HT/TT/HH edge labels then take
    part in the agreement condition).  Raises :class:`KindMismatch` on two
    graphs of different kinds (see :func:`require_same_kind`)."""
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


def _edge_pair_graph(g: LabeledDigraph, g2: LabeledDigraph) -> CompatibilityGraph:
    """The compatibility graph of the extended line digraphs of two simple,
    oriented digraphs, built from the digraphs: equal to
    ``compatibility_graph(extended_line_digraph(g), extended_line_digraph(g2))``.

    Vertex ``i`` is the edge pair ``pair_index[i]``, in ``g.edges`` order
    and, within it, in ``g2.edges`` order.  The vertices of one edge of
    ``g`` are consecutive, and the vertices of the ``j``-th edge in a
    bucket of ``g2`` sit at offset ``j`` from the start of every edge of
    ``g`` in that bucket, so every edge's vertex mask is one shift."""
    # the edges of g2 by (tail label, head label), each bucket in edge order
    buckets: dict = {}
    for e2, key in zip(g2.edges, g2.endpoint_labels):
        buckets.setdefault(key, []).append(e2)
    pairs: list = []
    row_buckets, rows = [], {}
    starts: dict = {}  # bucket -> one bit at the first vertex of each edge of g
    for e, key in zip(g.edges, g.endpoint_labels):
        bucket = buckets.get(key, ())
        row_buckets.append(bucket)
        rows[e] = ((1 << len(bucket)) - 1) << len(pairs)
        starts[key] = starts.get(key, 0) | 1 << len(pairs)
        pairs.extend((e, e2) for e2 in bucket)
    cols = {
        e2: starts.get(key, 0) << j
        for key, bucket in buckets.items()
        for j, e2 in enumerate(bucket)
    }
    full = (1 << len(pairs)) - 1
    row_classes = _edge_classes(g, rows, full)
    col_classes = _edge_classes(g2, cols, full)
    adjacency = []
    for e, bucket in zip(g.edges, row_buckets):
        tt, ht_in, ht_out, hh, none = row_classes[e]
        for e2 in bucket:
            tt2, ht_in2, ht_out2, hh2, none2 = col_classes[e2]
            adjacency.append(
                tt & tt2 | ht_in & ht_in2 | ht_out & ht_out2 | hh & hh2 | none & none2
            )
    return CompatibilityGraph(tuple(pairs), tuple(adjacency))


def _compat_vertices(g: LabeledDigraph, g2: LabeledDigraph) -> int:
    """The vertex count k of :func:`_edge_pair_graph`, the compatibility
    graph the clique route would search: the edge pairs (e, e') with equal
    ``endpoint_labels``, counted per class; k <= |E| * |E'|.  It is the
    one cost measure of that route: every clique gate reads it, both in
    ``metric.choose_solver`` and in the audit (``bench.check_pair``)."""
    other = Counter(g2.endpoint_labels)
    return sum(n * other[key] for key, n in Counter(g.endpoint_labels).items())


def _edge_classes(g: LabeledDigraph, own: dict, full: int) -> dict:
    """For each edge ``(u, v)`` of ``g``, whose vertices have the mask
    ``own[(u, v)]``, the masks of the vertices of the other edges in each
    of its five classes: (TT, HT in, HT out, HH, none).  On a simple,
    oriented graph the classes are disjoint, and none of them holds the
    edge's own vertices: HT in and HT out never meet the edge itself."""
    out = dict.fromkeys(g.nodes, 0)
    into = dict.fromkeys(g.nodes, 0)
    for (u, v), mask in own.items():
        out[u] |= mask
        into[v] |= mask
    return {
        (u, v): (
            out[u] & ~mask,
            into[u],
            out[v],
            into[v] & ~mask,
            full & ~(out[u] | into[u] | out[v] | into[v]),
        )
        for (u, v), mask in own.items()
    }


def max_clique(g: UndirectedGraph | CompatibilityGraph) -> frozenset:
    """Exact maximum clique by branch and bound over the neighbour masks
    of ``g`` (an :class:`UndirectedGraph` or a :class:`CompatibilityGraph`):
    the size phase (:func:`_size_phase`), then the witness walk.

    The witness is canonical: the lexicographically smallest maximum clique
    in the node order of ``g``, whatever the relabel.  It walks the vertices
    in that order, holding the rest of a maximum clique that extends the
    vertices chosen so far (first the size phase's whole clique); a vertex
    in that rest is taken at once, any other only when a yes/no search
    finds a clique that completes the choice, which then becomes the rest
    held.  Every yes/no search reuses the size phase's ``nadj``.
    """
    nodes = g.nodes
    order, radj, nadj, need, known = _size_phase(g.adjacency)
    n = len(order)
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
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
            found, rest = _search(radj, nadj, cand & radj[p], (need - 2, 0), need - 1)
            if found < need - 1:
                cand &= ~bit
                continue
            known = rest
        witness.append(nodes[v])
        cand &= radj[p]
        need -= 1
    return frozenset(witness)


def _some_max_clique(g: UndirectedGraph | CompatibilityGraph) -> list:
    """A maximum clique of ``g``, not the canonical one: the size phase's
    clique (:func:`_size_phase`) mapped back through the relabel, with no
    witness walk.  For the callers that only need a clique's size, and
    check the clique they get."""
    nodes = g.nodes
    order, _, _, _, clique = _size_phase(g.adjacency)
    return [nodes[order[p]] for p in _bits(clique)]


def _size_phase(
    adj: tuple[int, ...],
) -> tuple[list[int], tuple[int, ...], tuple[int, ...], int, int]:
    """The size phase of :func:`max_clique` on the neighbour masks ``adj``,
    as ``(order, radj, nadj, size, clique)``.

    The search runs on the vertices relabelled by non-increasing degree
    (ties by index), the initial order of Tomita-style coloring branch and
    bound: position ``p`` is vertex ``order[p]``, ``radj`` holds the masks
    relabelled, and ``nadj`` the complements of their closed
    neighbourhoods, which the coloring reads.  At every branch point the
    candidates are greedily colored into independent classes, one bitmask
    each, in the bit-parallel way of BBMC (San Segundo et al., 2011; see
    :func:`_color_classes`).  A partial clique extends only through the
    classes whose color exceeds the floor, the incumbent's size less its
    own (see :func:`_search`), and branching works down from the highest
    color.  The search starts from a greedy clique as its incumbent, so a
    graph whose greedy clique meets the root color bound needs no
    branching.  ``clique`` is the mask, over positions, of the maximum
    clique of ``size`` vertices that the search found."""
    n = len(adj)
    degrees = [mask.bit_count() for mask in adj]
    order = sorted(range(n), key=degrees.__getitem__, reverse=True)
    # adj is symmetric, so its transpose in this order is adj relabelled
    radj = _transpose(adj, order)
    full = (1 << n) - 1
    nadj = tuple([full ^ mask ^ 1 << p for p, mask in enumerate(radj)])
    size, clique = _search(radj, nadj, full, _greedy_clique(radj), n)
    return order, radj, nadj, size, clique


def _greedy_clique(adj: tuple[int, ...]) -> tuple[int, int]:
    """A maximal clique, as (size, mask): from all vertices, take the lowest
    candidate and keep only its neighbours, until none is left.  On
    degree-relabelled masks that is the highest-degree vertex first."""
    size, clique, cand = 0, 0, (1 << len(adj)) - 1
    while cand:
        v = (cand & -cand).bit_length() - 1
        size, clique, cand = size + 1, clique | 1 << v, cand & adj[v]
    return size, clique


def _color_classes(
    nadj: tuple[int, ...], cand: int, floor: int
) -> tuple[int, list[int]]:
    """Greedy coloring of the candidate set ``cand``, as (top, classes).

    Color ``c`` is an independent set of the candidates that colors
    ``1 .. c-1`` left: it takes the lowest of them, keeps only those
    outside its closed neighbourhood (``nadj[v]`` is the complement of the
    closed neighbourhood of ``v``), takes the lowest of those, and so on.
    ``top`` is the number of colors, so no clique inside ``cand`` has more
    than ``top`` vertices.  Every color is built, but ``classes`` holds
    only the masks of the colors above ``floor``, in color order: a clique
    drawn from the lower ones alone has at most ``floor`` vertices."""
    classes = []
    color = 0
    while cand:
        color += 1
        avail, cls = cand, 0
        while avail:
            low = avail & -avail
            cls |= low
            avail &= nadj[low.bit_length() - 1]
        cand ^= cls
        if color > floor:
            classes.append(cls)
    return color, classes


def _search(
    adj: tuple[int, ...],
    nadj: tuple[int, ...],
    cand: int,
    incumbent: tuple[int, int],
    stop: int,
) -> tuple[int, int]:
    """The largest clique inside ``cand`` when it has more vertices than
    the ``incumbent`` (size, mask), as (size, mask); else the incumbent.
    Returns as soon as it holds a clique of ``stop`` vertices.  ``nadj``
    holds the complements of the closed neighbourhoods of ``adj``.

    Branch and bound on an explicit stack, so the clique size is not capped
    by the interpreter's recursion limit.  Each frame is ``[clique, size,
    cand, top, classes]``: ``classes`` are the color classes of the frame's
    candidates (see :func:`_color_classes`) whose color exceeded the floor
    ``best - size`` when the frame was made, and ``top`` is the color of
    the last class, so ``size + top`` bounds every clique the frame can
    still reach.  The frame branches on the highest vertex of its last
    class; when that class runs out, ``top`` drops by one.  The frame is
    popped as soon as ``size + top`` cannot beat the incumbent, which holds
    at the latest when its classes run out: ``top`` is then at most the
    floor, or 0 when the floor was negative and a larger clique has since
    been found.  ``cand`` drops each vertex once its branch is done."""
    best, best_clique = incumbent
    if not cand and best < 0:
        # an empty ``cand`` makes the root a leaf: the empty clique
        best, best_clique = 0, 0
    top, classes = _color_classes(nadj, cand, best)
    stack = [[0, 0, cand, top, classes]]
    while stack:
        clique, size, cand, top, classes = frame = stack[-1]
        if size + top <= best:
            stack.pop()
            continue
        cls = classes[-1]
        v = cls.bit_length() - 1
        bit = 1 << v
        if cls == bit:
            classes.pop()
            frame[3] = top - 1
        else:
            classes[-1] = cls ^ bit
        frame[2] = cand ^ bit
        clique, size, cand = clique | bit, size + 1, cand & adj[v]
        if cand:
            top, classes = _color_classes(nadj, cand, best - size)
            stack.append([clique, size, cand, top, classes])
        elif size > best:
            best, best_clique = size, clique
            if best >= stop:
                break
    return best, best_clique


def mcis(g, g2) -> tuple[int, frozenset[tuple[Hashable, Hashable]]]:
    """Maximum common node-induced subgraph size of two graphs of the same
    kind, via the maximum clique of their compatibility graph, with the
    clique's pairs: the canonical witness of :func:`max_clique`.  Raises
    :class:`KindMismatch` on two graphs of different kinds.

    Two extended line digraphs that both carry their (simple, oriented)
    source take the clique route's core on the sources (see
    :func:`_edge_pair_clique`): the same compatibility graph, vertex for
    vertex, so the same pairs, and the witness check of every solver,
    which implies the isomorphism check (see the module docstring).  Any
    other pair is searched through :func:`compatibility_graph`, and its
    pairs are checked to be an isomorphism of the subgraphs they induce
    before reporting."""
    return _mcis(g, g2, max_clique)


def mcis_size(g, g2) -> int:
    """The size that :func:`mcis` returns, by the same route and with the
    same check of the clique found, but without the witness walk: the
    clique is the one the size phase found (:func:`_some_max_clique`)."""
    return _mcis(g, g2, _some_max_clique)[0]


def _mcis(g, g2, clique_of) -> tuple[int, frozenset[tuple[Hashable, Hashable]]]:
    """:func:`mcis` with the clique search ``clique_of``, which returns the
    vertices of a maximum clique of a compatibility graph."""
    if (
        type(g) is type(g2) is ExtendedLineDigraph
        and g.source is not None
        and g2.source is not None
    ):
        pairs, _ = _edge_pair_clique(g.source, g2.source, clique_of)
        return len(pairs), pairs
    comp = compatibility_graph(g, g2)
    pairs = frozenset(comp.pair(i) for i in clique_of(comp))
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
        and all(
            ea.get((n, m), MISSING) == eb.get((n2, m2), MISSING)
            for n, n2 in pairs
            for m, m2 in pairs
        )
    ):
        raise RuntimeError("internal error: clique does not induce isomorphic subgraphs")


def _edge_pair_clique(
    g: LabeledDigraph, g2: LabeledDigraph, clique_of
) -> tuple[frozenset[tuple[Edge, Edge]], DmcesOutcome]:
    """The clique route's core on two simple, oriented digraphs: the
    maximum clique of :func:`_edge_pair_graph` that ``clique_of`` finds,
    as its set of edge pairs, and the outcome of the set of their endpoint
    pairs as a node matching.  That set goes straight to ``_outcome``,
    the one witness check.  For any clique it is a consistent, injective
    map, since shared endpoints on one side force the same sharing on the
    other; a clique whose endpoints disagree sends a node two ways or two
    nodes one way, which ``_outcome``'s injectivity test turns into an
    internal error."""
    comp = _edge_pair_graph(g, g2)
    pairs = frozenset(comp.pair(i) for i in clique_of(comp))
    ends = NodeMatching({end for e, e2 in pairs for end in zip(e, e2)})
    return pairs, _outcome(g, g2, len(pairs), ends, Solver.CLIQUE)


def dmces_via_clique(g: LabeledDigraph, g2: LabeledDigraph) -> DmcesOutcome:
    """Edge-overlap optimum through the clique reduction.

    Both inputs must be weakly connected, simple, and oriented.  The value
    is the maximum clique size of the compatibility graph of the two
    extended line digraphs, built from ``g`` and ``g2`` directly; the
    matched source-edge pairs determine the node matching by reading off
    endpoints.  The witness is checked as every solver's is (see the
    module docstring and :func:`_edge_pair_clique`)."""
    _require(g, g2)
    return _edge_pair_clique(g, g2, max_clique)[1]
