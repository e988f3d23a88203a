"""Node-labeled digraphs, structural predicates, and order utilities.

The whole package works on two graph value types defined here:
:class:`LabeledDigraph` (directed, node-labeled) and
:class:`UndirectedGraph` (plain, unlabeled).  Both are immutable after
construction and iterate nodes/edges in deterministic insertion order, so
every algorithm downstream is reproducible run to run.  A
:class:`PosetDigraph` is a :class:`LabeledDigraph` whose constructor
proves the poset rules, so every function on digraphs takes one.

Every graph routine here (the structural report, topological order,
transitive closure and reduction, poset construction, ancestors and line
graphs) works on the graph's own adjacency, mostly as one out- and one
in-neighbour bitmask per node; the package needs nothing beyond the
standard library.  One pass of the constructor over the edges builds the
masks and checks the edges: an endpoint that is not declared fails its
index lookup there, and a repeated edge shows as fewer mask bits than
edges.  Graphs derived from masks (closure, reduction, the poset build)
are built straight from their out-masks and skip that pass.  A graph
caches what these routines derive from it: the skip skeleton, the
structural report and the topological order.  The skip skeleton keeps,
per node, only the out-neighbours that the closure test had to visit; on
a transitively closed DAG every edge is a path in it, so the chain test
and the topological order work on it instead of on every edge.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, compress, repeat
from operator import and_, itemgetter, or_
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import (
    AntisymmetryViolation,
    CycleDetected,
    DegeneratePoset,
    NotTransitivelyClosed,
    NotWeaklyConnected,
    PropertyViolation,
)

NodeId = str
Edge = tuple[NodeId, NodeId]


@dataclass(frozen=True)
class LabeledDigraph:
    """A finite digraph with a label on every node.

    Parameters
    ----------
    nodes : sequence of str
        Node ids, unique, kept in insertion order.
    node_labels : mapping id -> str
        A label for every declared node.
    edges : iterable of (str, str)
        Directed edges between declared nodes.  Duplicates are dropped
        (the edge container has set semantics); the first occurrence fixes
        iteration order.

    One pass over the edges builds the neighbour bitmasks
    (``adjacency_masks``) and checks the edges: an entry that is no pair
    fails to unpack (ValueError), an unhashable endpoint fails its lookup
    (TypeError), and an undeclared one raises a ValueError naming the
    first bad edge.

    Self-loops and 2-cycles are representable; they are reported (not
    rejected) by :func:`validate_properties` and rejected only by the
    operations whose contracts require their absence.
    """

    nodes: tuple[NodeId, ...]
    node_labels: dict[NodeId, str]
    edges: tuple[Edge, ...]
    #: ``(index, out, inn)``: the position of every node in ``nodes``, and
    #: one out- and one in-neighbour bitmask per node, as tuples.  Bit
    #: ``j`` of ``out[i]`` is set when the graph has the edge
    #: ``nodes[i] -> nodes[j]``, and then bit ``i`` of ``inn[j]`` is set
    #: too.  Built with the graph; validation and the order searches of
    #: :mod:`posetdist.solvers` only read it.
    adjacency_masks: tuple[dict[NodeId, int], tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __init__(
        self,
        nodes: Iterable[NodeId],
        node_labels: Mapping[NodeId, str],
        edges: Iterable[tuple[NodeId, NodeId]],
    ):
        node_tup = tuple(nodes)
        n = len(node_tup)
        index = dict(zip(node_tup, range(n)))
        if len(index) != n:
            raise ValueError("duplicate node ids")
        labels = {v: node_labels[v] for v in node_tup}  # KeyError = missing label
        pairs = list(map(tuple, edges))
        bit = [1 << i for i in range(n)]
        out = [0] * n
        inn = [0] * n
        try:
            for u, v in pairs:
                i = index[u]
                j = index[v]
                out[i] |= bit[j]
                inn[j] |= bit[i]
        except KeyError:
            # an undeclared endpoint: walk again to name the first bad edge
            for u, v in pairs:
                if u not in index or v not in index:
                    raise ValueError(
                        f"edge ({u!r}, {v!r}) references an undeclared node"
                    ) from None
        # every distinct edge sets its own bit, so a repeat leaves fewer
        # bits than pairs
        if sum(map(int.bit_count, out)) != len(pairs):
            pairs = dict.fromkeys(pairs)
        _set_graph(self, node_tup, labels, tuple(pairs), (index, tuple(out), tuple(inn)))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def edge_label_map(self) -> dict[Edge, None]:
        """Every edge mapped to None: the edges of this type carry no label."""
        return dict.fromkeys(self.edges)

    @cached_property
    def skeleton(self) -> tuple[int, ...] | None:
        """Per node, the mask of the out-neighbours that the skip test of
        :func:`_skip_skeleton` took, computed once per graph object.  None
        unless the graph is oriented (so simple too) and passes that test,
        that is, unless it is a transitively closed DAG; every edge of such
        a graph is a path in its skeleton."""
        _, out, inn = self.adjacency_masks
        if not _is_oriented(out, inn):
            return None
        return _skip_skeleton(out)

    @cached_property
    def topological_order(self) -> tuple[NodeId, ...]:
        """The nodes in :func:`topological_sort`'s order, computed once per
        graph object.  A cyclic graph caches nothing: every read runs Kahn
        again and raises :class:`CycleDetected`."""
        return _smallest_first_order(self)

    @cached_property
    def report(self) -> "PropertyReport":
        """The structural report, computed once per graph object."""
        return validate_properties(self)

    @cached_property
    def endpoint_labels(self) -> tuple[tuple[str, str], ...]:
        """Per edge, in ``edges`` order, its (tail label, head label): the
        label of its node in the extended line digraph, and the class the
        clique route matches it in.  Built once per graph object, in
        C-level passes over the edges."""
        label, edges = self.node_labels.__getitem__, self.edges
        tails, heads = map(itemgetter(0), edges), map(itemgetter(1), edges)
        return tuple(zip(map(label, tails), map(label, heads)))

    @cached_property
    def label_classes(self) -> dict[str, tuple[NodeId, ...]]:
        """Nodes grouped by label, insertion order inside each class."""
        classes: dict[str, list[NodeId]] = {}
        for v in self.nodes:
            classes.setdefault(self.node_labels[v], []).append(v)
        return {a: tuple(vs) for a, vs in classes.items()}

    @cached_property
    def label_indices(self) -> dict[str, tuple[int, ...]]:
        """Per label, the positions in ``nodes`` of its class, in id order:
        the candidate images of the order searches, built once per graph
        object."""
        index = self.adjacency_masks[0]
        return {
            a: tuple(map(index.__getitem__, sorted(vs)))
            for a, vs in self.label_classes.items()
        }

    @cached_property
    def label_masks(self) -> dict[str, int]:
        """Per label, the bitmask of its class over positions in ``nodes``,
        built once per graph object."""
        index = self.adjacency_masks[0]
        return {
            a: sum(1 << index[v] for v in vs) for a, vs in self.label_classes.items()
        }

    def relabel(self, mapping: Mapping[NodeId, NodeId]) -> "LabeledDigraph":
        """Rename nodes by a bijective id mapping, labels carried along."""
        return LabeledDigraph(
            [mapping[v] for v in self.nodes],
            {mapping[v]: self.node_labels[v] for v in self.nodes},
            [(mapping[u], mapping[v]) for u, v in self.edges],
        )


def _set_graph(g: LabeledDigraph, nodes, labels, edges, masks) -> None:
    """Set the fields of a new graph ``g``."""
    object.__setattr__(g, "nodes", nodes)
    object.__setattr__(g, "node_labels", labels)
    object.__setattr__(g, "edges", edges)
    object.__setattr__(g, "adjacency_masks", masks)


def _masked(g: LabeledDigraph, out: Sequence[int]) -> LabeledDigraph:
    """The graph on the nodes and labels of ``g`` whose out-masks are
    ``out``, built straight from them: its edges are read off ``out`` by
    :func:`_edges` (sorted) and its in-masks are :func:`_transpose` of
    ``out``.  The edges come from the masks, so there is nothing to check;
    the graph equals ``LabeledDigraph(g.nodes, g.node_labels, edges)``.
    When ``out`` is the out-masks of ``g`` itself, the graph takes the
    in-masks of ``g`` and, if ``g`` has computed it, its skip skeleton,
    which depends on the masks alone."""
    nodes = g.nodes
    index, own_out, own_inn = g.adjacency_masks
    same = out is own_out
    inn = own_inn if same else _transpose(out, range(len(nodes)))
    h = object.__new__(LabeledDigraph)
    masks = (index, tuple(out), inn)
    _set_graph(h, nodes, dict(g.node_labels), tuple(_edges(nodes, out)), masks)
    if same and "skeleton" in vars(g):
        vars(h)["skeleton"] = g.skeleton
    return h


@dataclass(frozen=True)
class UndirectedGraph:
    """A simple undirected graph; nodes are arbitrary hashables.

    Edges are stored as sorted 2-tuples.  Self-loops are rejected and
    duplicate edges collapse, matching the set semantics of the directed
    type.
    """

    nodes: tuple[Hashable, ...]
    edges: tuple[tuple[Hashable, Hashable], ...]

    def __init__(self, nodes: Iterable[Hashable], edges: Iterable[tuple]):
        node_tup = tuple(nodes)
        if len(set(node_tup)) != len(node_tup):
            raise ValueError("duplicate node ids")
        node_set = set(node_tup)
        seen: set[tuple] = set()
        edge_list: list[tuple] = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u!r}, {v!r}) references an undeclared node")
            key = tuple(sorted((u, v)))
            if key not in seen:
                seen.add(key)
                edge_list.append(key)
        object.__setattr__(self, "nodes", node_tup)
        object.__setattr__(self, "edges", tuple(edge_list))

    @cached_property
    def edge_set(self) -> frozenset[tuple]:
        return frozenset(self.edges)

    @cached_property
    def node_labels(self) -> dict[Hashable, None]:
        """Every node mapped to None: the nodes of this type carry no label."""
        return dict.fromkeys(self.nodes)

    @cached_property
    def edge_label_map(self) -> dict[tuple, None]:
        """Both orientations of every edge mapped to None, so the graph reads
        as a symmetric digraph, which keeps its isomorphism relation."""
        return dict.fromkeys(e for u, v in self.edges for e in ((u, v), (v, u)))

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """One neighbour bitmask per node, bit ``j`` for ``nodes[j]``."""
        index = {v: i for i, v in enumerate(self.nodes)}
        adj = [0] * len(self.nodes)
        for u, v in self.edges:
            iu, iv = index[u], index[v]
            adj[iu] |= 1 << iv
            adj[iv] |= 1 << iu
        return tuple(adj)

    def has_edge(self, u, v) -> bool:
        return tuple(sorted((u, v))) in self.edge_set


@dataclass(frozen=True)
class PropertyReport:
    """Structural facts about a :class:`LabeledDigraph`, computed exactly."""

    is_weakly_connected: bool
    is_simple: bool
    is_oriented: bool
    is_acyclic: bool
    is_transitively_closed: bool
    per_label_path: bool

    @property
    def is_wso(self) -> bool:
        return self.is_weakly_connected and self.is_simple and self.is_oriented


class PosetDigraph(LabeledDigraph):
    """A digraph proven to come from a labeled partial order: a
    :class:`LabeledDigraph` that is weakly connected, simple, oriented,
    acyclic, transitively closed, and has at least one edge.  Build one
    with :func:`build_poset_digraph`, or from an existing transitively
    closed graph, whose fields and cached views it takes over; the
    constructor raises the first poset rule the graph breaks.  Every
    function that takes a digraph takes a poset."""

    def __init__(self, graph: LabeledDigraph):
        vars(self).update(vars(graph))
        report = self.report
        if not report.is_simple:
            raise PropertyViolation("poset digraph must be simple")
        if not report.is_oriented:
            raise AntisymmetryViolation("order relation contains a 2-cycle")
        if not report.is_acyclic:
            raise CycleDetected("order relation contains a directed cycle")
        if not report.is_transitively_closed:
            raise NotTransitivelyClosed("poset digraph must be transitively closed")
        # before connectivity: an edgeless graph of two or more nodes is
        # degenerate first
        if not self.edges:
            raise DegeneratePoset("order relation yields no edges")
        if not report.is_weakly_connected:
            raise NotWeaklyConnected("poset digraph must be weakly connected")

    @property
    def graph(self) -> "PosetDigraph":
        """The poset itself, which is its own digraph."""
        return self

    @property
    def per_label_path(self) -> bool:
        return self.report.per_label_path


def validate_properties(g: LabeledDigraph) -> PropertyReport:
    """Compute the structural report for ``g``; never rejects.

    Flags, each checked from the definition:

    - weakly connected: an undirected path joins every node pair;
    - simple: no self-loops (duplicate edges cannot be represented);
    - oriented: no pair of opposing edges (u,v), (v,u);
    - acyclic: no directed cycle;
    - transitively closed: (u,v), (v,w) in the edge set with u != w
      implies (u,w) is too;
    - per_label_path: every label class induces an acyclic subgraph whose
      transitive reduction is a single directed chain covering the class
      (a literal path and the closure of a path both qualify).

    Every flag is read off the graph's cached bitmasks,
    ``g.adjacency_masks``, and its cached skip skeleton, ``g.skeleton``.
    On an oriented graph the skip test decides closure exactly, and a
    closed oriented graph is acyclic, so only graphs without a skeleton
    need the full closure test or Kahn's algorithm.
    """
    index, out, inn = g.adjacency_masks
    n = len(index)
    everything = (1 << n) - 1
    skeleton = g.skeleton
    oriented = skeleton is not None or _is_oriented(out, inn)
    classes = g.label_masks.values()
    if skeleton is not None:
        closed = acyclic = True
        per_label = all(_is_chain(out, c) for c in classes)
    else:
        # the skip test found an oriented graph open; any other graph gets
        # the full test: per node, the out-masks of its out-neighbours must
        # stay inside its own out-mask (or be the node itself)
        closed = not oriented and all(
            not _union(out, o) & ~(o | 1 << i) for i, o in enumerate(out)
        )
        # a self-loop or a 2-cycle is a cycle
        acyclic = oriented and len(_peel(out, inn, everything)[0]) == n
        per_label = all(_unique_order(out, inn, c) for c in classes)
    return PropertyReport(
        is_weakly_connected=_weakly_connected(g),
        is_simple=_is_simple(out),
        is_oriented=oriented,
        is_acyclic=acyclic,
        is_transitively_closed=closed,
        per_label_path=per_label,
    )


def _is_simple(out: Sequence[int]) -> bool:
    """True iff no node's out-mask ``out[i]`` holds its own bit ``i``: the
    graph has no self-loop."""
    return not any(o >> i & 1 for i, o in enumerate(out))


def _is_oriented(out: Sequence[int], inn: Sequence[int]) -> bool:
    """True iff no node has a neighbour that is both an out- and an
    in-neighbour: the graph has no pair of opposing edges, a self-loop
    counting as its own opposite."""
    return not any(map(and_, out, inn))


def _weakly_connected(g: LabeledDigraph) -> bool:
    """True iff an undirected path joins every node pair of ``g``: one
    :func:`_reach` from the first node over ``g.adjacency_masks``, each
    node's out- and in-mask ORed."""
    _, out, inn = g.adjacency_masks
    n = len(out)
    return n <= 1 or _reach(list(map(or_, out, inn)), 1) == (1 << n) - 1


def _skip_skeleton(out: Sequence[int]) -> tuple[int, ...] | None:
    """The skip test for transitive closure, and the skeleton it leaves.

    For each node ``i``, walk its out-neighbours lowest bit first.  Each
    neighbour ``j`` taken ORs ``out[j]`` into a union and drops ``out[j]``
    from the neighbours left, so only the taken ones cost a step.  Node
    ``i`` passes when the union lies inside ``out[i]`` plus ``i`` itself.
    Returns the masks of the taken neighbours, or None at the first node
    that fails.

    A closed graph passes.  On a simple, oriented graph where every node
    passes, the graph is closed, by induction on the out-degree: the claim
    for ``i`` is that ``out[j]`` lies inside ``out[i]`` plus ``i`` for
    every ``j`` in ``out[i]``.  A taken ``k`` passes that by the test, and
    since it has no self-loop and no edge back to ``i``, ``out[k]`` lies
    inside ``out[i]`` minus ``k``, so the claim holds for ``k``.  A skipped
    ``j`` lies in ``out[k]`` for some taken ``k``, so ``out[j]`` lies
    inside ``out[k]`` plus ``k``, inside ``out[i]``.  The same induction
    makes every edge a path of taken edges, in any walk order.  With a
    self-loop or a 2-cycle an open graph can pass, so callers test
    orientation first.
    """
    skeleton = []
    for i, o in enumerate(out):
        left = o
        union = taken = 0
        while left:
            low = left & -left
            below = out[low.bit_length() - 1]
            taken |= low
            union |= below
            left &= ~(below | low)
        if union & ~(o | 1 << i):
            return None
        skeleton.append(taken)
    return tuple(skeleton)


def _is_chain(out: Sequence[int], mask: int) -> bool:
    """True iff every two nodes of ``mask`` are joined by an edge, counted
    as one popcount per node.  On a closed DAG that holds exactly when the
    nodes of ``mask`` form one chain."""
    m = mask.bit_count()
    return sum((out[i] & mask).bit_count() for i in _bits(mask)) == m * (m - 1) // 2


def _bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bit_flags(mask: int) -> bytes:
    """The bits of ``mask`` as the bytes 0 and 1, lowest bit first, up to
    its highest set bit (one 0 for the empty mask): a selector for
    :func:`itertools.compress`."""
    return format(mask, "b").encode().translate(_BIT_BYTES)[::-1]


def _dense(mask: int) -> bool:
    """True when :func:`_image` sums over ``mask`` with one ``compress``.

    ``compress`` costs about as much as walking seven set bits, plus one
    bit per sixteen positions of the mask's bit length: the crossover of
    the two ways on tables of single bits, at bit lengths 10 to 400 (2
    vCPU, Python 3.11)."""
    return mask.bit_count() * 16 > mask.bit_length() + 112


def _image(mask: int, table: Sequence[int]) -> int:
    """The sum of ``table[i]`` over the set bits ``i`` of ``mask``; the OR
    of them when the entries share no bit, as the image bits of an
    injective map do.  A :func:`_dense` mask is one C-level ``compress``
    of ``table`` by its :func:`_bit_flags`; any other walks its set bits,
    lowest first."""
    if _dense(mask):
        return sum(compress(table, _bit_flags(mask)))
    image = 0
    while mask:
        low = mask & -mask
        image += table[low.bit_length() - 1]
        mask ^= low
    return image


def _descendants(g: LabeledDigraph) -> Sequence[int]:
    """Mask of the nodes reachable from each node of ``g`` by a path of one
    or more edges.  A node on a cycle, a self-loop included, has its own
    bit.

    A graph with a skip skeleton (``g.skeleton``) is a closed DAG, so its
    out-masks are its descendant masks, and no Kahn pass runs.  On any
    other DAG the masks are taken along Kahn's order
    (:func:`_descendants_along`).  Kahn leaves out every node that a cycle
    reaches, so on a cyclic graph each node gets its mask by a direct
    search instead.
    """
    _, out, inn = g.adjacency_masks
    if g.skeleton is not None:
        return out
    n = len(out)
    order = _peel(out, inn, (1 << n) - 1)[0]
    if len(order) < n:
        return [_reach(out, o) for o in out]
    return _descendants_along(out, order)


def _descendants_along(out: Sequence[int], order: Sequence[int]) -> list[int]:
    """The descendant masks of a DAG with out-masks ``out``, given one of
    its topological orders: in reverse order, each node takes the OR over
    its out-neighbours' masks, which are final by then."""
    desc = [0] * len(out)
    for i in reversed(order):
        desc[i] = out[i] | _union(desc, out[i])
    return desc


def _union(masks: Sequence[int], mask: int) -> int:
    """The OR of ``masks[j]`` over the set bits ``j`` of ``mask``."""
    union = 0
    while mask:
        low = mask & -mask
        union |= masks[low.bit_length() - 1]
        mask ^= low
    return union


def _reach(adj: Sequence[int], seen: int) -> int:
    """Mask of the nodes of ``seen`` and of every node reachable from them
    along the neighbour masks ``adj``."""
    frontier = seen
    while frontier:
        frontier = _union(adj, frontier) & ~seen
        seen |= frontier
    return seen


def _peel(out: Sequence[int], inn: Sequence[int], mask: int) -> tuple[list[int], bool]:
    """Kahn's algorithm on the subgraph induced by ``mask``.

    Returns the nodes in the order it removed them, which is all of them
    exactly when the subgraph is acyclic (a node on or after a cycle,
    self-loops included, never becomes a source), and whether exactly one
    source was ready at every step.
    """
    indeg = {i: (inn[i] & mask).bit_count() for i in _bits(mask)}
    ready = [i for i, d in indeg.items() if not d]
    order = []
    unique = True
    while ready:
        unique = unique and len(ready) == 1
        i = ready.pop()
        order.append(i)
        for j in _bits(out[i] & mask):
            indeg[j] -= 1
            if not indeg[j]:
                ready.append(j)
    return order, unique


def _unique_order(out: Sequence[int], inn: Sequence[int], mask: int) -> bool:
    """True iff the subgraph induced by ``mask`` is acyclic and its
    transitive reduction is one directed path through all of it, that is,
    iff it has exactly one topological order."""
    order, unique = _peel(out, inn, mask)
    return unique and len(order) == mask.bit_count()


def induced_subgraph(g: LabeledDigraph, keep: Iterable[NodeId]) -> LabeledDigraph:
    """Node-induced subgraph on ``keep`` (order inherited from ``g``)."""
    keep_set = set(keep)
    return LabeledDigraph(
        [v for v in g.nodes if v in keep_set],
        {v: g.node_labels[v] for v in g.nodes if v in keep_set},
        [(u, v) for u, v in g.edges if u in keep_set and v in keep_set],
    )


def build_poset_digraph(
    elements: Iterable[tuple[NodeId, str]],
    relations: Iterable[tuple[NodeId, NodeId]],
) -> PosetDigraph:
    """Build the digraph of a labeled partial order.

    ``relations`` lists pairs (p, q) meaning p <= q.  The relation goes,
    reflexive pairs included, to :class:`LabeledDigraph`, whose
    constructor is the one check of element ids and endpoints.  Reflexive
    pairs are then stripped from its masks, the relation is completed to
    its transitive closure by :func:`_descendants` (a relation that is
    already closed is its own closure: no Kahn pass runs, and the result
    takes the relation's in-masks and skip skeleton, see :func:`_masked`),
    and an edge (p, q) is created for every p <= q with p != q.  The remaining poset
    rules are :class:`PosetDigraph`'s own checks.

    Raises
    ------
    ValueError
        if an element id repeats or a relation names an undeclared element.
    AntisymmetryViolation
        if the closure relates two distinct elements both ways.
    DegeneratePoset
        if no edges remain after stripping reflexivity.
    NotWeaklyConnected
        if the resulting digraph is not weakly connected.
    """
    elems = list(elements)
    related = LabeledDigraph([e for e, _ in elems], dict(elems), relations)
    out = related.adjacency_masks[1]
    if not _is_simple(out):
        related = _masked(related, [o & ~(1 << i) for i, o in enumerate(out)])
        out = related.adjacency_masks[1]
    desc = _descendants(related)
    for i, d in enumerate(desc):
        if d >> i & 1:
            # the first element on a cycle, and its smallest successor back
            ids = related.nodes
            p = ids[i]
            q = min(ids[j] for j in _bits(out[i]) if desc[j] >> i & 1)
            raise AntisymmetryViolation(f"{p!r} <= {q!r} and {q!r} <= {p!r}")
    return PosetDigraph(_masked(related, desc))


def structure(g: LabeledDigraph) -> UndirectedGraph:
    """Forget directions and labels: edge {u, v} iff either orientation
    is present.  Requires a simple, oriented input so the map edge ->
    undirected edge is one to one."""
    if not (g.report.is_simple and g.report.is_oriented):
        raise PropertyViolation("structure() requires a simple, oriented digraph")
    return UndirectedGraph(g.nodes, g.edges)


def line_graph(g: UndirectedGraph) -> UndirectedGraph:
    """The line graph: one node per edge of ``g``, adjacent iff the edges
    share an endpoint.  Nodes and edges come out sorted."""
    incident: dict[Hashable, list] = {v: [] for v in g.nodes}
    for e in g.edges:
        incident[e[0]].append(e)
        incident[e[1]].append(e)
    edges = sorted(
        (a, b) if a < b else (b, a)
        for es in incident.values()
        for a, b in combinations(es, 2)
    )
    return UndirectedGraph(sorted(g.edges), edges)


def predecessors(g: LabeledDigraph, v: NodeId) -> frozenset[NodeId]:
    """All nodes u != v with a directed path from u to v (full reachability,
    not merely in-neighbors; the two coincide on transitive closures)."""
    if v not in g.node_labels:
        raise ValueError(f"unknown node {v!r}")
    index, _, inn = g.adjacency_masks
    i = index[v]
    return frozenset(g.nodes[j] for j in _bits(_reach(inn, inn[i]) & ~(1 << i)))


def topological_sort(g: LabeledDigraph) -> list[NodeId]:
    """Kahn's method with smallest-id tie-break; raises CycleDetected.
    The order is cached on the graph (``g.topological_order``)."""
    return list(g.topological_order)


def _smallest_first_order(g: LabeledDigraph) -> tuple[NodeId, ...]:
    """Kahn's algorithm on ``g.adjacency_masks``.  A node is ready once none
    of its in-neighbours is left; the heap holds the ready nodes by their
    rank in id order, so the smallest ready id comes next.

    On a closed DAG the removed nodes only visit their skeleton
    out-neighbours (``g.skeleton``).  That finds the same ready nodes: the
    last in-neighbour of ``j`` to go is a skeleton in-neighbour, since a
    skipped edge ``i -> j`` runs through a later in-neighbour of ``j``."""
    _, out, inn = g.adjacency_masks
    step = out if g.skeleton is None else g.skeleton
    nodes = g.nodes
    by_id = sorted(range(len(nodes)), key=nodes.__getitem__)
    rank = [0] * len(nodes)
    for r, i in enumerate(by_id):
        rank[i] = r
    ready = [rank[i] for i, m in enumerate(inn) if not m]
    heapq.heapify(ready)
    left = (1 << len(nodes)) - 1
    order = []
    while ready:
        i = by_id[heapq.heappop(ready)]
        order.append(nodes[i])
        left ^= 1 << i
        x = step[i]
        while x:
            low = x & -x
            x ^= low
            j = low.bit_length() - 1
            if not inn[j] & left:
                heapq.heappush(ready, rank[j])
    if len(order) != len(nodes):
        raise CycleDetected("graph contains a directed cycle")
    return tuple(order)


def transitive_closure(g: LabeledDigraph) -> LabeledDigraph:
    """Add (u, w) for every directed path u -> ... -> w.  Edges of the
    result are emitted in sorted order, so equal closures compare equal."""
    _, desc = _dag_masks(g, "transitive closure")
    return _masked(g, desc)


def transitive_reduction(g: LabeledDigraph) -> LabeledDigraph:
    """Remove every edge implied by a longer path (the covering relation)."""
    out, desc = _dag_masks(g, "transitive reduction")
    # on a DAG no node is its own descendant, so (u, v) is implied by a
    # longer path exactly when v descends from some out-neighbour of u
    covers = [o & ~_union(desc, o) for o in out]
    return _masked(g, covers)


def _dag_masks(g: LabeledDigraph, operation: str) -> tuple[Sequence[int], Sequence[int]]:
    """The out-neighbour and descendant masks of ``g``; raises
    CycleDetected when some node is its own descendant."""
    desc = _descendants(g)
    if any(d >> i & 1 for i, d in enumerate(desc)):
        raise CycleDetected(f"{operation} requires an acyclic graph")
    return g.adjacency_masks[1], desc


def _edges(nodes, masks: Sequence[int]) -> list[Edge]:
    """The edges ``nodes[i] -> nodes[j]`` for every bit ``j`` of
    ``masks[i]``, sorted.  Each node's targets are one ``compress`` of
    ``nodes`` by the mask's :func:`_bit_flags`."""
    return sorted(
        chain.from_iterable(
            zip(repeat(u), compress(nodes, _bit_flags(m))) for u, m in zip(nodes, masks)
        )
    )


def _transpose(masks: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """The columns of the bit matrix whose rows are ``masks``, with
    position ``order[p]`` renamed ``p``: bit ``q`` of mask ``p`` is bit
    ``order[p]`` of ``masks[order[q]]``.  In id order (``order`` =
    ``range(n)``) the out-masks of a graph give its in-masks; the
    neighbour masks of an undirected graph are symmetric, so any order
    gives them relabelled.

    The rows are taken in bands of ``_BAND`` positions of ``order``.  Each
    band is written out as one string of binary rows, its last row first,
    and read back by column; a band's columns are ORed into place at its
    offset.  Every step is a C-level string or integer operation, one per
    position and band, and no string holds more than ``_BAND`` rows, so a
    k x k matrix costs about ``_BAND * k`` characters, not k^2."""
    n = len(order)
    width = f"0{n}b"
    columns = [0] * n
    for start in range(0, n, _BAND):
        band = order[start : start + _BAND]
        rows = "".join([format(masks[v], width) for v in reversed(band)])
        columns = [c | int(rows[n - 1 - v :: n], 2) << start for c, v in zip(columns, order)]
    return tuple(columns)


# rows per band of :func:`_transpose`: up to this many vertices, one band
_BAND = 1024


# the binary digits "0" and "1" as the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
