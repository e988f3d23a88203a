"""Independent reference implementations used to check the package.

Everything here is deliberately naive: permutation scans, subset
enumeration, BFS, or networkx's own routines. None of it shares logic with
the code under test, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools
import json
from collections import deque

import networkx as nx

from posetdist import LabeledDigraph, PropertyReport, UndirectedGraph


def perm_isomorphic(g: LabeledDigraph, g2: LabeledDigraph) -> bool:
    """Label- and orientation-preserving isomorphism by trying every
    node permutation.  Only for tiny graphs."""
    if len(g.nodes) != len(g2.nodes) or len(g.edges) != len(g2.edges):
        return False
    if sorted(g.node_labels.values()) != sorted(g2.node_labels.values()):
        return False
    edges2 = set(g2.edges)
    for perm in itertools.permutations(g2.nodes):
        phi = dict(zip(g.nodes, perm))
        if any(g.node_labels[v] != g2.node_labels[phi[v]] for v in g.nodes):
            continue
        if all(((phi[u], phi[v]) in edges2) for u, v in g.edges):
            if len(g.edges) == len(edges2):
                return True
    return False


def labeled_digraph_by_loop(nodes, node_labels, edges):
    """What ``LabeledDigraph(nodes, node_labels, edges)`` holds, built edge
    by edge: ``(nodes, labels, edges)`` with duplicate edges dropped after
    their first occurrence.  Raises what the constructor raises, with the
    same message: ValueError on a duplicate node id, KeyError on a missing
    label, ValueError naming the first edge with an undeclared endpoint,
    and the unpacking error of the first edge that is no pair."""
    node_tup = tuple(nodes)
    if len(set(node_tup)) != len(node_tup):
        raise ValueError("duplicate node ids")
    labels = {v: node_labels[v] for v in node_tup}
    kept = []
    for u, v in edges:
        if u not in node_tup or v not in node_tup:
            raise ValueError(f"edge ({u!r}, {v!r}) references an undeclared node")
        if (u, v) not in kept:
            kept.append((u, v))
    return node_tup, labels, tuple(kept)


def adjacency_masks_by_edges(g: LabeledDigraph):
    """What ``g.adjacency_masks`` holds, built edge by edge from
    ``g.edges``: every node's position in ``g.nodes``, and per node the
    bits of its out- and its in-neighbours' positions."""
    index = {v: i for i, v in enumerate(g.nodes)}
    out = [0] * len(index)
    inn = [0] * len(index)
    for u, v in g.edges:
        out[index[u]] |= 1 << index[v]
        inn[index[v]] |= 1 << index[u]
    return index, tuple(out), tuple(inn)


def _nx_digraph(g: LabeledDigraph) -> nx.DiGraph:
    nxg = nx.DiGraph()
    nxg.add_nodes_from(g.nodes)
    nxg.add_edges_from(g.edges)
    return nxg


def closure_by_networkx(g: LabeledDigraph) -> list[tuple[str, str]]:
    """networkx's transitive closure without reflexive pairs, edges sorted."""
    return sorted(nx.transitive_closure(_nx_digraph(g), reflexive=False).edges)


def reduction_by_networkx(g: LabeledDigraph) -> list[tuple[str, str]]:
    """networkx's transitive reduction of a DAG, edges sorted."""
    return sorted(nx.transitive_reduction(_nx_digraph(g)).edges)


def ancestors_by_networkx(g: LabeledDigraph, v: str) -> frozenset:
    return frozenset(nx.ancestors(_nx_digraph(g), v))


def topological_order_by_networkx(g: LabeledDigraph) -> list[str]:
    return list(nx.lexicographical_topological_sort(_nx_digraph(g)))


def line_graph_by_networkx(ug: UndirectedGraph) -> tuple[list, list]:
    """networkx's line graph of ``ug``: its nodes and its edges, each edge
    and each pair of edges written in sorted order, both lists sorted."""
    nxg = nx.Graph()
    nxg.add_nodes_from(ug.nodes)
    nxg.add_edges_from(ug.edges)
    lg = nx.line_graph(nxg)
    nodes = sorted(tuple(sorted(e)) for e in lg.nodes)
    edges = sorted(tuple(sorted((tuple(sorted(a)), tuple(sorted(b))))) for a, b in lg.edges)
    return nodes, edges


def report_by_networkx(g: LabeledDigraph) -> PropertyReport:
    """The structural report, each flag from its definition through
    networkx: connectivity and acyclicity tests on the whole graph, and a
    transitive reduction per label class that must be one path."""
    nxg = _nx_digraph(g)
    edges = set(g.edges)
    simple = all(u != v for u, v in g.edges)
    closed = all(
        w == u or (u, w) in edges for u, v in g.edges for w in nxg.successors(v)
    )
    return PropertyReport(
        is_weakly_connected=len(g.nodes) <= 1 or nx.is_weakly_connected(nxg),
        is_simple=simple,
        is_oriented=simple and all((v, u) not in edges for u, v in g.edges),
        is_acyclic=nx.is_directed_acyclic_graph(nxg),
        is_transitively_closed=closed,
        per_label_path=all(
            _induces_chain(nxg, class_nodes)
            for class_nodes in g.label_classes.values()
        ),
    )


def _induces_chain(nxg: nx.DiGraph, class_nodes) -> bool:
    """True iff the subgraph induced by ``class_nodes`` is acyclic and its
    transitive reduction is a directed path through every class node."""
    sub = nxg.subgraph(class_nodes)
    if not nx.is_directed_acyclic_graph(sub):
        return False
    red = nx.transitive_reduction(sub)
    if red.number_of_edges() != len(class_nodes) - 1:
        return False
    degrees_ok = all(
        red.out_degree(v) <= 1 and red.in_degree(v) <= 1 for v in class_nodes
    )
    return degrees_ok and nx.is_weakly_connected(red)


def color_order(adj: tuple[int, ...], cand: int) -> list[tuple[int, int]]:
    """Greedy coloring of the vertices in ``cand`` on the neighbour masks
    ``adj``, as a list of (vertex, color) in coloring order: color ``c``
    takes the lowest vertex not yet colored, then every higher one with no
    neighbour among those color ``c`` holds so far.  The clique search's
    class masks must reproduce it color for color."""
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


def subset_max_clique(ug: UndirectedGraph) -> frozenset:
    """The lexicographically smallest maximum clique in node order: the
    first clique met checking every node subset, biggest first, each size
    in ``itertools.combinations`` order."""
    nodes = list(ug.nodes)
    for size in range(len(nodes), 0, -1):
        for combo in itertools.combinations(nodes, size):
            if all(
                ug.has_edge(a, b) for a, b in itertools.combinations(combo, 2)
            ):
                return frozenset(combo)
    return frozenset()


_ABSENT = object()


def arcs_by_definition(g: LabeledDigraph) -> set:
    """The arcs of the extended line digraph of ``g``: every ordered pair
    of distinct edges, with each relationship that holds between them."""
    arcs = set()
    for e in g.edges:
        for f in g.edges:
            if e != f:
                arcs.update(
                    (e, f, rel)
                    for rel, holds in (
                        ("HT", e[1] == f[0]),
                        ("TT", e[0] == f[0]),
                        ("HH", e[1] == f[1]),
                    )
                    if holds
                )
    return arcs


def compatibility_edges_by_definition(g, g2) -> tuple[list, list]:
    """The compatibility graph of two graphs, one vertex pair at a time.

    The vertices are the label-matched pairs (n, n') whose self-loops carry
    the same label or are both absent, in node order of ``g`` then ``g2``.
    Vertices i < j are adjacent when their pairs share no coordinate and
    (n, m) / (n', m') carry the same edge label, or are both absent, in
    both orders.  Returns the pairs and the edges (i, j) in ascending
    order."""
    ea, eb = g.edge_label_map, g2.edge_label_map

    def agrees(n, m, n2, m2) -> bool:
        return ea.get((n, m), _ABSENT) == eb.get((n2, m2), _ABSENT)

    pairs = [
        (n, n2)
        for n in g.nodes
        for n2 in g2.nodes
        if g.node_labels[n] == g2.node_labels[n2] and agrees(n, n, n2, n2)
    ]
    edges = []
    for i, j in itertools.combinations(range(len(pairs)), 2):
        (n, n2), (m, m2) = pairs[i], pairs[j]
        if n != m and n2 != m2 and agrees(n, m, n2, m2) and agrees(m, n, m2, n2):
            edges.append((i, j))
    return pairs, edges


def out_lists(g: LabeledDigraph) -> dict[str, list[str]]:
    """Each node's out-neighbours, in edge order, read off ``g.edges``."""
    out: dict[str, list[str]] = {v: [] for v in g.nodes}
    for u, v in g.edges:
        out[u].append(v)
    return out


def bfs_closure_edges(g: LabeledDigraph) -> set[tuple[str, str]]:
    """Transitive closure as reachability: edge (u, v) iff v is reachable
    from u in one or more steps, u != v."""
    out = out_lists(g)
    closure: set[tuple[str, str]] = set()
    for start in g.nodes:
        seen = set()
        queue = deque(out[start])
        while queue:
            cur = queue.popleft()
            if cur in seen:
                continue
            seen.add(cur)
            queue.extend(out[cur])
        closure.update((start, v) for v in seen if v != start)
    return closure


def antisymmetry_pair(g: LabeledDigraph):
    """The pair that a poset build from ``g``'s edges (self-loops dropped)
    names when the relation has a cycle: the first node in node order that
    lies on a cycle, with its smallest successor that reaches back to it.
    None when the relation has no cycle."""
    closure = bfs_closure_edges(g)
    out = out_lists(g)
    for p in g.nodes:
        for q in sorted(out[p]):
            if q != p and (q, p) in closure:
                return p, q
    return None


def score_by_definition(g, g2, phi: dict) -> int:
    """Count ordered domain pairs whose edge exists on both sides."""
    edges, edges2 = set(g.edges), set(g2.edges)
    dom = list(phi)
    return sum(
        1
        for v1 in dom
        for v2 in dom
        if v1 != v2 and (v1, v2) in edges and (phi[v1], phi[v2]) in edges2
    )


def iter_matchings(g, g2):
    """Every label-respecting injective partial map dom -> V', as dicts."""
    nodes = list(g.nodes)
    by_label: dict[str, list] = {}
    for v in g2.nodes:
        by_label.setdefault(g2.node_labels[v], []).append(v)

    def rec(i: int, phi: dict, used: set):
        if i == len(nodes):
            yield dict(phi)
            return
        m = nodes[i]
        for n in by_label.get(g.node_labels[m], []):
            if n not in used:
                phi[m] = n
                used.add(n)
                yield from rec(i + 1, phi, used)
                used.discard(n)
                del phi[m]
        yield from rec(i + 1, phi, used)

    yield from rec(0, {}, set())


def best_score_enumerated(g, g2) -> int:
    """DMCES by scoring every matching from :func:`iter_matchings`."""
    return max(score_by_definition(g, g2, phi) for phi in iter_matchings(g, g2))


def _label_bijections(g, ends1, g2, ends2):
    """All label-respecting bijections ends1 -> ends2, as dicts."""
    by1: dict[str, list] = {}
    by2: dict[str, list] = {}
    for v in ends1:
        by1.setdefault(g.node_labels[v], []).append(v)
    for v in ends2:
        by2.setdefault(g2.node_labels[v], []).append(v)
    if sorted(by1) != sorted(by2):
        return
    if any(len(by1[lab]) != len(by2[lab]) for lab in by1):
        return
    labels = sorted(by1)
    for combo in itertools.product(
        *(itertools.permutations(by2[lab]) for lab in labels)
    ):
        phi: dict = {}
        for lab, perm in zip(labels, combo):
            phi.update(zip(by1[lab], perm))
        yield phi


def _edge_induced_isomorphic(g, e1: tuple, g2, e2: tuple) -> bool:
    """Is there a label-respecting endpoint bijection carrying the edge
    set e1 exactly onto e2?"""
    ends1 = sorted({v for e in e1 for v in e})
    ends2 = sorted({v for e in e2 for v in e})
    if len(ends1) != len(ends2):
        return False
    target = set(e2)
    for phi in _label_bijections(g, ends1, g2, ends2):
        if {(phi[u], phi[v]) for u, v in e1} == target:
            return True
    return False


def admces(g: LabeledDigraph, g2: LabeledDigraph) -> int:
    """Largest k such that some k-subset of g's edges and some k-subset of
    g2's edges induce isomorphic edge subgraphs.  Exponential; keep the
    edge counts at 5 or below."""
    edges, edges2 = list(g.edges), list(g2.edges)
    for k in range(min(len(edges), len(edges2)), 0, -1):
        for e1 in itertools.combinations(edges, k):
            for e2 in itertools.combinations(edges2, k):
                if _edge_induced_isomorphic(g, e1, g2, e2):
                    return k
    return 0


def graph_json_by_dumps(g: LabeledDigraph) -> str:
    """The canonical graph file as the standard library writes it: the
    whole document through ``json.dumps`` with sorted keys and a two-space
    indent."""
    doc = {
        "format_version": "1",
        "nodes": [{"id": v, "label": g.node_labels[v]} for v in sorted(g.nodes)],
        "edges": [list(e) for e in sorted(g.edges)],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def mask_edges_by_bits(nodes, masks) -> list:
    """The edges ``nodes[i] -> nodes[j]`` for every set bit ``j`` of
    ``masks[i]``, found by testing each bit in turn, sorted."""
    return sorted(
        (u, nodes[j])
        for u, m in zip(nodes, masks)
        for j in range(m.bit_length())
        if m >> j & 1
    )


def image_by_bits(mask: int, table) -> int:
    """The sum of ``table[i]`` over the set bits ``i`` of ``mask``, testing
    each bit in turn."""
    return sum(table[i] for i in range(mask.bit_length()) if mask >> i & 1)


def score_by_edge_set(g, g2, phi: dict) -> int:
    """The edges (a, b) of ``g`` with both ends mapped whose image
    (phi(a), phi(b)) is in the edge set of ``g2``; a self-loop counts like
    any other edge."""
    edges2 = set(g2.edges)
    return sum(
        1 for a, b in g.edges if a in phi and b in phi and (phi[a], phi[b]) in edges2
    )


def transpose_by_bits(masks, order) -> tuple[int, ...]:
    """Bit ``q`` of column ``p`` is bit ``order[p]`` of ``masks[order[q]]``,
    read one bit at a time."""
    n = len(order)
    return tuple(
        sum((masks[order[q]] >> order[p] & 1) << q for q in range(n)) for p in range(n)
    )
