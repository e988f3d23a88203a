"""Exact label-respecting isomorphism for small graphs.

Works on the three graph kinds in this package: labeled digraphs,
undirected graphs, and extended line digraphs (whose HT/TT/HH edge labels
are matched as well).  The search is plain backtracking over label- and
degree-compatible candidates with partial-adjacency pruning: complete, no
heuristics that sacrifice exactness, and deterministic (the witness it
returns is the lexicographically smallest mapping in node-id order).

Kept dependency-free on purpose; desk-scale inputs do not need
canonical-form machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from .core import LabeledDigraph, UndirectedGraph
from .errors import KindMismatch


@dataclass(frozen=True)
class Bijection:
    """A total node bijection as a tuple of (node, node') pairs."""

    pairs: tuple[tuple[Hashable, Hashable], ...]

    def as_dict(self) -> dict:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


class GraphView:
    """Uniform (nodes, node label, directed labeled edges) access.

    Undirected graphs are viewed as symmetric digraphs with unlabeled
    edges, which preserves their isomorphism relation.
    """

    __slots__ = ("nodes", "label", "edge_label", "kind")

    def __init__(self, g):
        if isinstance(g, LabeledDigraph):
            self.kind = "digraph"
            self.nodes = list(g.nodes)
            self.label = dict(g.node_labels)
            self.edge_label = {e: None for e in g.edges}
        elif isinstance(g, UndirectedGraph):
            self.kind = "undirected"
            self.nodes = list(g.nodes)
            self.label = {v: None for v in g.nodes}
            self.edge_label = {}
            for u, v in g.edges:
                self.edge_label[(u, v)] = None
                self.edge_label[(v, u)] = None
        elif hasattr(g, "labeled_edges"):  # ExtendedLineDigraph, structurally
            self.kind = "eld"
            self.nodes = list(g.nodes)
            self.label = dict(g.node_labels)
            self.edge_label = {(e, f): rel for e, f, rel in g.labeled_edges}
        else:
            raise KindMismatch(f"unsupported graph type {type(g).__name__}")


# The label of an absent edge: ``edge_label.get(e, MISSING)`` tells an
# absent edge from an unlabeled one, whose label is None.
MISSING = object()


def _signature(view: GraphView, v) -> tuple:
    """Node label plus in/out degree per edge label; invariant under iso."""
    out: dict = {}
    inc: dict = {}
    for (a, b), lab in view.edge_label.items():
        if a == v:
            out[lab] = out.get(lab, 0) + 1
        if b == v:
            inc[lab] = inc.get(lab, 0) + 1
    return (
        view.label[v],
        tuple(sorted(out.items(), key=repr)),
        tuple(sorted(inc.items(), key=repr)),
    )


def find_isomorphism(g, g2, *, edge_labels: bool = True) -> Optional[Bijection]:
    """Search for a label-respecting isomorphism from ``g`` onto ``g2``.

    Returns the lexicographically smallest witness (domain nodes in sorted
    order, each image minimal), or None when the graphs are not isomorphic.
    ``edge_labels=False`` ignores edge labels (only meaningful for extended
    line digraphs, whose edges carry HT/TT/HH tags).

    Raises :class:`KindMismatch` when the two graphs are of different kinds.
    """
    a, b = GraphView(g), GraphView(g2)
    if a.kind != b.kind:
        raise KindMismatch(f"cannot compare {a.kind} with {b.kind}")
    if not edge_labels:
        a.edge_label = {e: None for e in a.edge_label}
        b.edge_label = {e: None for e in b.edge_label}
    if len(a.nodes) != len(b.nodes) or len(a.edge_label) != len(b.edge_label):
        return None

    sig_a = {v: _signature(a, v) for v in a.nodes}
    sig_b = {v: _signature(b, v) for v in b.nodes}
    if sorted(sig_a.values(), key=repr) != sorted(sig_b.values(), key=repr):
        return None

    order = sorted(a.nodes)
    candidates = {
        v: [w for w in sorted(b.nodes) if sig_b[w] == sig_a[v]] for v in order
    }

    mapping: dict = {}
    used: set = set()

    def consistent(v, w) -> bool:
        for u, x in mapping.items():
            if a.edge_label.get((u, v), MISSING) != b.edge_label.get((x, w), MISSING):
                return False
            if a.edge_label.get((v, u), MISSING) != b.edge_label.get((w, x), MISSING):
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in candidates[v]:
            if w in used or not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    if extend(0):
        return Bijection(tuple((v, mapping[v]) for v in order))
    return None


def is_label_respecting(phi: Bijection, g, g2) -> bool:
    """True iff ``phi`` preserves node labels and, wherever both mapped
    edges exist, their edge labels agree.  ``phi`` must be total on the
    nodes of ``g``."""
    a, b = GraphView(g), GraphView(g2)
    m = phi.as_dict()
    if set(m) != set(a.nodes):
        raise ValueError("bijection is not total on the first graph's nodes")
    for v, w in m.items():
        if w not in b.label or a.label[v] != b.label[w]:
            return False
    for (u, v), lab in a.edge_label.items():
        image = b.edge_label.get((m[u], m[v]), MISSING)
        if image is not MISSING and image != lab:
            return False
    return True
