"""Exact label-respecting isomorphism for small graphs.

Works on the three graph types in this package, each read directly through
its ``nodes``, ``node_labels`` and ``edge_label_map``: labeled digraphs,
undirected graphs (read as symmetric digraphs with unlabeled nodes and
edges), and extended line digraphs (whose HT/TT/HH edge labels are matched
as well).  The search is plain backtracking over label- and
degree-compatible candidates with partial-adjacency pruning: complete, no
heuristics that sacrifice exactness, and deterministic (the witness it
returns is the lexicographically smallest mapping in node-id order).

Kept dependency-free on purpose; desk-scale inputs do not need
canonical-form machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from .errors import KindMismatch


@dataclass(frozen=True)
class Bijection:
    """A total node bijection as a tuple of (node, node') pairs."""

    pairs: tuple[tuple[Hashable, Hashable], ...]

    def as_dict(self) -> dict:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


# The label of an absent edge: ``edge_label_map.get(e, MISSING)`` tells an
# absent edge from an unlabeled one, whose label is None.
MISSING = object()


def _signature(g, v) -> tuple:
    """Node label plus in/out degree per edge label; invariant under iso."""
    out: dict = {}
    inc: dict = {}
    for (a, b), lab in g.edge_label_map.items():
        if a == v:
            out[lab] = out.get(lab, 0) + 1
        if b == v:
            inc[lab] = inc.get(lab, 0) + 1
    return (
        g.node_labels[v],
        tuple(sorted(out.items(), key=repr)),
        tuple(sorted(inc.items(), key=repr)),
    )


def require_same_kind(g, g2) -> None:
    """Raise :class:`KindMismatch` unless ``g`` and ``g2`` are of one type,
    and that type has an ``edge_label_map``."""
    if type(g) is not type(g2):
        raise KindMismatch(f"cannot compare {type(g).__name__} with {type(g2).__name__}")
    if not hasattr(g, "edge_label_map"):
        raise KindMismatch(f"unsupported graph type {type(g).__name__}")


def find_isomorphism(g, g2) -> Optional[Bijection]:
    """Search for a label-respecting isomorphism from ``g`` onto ``g2``.

    Returns the lexicographically smallest witness (domain nodes in sorted
    order, each image minimal), or None when the graphs are not isomorphic.
    Edge labels take part (the HT/TT/HH tags of extended line digraphs).

    Raises :class:`KindMismatch` as :func:`require_same_kind` does.
    """
    require_same_kind(g, g2)
    ea, eb = g.edge_label_map, g2.edge_label_map
    if len(g.nodes) != len(g2.nodes) or len(ea) != len(eb):
        return None

    sig_a = {v: _signature(g, v) for v in g.nodes}
    sig_b = {v: _signature(g2, v) for v in g2.nodes}
    if sorted(sig_a.values(), key=repr) != sorted(sig_b.values(), key=repr):
        return None

    order = sorted(g.nodes)
    candidates = {
        v: [w for w in sorted(g2.nodes) if sig_b[w] == sig_a[v]] for v in order
    }

    mapping: dict = {}
    used: set = set()

    def consistent(v, w) -> bool:
        for u, x in mapping.items():
            if ea.get((u, v), MISSING) != eb.get((x, w), MISSING):
                return False
            if ea.get((v, u), MISSING) != eb.get((w, x), MISSING):
                return False
        return True

    # one candidate iterator per node of ``order`` down to the one being
    # placed, on an explicit stack so that the depth is not capped by the
    # recursion limit; every node below the top one is mapped
    stack: list = []
    while len(mapping) < len(order):
        if len(stack) == len(mapping):
            stack.append(iter(candidates[order[len(stack)]]))
        v = order[len(stack) - 1]
        for w in stack[-1]:
            if w not in used and consistent(v, w):
                mapping[v] = w
                used.add(w)
                break
        else:
            stack.pop()
            if not stack:
                return None
            used.discard(mapping.pop(order[len(stack) - 1]))
    return Bijection(tuple((v, mapping[v]) for v in order))


def is_label_respecting(phi: Bijection, g, g2) -> bool:
    """True iff ``phi`` preserves node labels and, wherever both mapped
    edges exist, their edge labels agree.  ``phi`` must be total on the
    nodes of ``g``."""
    m = phi.as_dict()
    if set(m) != set(g.nodes):
        raise ValueError("bijection is not total on the first graph's nodes")
    labels, labels2 = g.node_labels, g2.node_labels
    for v, w in m.items():
        if w not in labels2 or labels[v] != labels2[w]:
            return False
    eb = g2.edge_label_map
    for (u, v), lab in g.edge_label_map.items():
        image = eb.get((m[u], m[v]), MISSING)
        if image is not MISSING and image != lab:
            return False
    return True
