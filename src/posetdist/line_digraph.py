"""Extended line digraph construction.

The extended line digraph of G has one node per directed edge of G, labeled
by the ordered pair of endpoint labels, and a labeled edge for every pair
of distinct source edges that share a node:

- HT (head-to-tail): one directed edge e -> f when head(e) = tail(f);
- TT (tail-to-tail): two directed edges (both ways) when tails coincide;
- HH (head-to-head): two directed edges (both ways) when heads coincide.

On a simple oriented source graph each unordered pair of source edges
produces at most one relationship type; without orientedness a 2-cycle
yields HT in both directions, which is constructible but excluded from the
isomorphism guarantees, hence the warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .core import (
    Edge,
    LabeledDigraph,
    UndirectedGraph,
    _is_oriented,
    _is_simple,
    line_graph,
    structure,
)
from .errors import NotSimple
from .isomorphism import find_isomorphism

HT = "HT"
TT = "TT"
HH = "HH"


@dataclass(frozen=True)
class ExtendedLineDigraph:
    """The dual graph: nodes are source edges, edges carry HT/TT/HH labels.

    ``nodes`` preserves the source edge order.  The arcs are a function of
    ``nodes`` alone, so they are not a field: ``labeled_edges`` builds the
    (e, f, relationship) triples, TT and HH stored in both directions, on
    first read.  ``source`` is the graph
    whose edges are ``nodes`` when that graph is simple and oriented, else
    None; it takes no part in equality either, and lets :func:`mcis`
    search two line digraphs through their sources.
    """

    nodes: tuple[Edge, ...]
    node_labels: dict[Edge, tuple[str, str]]
    source: LabeledDigraph | None = field(
        default=None, compare=False, repr=False, kw_only=True
    )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash, computed once per line digraph.  It agrees with ``==``,
        which compares the nodes and the labels as a mapping."""
        return hash((self.nodes, frozenset(self.node_labels.items())))

    @cached_property
    def labeled_edges(self) -> tuple[tuple[Edge, Edge, str], ...]:
        # Only edges that share an endpoint are related, so each edge meets
        # the later edges incident to its two endpoints, in node order.
        edges = self.nodes
        incident: dict[str, list[int]] = {}
        for j, (u, v) in enumerate(edges):
            incident.setdefault(u, []).append(j)
            incident.setdefault(v, []).append(j)
        out: list[tuple[Edge, Edge, str]] = []
        for i, e in enumerate(edges):
            later = {j for j in incident[e[0]] if j > i}
            later.update(j for j in incident[e[1]] if j > i)
            for j in sorted(later):
                out.extend(_relate(e, edges[j]))
        return tuple(out)

    @cached_property
    def edge_label_map(self) -> dict[tuple[Edge, Edge], str]:
        return {(e, f): rel for e, f, rel in self.labeled_edges}

    @cached_property
    def relationship_counts(self) -> dict[str, int]:
        counts = {HT: 0, TT: 0, HH: 0}
        for _, _, rel in self.labeled_edges:
            counts[rel] += 1
        return counts


def extended_line_digraph(g: LabeledDigraph) -> ExtendedLineDigraph:
    """Build the extended line digraph of ``g``; its arcs are built when
    first read (see :class:`ExtendedLineDigraph`).  Each node's label is
    its edge's ``endpoint_labels`` entry.

    Raises :class:`NotSimple` on self-loops; warns when ``g`` is not
    oriented (the construction still goes through, but 2-cycles produce
    HT edges in both directions and the usual uniqueness guarantees no
    longer apply).  The result carries ``g`` as its ``source`` when ``g``
    is oriented.  Both flags are read straight off ``g.adjacency_masks``
    by the tests of :func:`validate_properties`; no structural report is
    built.
    """
    _, out, inn = g.adjacency_masks
    if not _is_simple(out):
        raise NotSimple("extended line digraph requires a simple source graph")
    oriented = _is_oriented(out, inn)
    if not oriented:
        warnings.warn(
            "source graph is not oriented; extended line digraph built anyway",
            stacklevel=2,
        )
    return ExtendedLineDigraph(
        g.edges, dict(zip(g.edges, g.endpoint_labels)), source=g if oriented else None
    )


def _relate(e: Edge, f: Edge) -> Iterable[tuple[Edge, Edge, str]]:
    """Labeled edges between one unordered pair of distinct source edges."""
    if e[1] == f[0]:
        yield (e, f, HT)
    if f[1] == e[0]:
        yield (f, e, HT)
    if e[0] == f[0]:
        yield (e, f, TT)
        yield (f, e, TT)
    if e[1] == f[1]:
        yield (e, f, HH)
        yield (f, e, HH)


def eld_structure(eld: ExtendedLineDigraph) -> UndirectedGraph:
    """Forget directions and labels of an extended line digraph."""
    return UndirectedGraph(
        eld.nodes, {tuple(sorted((e, f))) for e, f, _ in eld.labeled_edges}
    )


def structure_commutes(g: LabeledDigraph) -> bool:
    """Check that the structure of the extended line digraph of ``g`` is
    isomorphic to the line graph of the structure of ``g``.

    This holds for every simple oriented input; the operation exists as an
    executable cross-check, not a query.
    """
    lhs = eld_structure(extended_line_digraph(g))
    rhs = line_graph(structure(g))
    return find_isomorphism(lhs, rhs) is not None
