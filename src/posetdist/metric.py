"""Distances built on the edge-overlap optimum.

``d_e`` compares two weakly connected, simple, oriented node-labeled
digraphs: one minus the maximum number of simultaneously matchable edges,
normalized by the larger edge count.  ``d_n`` is the node-level analogue
(one minus the maximum common node-induced subgraph size over the larger
node count).  ``poset_distance`` applies ``d_e`` to the digraphs of two
labeled partial orders.  :func:`solve` is the one place a solver name is
turned into a call.

Distances are exact :class:`fractions.Fraction` values internally; render
them as decimals at the edge of the system, never compare floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .clique import _compat_vertices, dmces_via_clique, mcis_size
from .core import LabeledDigraph, PosetDigraph
from .solvers import (
    DmcesOutcome,
    NodeMatching,
    Solver,
    _require,
    dmces_alg1,
    dmces_alg2,
    dmces_alg3,
    dmces_bruteforce,
)

AUTO = "auto"
# Open pairs take the clique route up to this many compatibility-graph
# vertices k.  It bounds memory, not time.  One set of k-bit neighbour
# masks is about 12.5 MB at this limit, and the relabel in
# ``clique._size_phase`` builds two more (the relabelled masks and their
# complements); ``core._transpose`` writes the bit matrix in bands of
# 1 024 rows, so its strings hold about 1 024 * k characters.  Peak RSS
# before the search, from a 13 MB start (seeded wso pairs, 2 labels):
# 68 MB at k = 8 346, 82 MB at k = 10 223, 101 MB at k = 12 040.
_CLIQUE_AUTO_LIMIT = 10_000
# Closure pairs that are not all chains take the clique route up to this
# many compatibility-graph vertices k, alg2 beyond.  On the re-run seeded
# grid of 8-14-node closures (the crossover table is in CHANGES.md) the
# clique search was faster on most pairs up to k = 400 and lost by at most
# 0.026 s there; it first lost by more than 0.1 s at k = 493, and its
# median time passed alg2's above k = 700.
_CLOSURE_CLIQUE_GATE = 230


@dataclass(frozen=True)
class DistanceResult:
    """An edge-overlap distance with its ingredients.

    distance = 1 - dmces_value / normalizer, where the normalizer is the
    larger of the two edge counts; always within [0, 1].
    """

    dmces_value: int
    normalizer: int
    distance: Fraction
    witness: NodeMatching
    solver: Solver

    def __post_init__(self):
        if self.normalizer < 1:
            raise ValueError("normalizer must be positive")
        if not 0 <= self.dmces_value <= self.normalizer:
            raise ValueError("value outside [0, normalizer]")
        if self.distance != Fraction(self.normalizer - self.dmces_value, self.normalizer):
            raise ValueError("distance does not match value/normalizer")


def solve(
    g: LabeledDigraph, g2: LabeledDigraph, solver: Union[Solver, str]
) -> DmcesOutcome:
    """Run one named solver (not ``auto``) on the pair.  Each solver is looked
    up by its module-level name at call time, so a rebinding of that name
    (a wrapper, a test double) takes effect here."""
    solver = Solver(solver)
    if solver is Solver.BRUTE:
        return dmces_bruteforce(g, g2)
    if solver is Solver.ALG1:
        return dmces_alg1(g, g2)
    if solver is Solver.ALG2:
        return dmces_alg2(g, g2)
    if solver is Solver.ALG3:
        return dmces_alg3(g, g2)
    return dmces_via_clique(g, g2)


def closure_flags(g: LabeledDigraph, g2: LabeledDigraph) -> tuple[bool, bool]:
    """Whether both graphs are transitive closures (alg2 applies), and
    whether every label class is also a chain in both (alg3 applies)."""
    reports = (g.report, g2.report)
    closures = all(r.is_acyclic and r.is_transitively_closed for r in reports)
    return closures, closures and all(r.per_label_path for r in reports)


def choose_solver(g: LabeledDigraph, g2: LabeledDigraph) -> Solver:
    """The `auto` policy.  Two transitive closures go to alg3 when every
    label class is a chain in both.  Otherwise the pair goes to the clique
    route when its compatibility graph has at most ``_CLOSURE_CLIQUE_GATE``
    vertices (two closures) or ``_CLIQUE_AUTO_LIMIT`` vertices (any other
    pair), else to alg2 (closures) or alg1."""
    closures, chains = closure_flags(g, g2)
    if chains:
        return Solver.ALG3
    k = _compat_vertices(g, g2)
    if closures:
        return Solver.CLIQUE if k <= _CLOSURE_CLIQUE_GATE else Solver.ALG2
    return Solver.CLIQUE if k <= _CLIQUE_AUTO_LIMIT else Solver.ALG1


def d_e(
    g: LabeledDigraph, g2: LabeledDigraph, solver: Union[Solver, str] = AUTO
) -> DistanceResult:
    """Edge-overlap distance between two weakly connected, simple,
    oriented node-labeled digraphs, each with at least one edge."""
    _require(g, g2, edges=True)
    if solver == AUTO:
        solver = choose_solver(g, g2)
    outcome = solve(g, g2, solver)
    normalizer = max(len(g.edges), len(g2.edges))
    return DistanceResult(
        dmces_value=outcome.value,
        normalizer=normalizer,
        distance=Fraction(normalizer - outcome.value, normalizer),
        witness=outcome.witness,
        solver=outcome.solver,
    )


def d_n(g, g2) -> Fraction:
    """Node-overlap distance: one minus the maximum common node-induced
    subgraph size over the larger node count.  Accepts any labeled
    digraphs, including extended line digraphs (edge labels respected).
    Two empty graphs are at distance 0.  Raises :class:`KindMismatch` on
    two graphs of different kinds, as :func:`mcis` does.  The size comes
    from :func:`mcis_size`: the route of :func:`mcis` and its check of the
    clique, without the canonical witness.  On two extended line digraphs
    of simple, oriented graphs ``G`` and ``G'`` it searches the clique
    route's compatibility graph of ``G`` and ``G'``, the one ``d_e``
    searches, so ``d_n(L(G), L(G')) == d_e(G, G').distance`` on every pair
    that ``d_e`` accepts: both take the same optimum, whichever maximum
    clique each finds."""
    size = mcis_size(g, g2)
    n = max(len(g.nodes), len(g2.nodes))
    return Fraction(n - size, n) if n else Fraction(0)


def poset_distance(p: PosetDigraph, p2: PosetDigraph) -> DistanceResult:
    """Distance between two labeled partial orders: ``d_e`` of their
    digraphs under the ``auto`` policy, which picks the chain-aware solver
    when every label class is a chain in both, the clique route when the
    compatibility graph has at most ``_CLOSURE_CLIQUE_GATE`` vertices (see
    :func:`choose_solver`), and the order-respecting solver otherwise."""
    return d_e(p, p2)
