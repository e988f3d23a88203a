"""Seeded random instances for tests and benchmarks.

Three kinds:

- ``wso``: a random oriented simple digraph, resampled until weakly
  connected;
- ``closure``: the transitive closure of a random weakly connected DAG;
- ``path-closure``: per-label chains merged into a random DAG and then
  closed, so every label class is a chain (the shape the chain-aware
  solver requires).

Everything is driven by one ``random.Random(seed)``, so a (kind, nodes,
labels, density, seed) tuple always reproduces the same graph.

A sample is accepted when it has an edge and is weakly connected, tested
on the sample itself before any closure: closing a DAG adds edges only
between nodes that a path already joins, so the closure is weakly
connected exactly when the sample is.  Only the accepted sample of a
closure kind is closed, along the random order its edges were drawn in,
which is a topological order of the sample.
"""

from __future__ import annotations

import random
from itertools import combinations, compress, repeat, starmap
from operator import eq, gt, ne

from .core import LabeledDigraph, _descendants_along, _masked, _weakly_connected
from .errors import InfeasibleParameters

KINDS = ("wso", "closure", "path-closure")
_MAX_ATTEMPTS = 500


def generate_instance(
    kind: str,
    nodes: int,
    labels: int,
    density: float,
    seed: int,
) -> LabeledDigraph:
    """Build one random instance; deterministic per seed.

    ``density`` is the probability of keeping each candidate edge.  Raises
    :class:`InfeasibleParameters` for bad parameters or when no weakly
    connected sample shows up within the resampling budget.
    """
    if kind not in KINDS:
        raise InfeasibleParameters(f"unknown kind {kind!r}")
    if nodes < 2:
        raise InfeasibleParameters("need at least 2 nodes")
    if labels < 1:
        raise InfeasibleParameters("need at least 1 label")
    if not 0.0 <= density <= 1.0:
        raise InfeasibleParameters("density must be within [0, 1]")
    rng = random.Random(seed)
    sample = _SAMPLERS[kind]
    ids = _ids(nodes)
    for _ in range(_MAX_ATTEMPTS):
        g, order = sample(rng, ids, labels, density)
        if g.edges and _weakly_connected(g):
            return g if order is None else _closed_along(g, order)
    raise InfeasibleParameters(
        f"no weakly connected {kind} instance with nodes={nodes} "
        f"density={density} after {_MAX_ATTEMPTS} attempts"
    )


def _closed_along(g: LabeledDigraph, order: list[str]) -> LabeledDigraph:
    """The transitive closure of the DAG ``g``, given a topological order
    of it: its descendant masks, taken in reverse ``order``, are the
    closure's out-masks."""
    index, out, _ = g.adjacency_masks
    return _masked(g, _descendants_along(out, list(map(index.__getitem__, order))))


def _ids(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"n{i:0{width}d}" for i in range(n)]


def _random_labels(rng: random.Random, ids: list[str], labels: int) -> dict[str, str]:
    """One ``rng.randrange(labels)`` per node, in id order."""
    return dict(zip(ids, map("L{}".format, map(rng.randrange, repeat(labels, len(ids))))))


def _kept(rng: random.Random, pairs: list, density: float) -> list:
    """The pairs kept by one ``rng.random() < density`` each, in order;
    all the draws are made before it returns."""
    draws = starmap(rng.random, repeat((), len(pairs)))
    return list(compress(pairs, map(gt, repeat(density), draws)))


def _sample_wso(rng, ids, labels, density) -> tuple[LabeledDigraph, None]:
    # a kept pair draws its orientation at once, so the draws interleave
    # and the pairs are walked one by one
    draw = rng.random
    edges = []
    for a, b in combinations(ids, 2):
        if draw() < density:
            edges.append((a, b) if draw() < 0.5 else (b, a))
    return LabeledDigraph(ids, _random_labels(rng, ids, labels), edges), None


def _sample_dag(rng, ids, labels, density) -> tuple[LabeledDigraph, list[str]]:
    order = list(ids)
    rng.shuffle(order)
    edges = _kept(rng, list(combinations(order, 2)), density)
    return LabeledDigraph(ids, _random_labels(rng, ids, labels), edges), order


def _sample_chained_dag(rng, ids, labels, density) -> tuple[LabeledDigraph, list[str]]:
    order = list(ids)
    rng.shuffle(order)
    # deal nodes into label classes, then chain each class along the order:
    # a stable sort by label lists each class in order, one after another
    assignment = [i % labels for i in range(len(ids))]
    rng.shuffle(assignment)
    node_labels = dict(zip(ids, map("L{}".format, assignment)))
    by_label = sorted(order, key=node_labels.__getitem__)
    label_run = list(map(node_labels.__getitem__, by_label))
    chains = compress(zip(by_label, by_label[1:]), map(eq, label_run, label_run[1:]))
    # every pair across two classes, in order, draws once
    across = starmap(ne, combinations(map(node_labels.__getitem__, order), 2))
    pairs = list(compress(combinations(order, 2), across))
    return LabeledDigraph(ids, node_labels, [*chains, *_kept(rng, pairs, density)]), order


# the sample of each kind, with the order its edges run along (None for
# wso); every kind but wso is closed along it once accepted
_SAMPLERS = {"wso": _sample_wso, "closure": _sample_dag, "path-closure": _sample_chained_dag}
