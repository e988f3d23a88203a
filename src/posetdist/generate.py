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
"""

from __future__ import annotations

import random

from .core import LabeledDigraph, transitive_closure
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
    for _ in range(_MAX_ATTEMPTS):
        if kind == "wso":
            g = _sample_wso(rng, nodes, labels, density)
        elif kind == "closure":
            g = _sample_closure(rng, nodes, labels, density)
        else:
            g = _sample_path_closure(rng, nodes, labels, density)
        if g.report.is_weakly_connected and g.edges:
            return g
    raise InfeasibleParameters(
        f"no weakly connected {kind} instance with nodes={nodes} "
        f"density={density} after {_MAX_ATTEMPTS} attempts"
    )


def _ids(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"n{i:0{width}d}" for i in range(n)]


def _random_labels(rng: random.Random, ids: list[str], labels: int) -> dict[str, str]:
    return {v: f"L{rng.randrange(labels)}" for v in ids}


def _sample_wso(rng, n, labels, density) -> LabeledDigraph:
    ids = _ids(n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pair = (ids[i], ids[j]) if rng.random() < 0.5 else (ids[j], ids[i])
                edges.append(pair)
    return LabeledDigraph(ids, _random_labels(rng, ids, labels), edges)


def _sample_closure(rng, n, labels, density) -> LabeledDigraph:
    ids = _ids(n)
    order = list(ids)
    rng.shuffle(order)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((order[i], order[j]))
    g = LabeledDigraph(ids, _random_labels(rng, ids, labels), edges)
    return transitive_closure(g)


def _sample_path_closure(rng, n, labels, density) -> LabeledDigraph:
    ids = _ids(n)
    order = list(ids)
    rng.shuffle(order)
    position = {v: i for i, v in enumerate(order)}
    # deal nodes into label classes, then chain each class along the order
    assignment = [i % labels for i in range(n)]
    rng.shuffle(assignment)
    node_labels = {v: f"L{assignment[i]}" for i, v in enumerate(ids)}
    edges = set()
    for lab in {f"L{k}" for k in range(labels)}:
        chain = sorted(
            (v for v in ids if node_labels[v] == lab), key=position.__getitem__
        )
        for a, b in zip(chain, chain[1:]):
            edges.add((a, b))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = order[i], order[j]
            if node_labels[a] != node_labels[b] and rng.random() < density:
                edges.add((a, b))
    g = LabeledDigraph(ids, node_labels, sorted(edges))
    return transitive_closure(g)
