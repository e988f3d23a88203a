"""Cross-solver agreement harness: :func:`check_pair` times every solver
that applies to one instance pair, and :func:`bench_harness` runs it over a
seeded grid, one CSV row per (instance, solver).  A value disagreement is
the most important failure this package can produce: the check dumps both
graphs as JSON and aborts.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass

from .clique import _compat_vertices
from .core import LabeledDigraph
from .errors import SizeCapExceeded, SolverDisagreement
from .fileio import graph_to_json
from .generate import generate_instance
from .metric import closure_flags, solve
from .solvers import _BRUTE_NODE_CAP, Solver

_BRUTE_MATCHINGS = 150_000  # matchings; beyond this the oracle is skipped
# matchings beyond which alg1 is skipped.  On pairs of chain closures its
# bound keeps it within about 1 s up to 5e8 matchings (14-node
# path-closures with 3 labels); on any other pair it took at most 0.5 s up
# to 1e6, and 1-18 s or more from 2e6 on (seeded wso and closure pairs of
# 10-18 nodes)
_ALG1_MATCHINGS = 1_000_000
_ALG1_CHAIN_MATCHINGS = 500_000_000
_CLIQUE_LIMIT = 1000  # compatibility-graph vertices; beyond this clique is skipped

CSV_FIELDS = ("solver", "n_nodes", "n_edges", "value", "elapsed_ms", "agree")


@dataclass(frozen=True)
class BenchConfig:
    kind: str = "closure"
    sizes: tuple[int, ...] = (4, 6)
    trials: int = 3
    labels: int = 3
    density: float = 0.4
    seed: int = 0


def matching_count(g: LabeledDigraph, g2: LabeledDigraph) -> int:
    """The number of label-respecting injective partial maps from the nodes
    of ``g`` to those of ``g2``, exactly the leaves :func:`dmces_bruteforce`
    scores: per shared label with class sizes n1, n2, sum_k C(n1, k) P(n2, k)."""
    count = 1
    for lab in g.label_classes.keys() & g2.label_classes.keys():
        n1, n2 = len(g.label_classes[lab]), len(g2.label_classes[lab])
        count *= sum(math.comb(n1, k) * math.perm(n2, k) for k in range(min(n1, n2) + 1))
    return count


def seeded_pair(
    kind: str, nodes: int, labels: int, density: float, seed: int
) -> tuple[LabeledDigraph, LabeledDigraph]:
    """The instance pair drawn with generator seeds ``seed`` and ``seed + 1``."""
    g = generate_instance(kind, nodes, labels, density, seed)
    return g, generate_instance(kind, nodes, labels, density, seed + 1)


def check_pair(g: LabeledDigraph, g2: LabeledDigraph) -> list[dict]:
    """Run every solver that audits the pair; returns one CSV-ready row each.

    alg2 runs when both graphs are transitive closures and alg3 when every
    label class is also a chain in both.  The others are gated by the
    pair's :func:`matching_count`: brute runs on at most
    ``_BRUTE_MATCHINGS`` matchings (and within the oracle's node cap), and
    alg1 on at most ``_ALG1_CHAIN_MATCHINGS`` where alg3 runs and at most
    ``_ALG1_MATCHINGS`` elsewhere.  clique runs when the compatibility
    graph has at most ``_CLIQUE_LIMIT`` vertices (see
    :func:`clique._compat_vertices`).  Raises :class:`SizeCapExceeded`,
    with the matching count and k, when no gate admits any solver, and
    :class:`SolverDisagreement`, with both graphs as JSON, if any two
    values differ.
    """
    closures, chains = closure_flags(g, g2)
    n_nodes = max(len(g.nodes), len(g2.nodes))
    count = matching_count(g, g2)
    k = _compat_vertices(g, g2)
    runs = {
        Solver.BRUTE: n_nodes <= _BRUTE_NODE_CAP and count <= _BRUTE_MATCHINGS,
        Solver.ALG1: count <= (_ALG1_CHAIN_MATCHINGS if chains else _ALG1_MATCHINGS),
        Solver.ALG2: closures,
        Solver.ALG3: chains,
        Solver.CLIQUE: k <= _CLIQUE_LIMIT,
    }
    if not any(runs.values()):
        raise SizeCapExceeded(
            f"no solver audits this pair: {count} matchings, "
            f"k = {k} compatibility vertices"
        )
    rows: list[dict] = []
    for solver in [s for s in Solver if runs[s]]:
        start = time.perf_counter()
        value = solve(g, g2, solver).value
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append(
            {
                "solver": solver.value,
                "n_nodes": n_nodes,
                "n_edges": max(len(g.edges), len(g2.edges)),
                "value": value,
                "elapsed_ms": round(elapsed_ms, 3),
                "agree": True,
            }
        )
    if len({row["value"] for row in rows}) > 1:
        values = ", ".join(f"{row['solver']}={row['value']}" for row in rows)
        raise SolverDisagreement(
            f"solvers disagree: {values}\nfirst graph:\n{graph_to_json(g)}"
            f"second graph:\n{graph_to_json(g2)}"
        )
    return rows


def bench_harness(config: BenchConfig) -> list[dict]:
    """Run :func:`check_pair` on each seeded pair of the grid described by
    ``config``, in order; returns all their rows."""
    rows: list[dict] = []
    seed = config.seed
    for size in config.sizes:
        for _ in range(config.trials):
            pair = seeded_pair(config.kind, size, config.labels, config.density, seed)
            seed += 2
            rows.extend(check_pair(*pair))
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
