"""The benchmark's four seeded workloads.

Every input comes from ``posetdist.generate_instance``.  A workload's
generator seeds start at ``seed_base + seed * SEED_STRIDE``; pair ``i``
uses the two consecutive seeds ``start + 2i`` and ``start + 2i + 1`` (a
matrix graph ``i`` uses ``start + i``), and no pair is ever dropped.

Constructing a workload is its set-up: generate the inputs, write files
where the workload reads files, and load the reference table.  ``run(i)``
is op ``i`` (ops cycle through the pool) and is the only code the
benchmark times.  ``check(i, output)`` runs outside the timed region and
returns a message when the output is wrong.  Ops call ``posetdist``
through its package attributes at call time, so a tracer that rebinds
those names sees them; checks use the functions bound at import.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import posetdist as pd
from posetdist import LabeledDigraph, NodeMatching, generate_instance, graph_to_json, score

DEFAULT_SEED = 0
SEED_STRIDE = 10_000
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str
    sizes: tuple[int, ...]  # node counts, cycled over the pool
    labels: int
    density: float
    seed_base: int
    pool: int  # pairs, or graphs for matrix_reuse

    def generator_seed(self, seed: int) -> int:
        return self.seed_base + seed * SEED_STRIDE


# The searches are sized so that one run covers about a thousand distinct
# pairs: per-pair time is heavy-tailed, so the pool a seed draws moves the
# median op; with 10-12-node closures or 18-20-node wso pairs the metrics
# moved by 20-50 % from seed to seed, and with 600 closure pairs by 8 %.
# headline_cli steps its sizes by 10 nodes so that op times spread evenly:
# with only 40, 60 and 80 nodes its median op sat in one tight cluster.
SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="headline_cli",
            kind="path-closure",
            sizes=(40, 50, 60, 70, 80),
            labels=6,
            density=0.15,
            seed_base=1_000_000,
            pool=50,
        ),
        Spec(
            name="closure_search",
            kind="closure",
            sizes=(10,),
            labels=3,
            density=0.3,
            seed_base=2_000_000,
            pool=1200,
        ),
        Spec(
            name="open_clique",
            kind="wso",
            sizes=(16,),
            labels=4,
            density=0.3,
            seed_base=3_000_000,
            pool=1000,
        ),
        Spec(
            name="matrix_reuse",
            kind="path-closure",
            sizes=(40,),
            labels=6,
            density=0.15,
            seed_base=4_000_000,
            pool=20,
        ),
    )
}


def graph_tuples(g: LabeledDigraph) -> tuple:
    return (g.nodes, dict(g.node_labels), g.edges)


def _instance(spec: Spec, i: int, seed: int) -> LabeledDigraph:
    nodes = spec.sizes[(i // 2) % len(spec.sizes)]
    return generate_instance(
        spec.kind, nodes, spec.labels, spec.density, spec.generator_seed(seed) + i
    )


def make_pairs(spec: Spec, seed: int) -> list[tuple[LabeledDigraph, LabeledDigraph]]:
    """The pool of a pair workload: pair i from seeds start + 2i, start + 2i + 1."""
    return [
        (_instance(spec, 2 * i, seed), _instance(spec, 2 * i + 1, seed))
        for i in range(spec.pool)
    ]


def make_graphs(spec: Spec, seed: int) -> list[LabeledDigraph]:
    """The graph set of matrix_reuse: graph i from seed start + i."""
    return [
        generate_instance(
            spec.kind, spec.sizes[0], spec.labels, spec.density, spec.generator_seed(seed) + i
        )
        for i in range(spec.pool)
    ]


def load_reference(name: str, seed: int) -> Optional[list]:
    """The committed (dmces, normalizer) per pair, at the default seed only."""
    doc = json.loads(REFERENCE.read_text())
    if seed != doc["seed"]:
        return None
    return doc["workloads"][name]


def check_distance(g, g2, dmces, normalizer, distance, witness, expected) -> Optional[str]:
    """Value against the reference, normalizer against the edge counts,
    distance against value / normalizer, and the witness re-scored."""
    if expected is not None and [dmces, normalizer] != list(expected):
        return f"value {dmces}/{normalizer} differs from reference {expected[0]}/{expected[1]}"
    if normalizer != max(len(g.edges), len(g2.edges)):
        return f"normalizer {normalizer} is not the larger edge count"
    if distance != 1 - Fraction(dmces, normalizer):
        return f"distance {distance} does not match {dmces}/{normalizer}"
    rescored = score(g, g2, witness)
    if rescored != dmces:
        return f"witness scores {rescored}, reported {dmces}"
    return None


class PairWorkload:
    """Common set-up and checking of the workloads that cycle a pair pool."""

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.pairs = [tuple(map(graph_tuples, p)) for p in make_pairs(spec, seed)]
        self.reference = load_reference(spec.name, seed)
        self._check_graphs: dict[int, tuple] = {}

    @property
    def ops_per_pass(self) -> int:
        return len(self.pairs)

    def expected(self, k: int):
        return None if self.reference is None else self.reference[k]

    def check_graphs(self, k: int) -> tuple[LabeledDigraph, LabeledDigraph]:
        if k not in self._check_graphs:
            a, b = self.pairs[k]
            self._check_graphs[k] = (LabeledDigraph(*a), LabeledDigraph(*b))
        return self._check_graphs[k]

    def check_result(self, k: int, result) -> Optional[str]:
        g, g2 = self.check_graphs(k)
        return check_distance(
            g, g2, result.dmces_value, result.normalizer, result.distance,
            result.witness, self.expected(k),
        )


class HeadlineCli(PairWorkload):
    def __init__(self, spec: Spec, seed: int, workdir: Path):
        super().__init__(spec, seed, workdir)
        self.files = []
        for k, (a, b) in enumerate(self.pairs):
            paths = (workdir / f"pair{k:03d}a.json", workdir / f"pair{k:03d}b.json")
            for path, tup in zip(paths, (a, b)):
                path.write_text(graph_to_json(LabeledDigraph(*tup)))
            self.files.append(tuple(map(str, paths)))

    def run(self, i: int):
        a, b = self.files[i % len(self.files)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pd.cli_main(["distance", a, b, "--json", "--witness"])
        return code, out.getvalue()

    def check(self, i: int, output) -> Optional[str]:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        g, g2 = self.check_graphs(i % len(self.pairs))
        witness = NodeMatching(tuple(map(tuple, doc["witness"])))
        return check_distance(
            g, g2, doc["dmces"], doc["normalizer"], Fraction(doc["distance_exact"]),
            witness, self.expected(i % len(self.pairs)),
        )


class ClosureSearch(PairWorkload):
    def run(self, i: int):
        a, b = self.pairs[i % len(self.pairs)]
        return pd.d_e(pd.LabeledDigraph(*a), pd.LabeledDigraph(*b))

    def check(self, i: int, output) -> Optional[str]:
        return self.check_result(i % len(self.pairs), output)


class OpenClique(PairWorkload):
    """Op 2k is d_e on pair k, op 2k + 1 is d_n on its line digraphs."""

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        super().__init__(spec, seed, workdir)
        self.edge_distance: dict[int, Fraction] = {}

    @property
    def ops_per_pass(self) -> int:
        return 2 * len(self.pairs)

    def run(self, i: int):
        a, b = self.pairs[(i // 2) % len(self.pairs)]
        g, g2 = pd.LabeledDigraph(*a), pd.LabeledDigraph(*b)
        if i % 2 == 0:
            return pd.d_e(g, g2)
        return pd.d_n(pd.extended_line_digraph(g), pd.extended_line_digraph(g2))

    def check(self, i: int, output) -> Optional[str]:
        k = (i // 2) % len(self.pairs)
        if i % 2 == 0:
            self.edge_distance[k] = output.distance
            return self.check_result(k, output)
        if not isinstance(output, Fraction):
            return f"d_n returned {type(output).__name__}, not Fraction"
        expected = self.expected(k)
        if expected is not None and output != 1 - Fraction(*expected):
            return f"d_n {output} differs from reference 1 - {expected[0]}/{expected[1]}"
        if k in self.edge_distance and output != self.edge_distance[k]:
            return f"d_n {output} differs from d_e {self.edge_distance[k]}"
        return None


class MatrixReuse:
    """Every unordered pair of one graph set; the graph objects persist."""

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.graphs = make_graphs(spec, seed)
        self.index = list(itertools.combinations(range(len(self.graphs)), 2))
        self.reference = load_reference(spec.name, seed)
        self._copies = [LabeledDigraph(*graph_tuples(g)) for g in self.graphs]

    @property
    def ops_per_pass(self) -> int:
        return len(self.index)

    def run(self, i: int):
        a, b = self.index[i % len(self.index)]
        return pd.d_e(self.graphs[a], self.graphs[b])

    def check(self, i: int, output) -> Optional[str]:
        k = i % len(self.index)
        a, b = self.index[k]
        return check_distance(
            self._copies[a], self._copies[b], output.dmces_value, output.normalizer,
            output.distance, output.witness,
            None if self.reference is None else self.reference[k],
        )


WORKLOADS = {
    "headline_cli": HeadlineCli,
    "closure_search": ClosureSearch,
    "open_clique": OpenClique,
    "matrix_reuse": MatrixReuse,
}


def build(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](SPECS[name], seed, workdir)
