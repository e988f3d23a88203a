"""Cross-solver benchmark harness.

Generates seeded instance pairs, runs every solver applicable to the
instance kind, asserts that all values agree, and reports one CSV row per
(instance, solver) with wall time.  A value disagreement is the most
important failure this package can produce: the harness dumps both graphs
as JSON and aborts.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

from .errors import SolverDisagreement
from .fileio import graph_to_json
from .generate import generate_instance
from .metric import solve
from .solvers import Solver

_SOLVERS_BY_KIND = {
    "wso": (Solver.BRUTE, Solver.ALG1, Solver.CLIQUE),
    "closure": (Solver.BRUTE, Solver.ALG1, Solver.ALG2, Solver.CLIQUE),
    "path-closure": (Solver.BRUTE, Solver.ALG2, Solver.ALG3),
}
_BRUTE_LIMIT = 10  # nodes; beyond this the oracle is skipped
_CLIQUE_LIMIT = 1000  # |D| * |D'|; beyond this the clique route is skipped

CSV_FIELDS = ("solver", "n_nodes", "n_edges", "value", "elapsed_ms", "agree")


@dataclass(frozen=True)
class BenchConfig:
    kind: str = "closure"
    sizes: tuple[int, ...] = (4, 6)
    trials: int = 3
    labels: int = 3
    density: float = 0.4
    seed: int = 0
    solvers: tuple[Solver, ...] = field(default=())

    def solver_set(self) -> tuple[Solver, ...]:
        return self.solvers or _SOLVERS_BY_KIND[self.kind]


def bench_harness(config: BenchConfig) -> list[dict]:
    """Run the grid described by ``config``; returns CSV-ready row dicts.

    Raises :class:`SolverDisagreement` (after dumping the instance pair)
    if any two solvers return different values for the same pair.
    """
    rows: list[dict] = []
    seed = config.seed
    for size in config.sizes:
        for _ in range(config.trials):
            g = generate_instance(config.kind, size, config.labels, config.density, seed)
            g2 = generate_instance(
                config.kind, size, config.labels, config.density, seed + 1
            )
            seed += 2
            values: dict[Solver, int] = {}
            trial_rows: list[dict] = []
            for solver in config.solver_set():
                if solver is Solver.BRUTE and size > _BRUTE_LIMIT:
                    continue
                if (
                    solver is Solver.CLIQUE
                    and len(g.edges) * len(g2.edges) > _CLIQUE_LIMIT
                ):
                    continue
                start = time.perf_counter()
                outcome = solve(g, g2, solver)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                values[solver] = outcome.value
                trial_rows.append(
                    {
                        "solver": solver.value,
                        "n_nodes": size,
                        "n_edges": max(len(g.edges), len(g2.edges)),
                        "value": outcome.value,
                        "elapsed_ms": round(elapsed_ms, 3),
                        "agree": True,
                    }
                )
            agree = len(set(values.values())) <= 1
            if not agree:
                for row in trial_rows:
                    row["agree"] = False
                rows.extend(trial_rows)
                raise SolverDisagreement(
                    "solvers disagree: "
                    + ", ".join(f"{s.value}={v}" for s, v in values.items())
                    + "\nfirst graph:\n"
                    + graph_to_json(g)
                    + "second graph:\n"
                    + graph_to_json(g2)
                )
            rows.extend(trial_rows)
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
