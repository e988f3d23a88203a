#!/usr/bin/env python3
"""Build perfbench/reference.json: the DMCES value of every op's pair at
the default seed.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py                  # every workload
    python3 perfbench/make_reference.py closure_search   # only these; keep the rest

Each pair is solved by a primary solver that finishes on the whole pool,
then, where a second solver can finish at these sizes, by that one under a
per-pair time limit.  Where both finish they must agree, or the script
stops without writing.  The file records, per workload, which solvers ran
and on how many pairs the second one finished.
"""

from __future__ import annotations

import itertools
import json
import re
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from posetdist import d_e, d_n, extended_line_digraph  # noqa: E402

import workloads  # noqa: E402

# (primary, second) solver per workload.  On open_clique the primary value
# is also checked against d_n on the extended line digraphs.  The
# path-closure workloads have no second solver: alg2 did not finish one
# 40-node path-closure pair in 120 s, and an earlier build with alg2 under
# the per-pair limit finished none of their 214 pairs.
ROUTES = {
    "headline_cli": ("alg3", None),
    "closure_search": ("alg2", "clique"),
    "open_clique": ("clique", "alg1"),
    "matrix_reuse": ("alg3", None),
}
ALONE = "alg2 did not finish one 40-node path-closure pair in 120 s"
SECOND_LIMIT_S = 0.25  # per pair, for the second solver


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout()


def _limited(fn, seconds):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    except _Timeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _pairs(name: str, seed: int):
    spec = workloads.SPECS[name]
    if name == "matrix_reuse":
        graphs = workloads.make_graphs(spec, seed)
        return [(graphs[a], graphs[b]) for a, b in itertools.combinations(range(len(graphs)), 2)]
    return workloads.make_pairs(spec, seed)


def build(name: str, seed: int) -> tuple[list, str]:
    primary, second = ROUTES[name]
    values = []
    finished = 0
    for k, (g, g2) in enumerate(_pairs(name, seed)):
        result = d_e(g, g2, primary)
        value = [result.dmces_value, result.normalizer]
        if name == "open_clique":
            node_level = d_n(extended_line_digraph(g), extended_line_digraph(g2))
            if node_level != result.distance:
                raise SystemExit(f"{name} pair {k}: d_n {node_level} != d_e {result.distance}")
        other = _limited(lambda: d_e(g, g2, second), SECOND_LIMIT_S) if second else None
        if other is not None:
            finished += 1
            if other.dmces_value != result.dmces_value:
                raise SystemExit(
                    f"{name} pair {k}: {primary} gives {result.dmces_value}, "
                    f"{second} gives {other.dmces_value}"
                )
        values.append(value)
        print(f"{name} {k} {value} second={'yes' if other else 'no'}", file=sys.stderr)
    if second is None:
        return values, f"{primary} solved all {len(values)} pairs and alone vouches for them: {ALONE}"
    provenance = (
        f"{primary} solved all {len(values)} pairs; {second}, limited to {SECOND_LIMIT_S} s "
        f"per pair, finished {finished} of them"
    )
    if finished == 0:
        return values, provenance + f", so {primary} alone vouches for these values"
    return values, provenance + " and agreed on each"


def main(names: list[str]) -> None:
    signal.signal(signal.SIGALRM, _raise_timeout)
    seed = workloads.DEFAULT_SEED
    doc = {"seed": seed, "provenance": {}, "workloads": {}}
    if names:
        doc = json.loads(workloads.REFERENCE.read_text())
        assert doc["seed"] == seed and set(names) <= set(workloads.SPECS), names
    for name in names or workloads.SPECS:
        values, provenance = build(name, seed)
        doc["workloads"][name] = values
        doc["provenance"][name] = provenance
    text = json.dumps(doc, indent=1)
    workloads.REFERENCE.write_text(re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", text) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
