"""Command line interface.

Exit codes: 0 on success, 2 when an input fails validation or parsing,
1 on internal errors, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache, partial

from . import fileio
from .bench import BenchConfig, bench_harness, rows_to_csv
from .clique import mcis, mcis_size
from .errors import PosetDistError
from .generate import KINDS, generate_instance
from .line_digraph import extended_line_digraph
from .metric import AUTO, DistanceResult, d_e
from .solvers import Solver

USAGE_ERROR = 64

_SOLVER_CHOICES = (*(s.value for s in Solver), AUTO)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; we reserve 2 for validation failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _timed(args, load, measure) -> tuple[DistanceResult, float]:
    """``measure`` on the two loaded input files, and its own time in ms."""
    first, second = load(args.first), load(args.second)
    start = time.perf_counter()
    result = measure(first, second)
    return result, (time.perf_counter() - start) * 1000.0


def _print_result(result: DistanceResult, elapsed_ms: float, args) -> None:
    pairs = [[a, b] for a, b in result.witness.pairs]
    if args.json:
        payload = {
            "distance": float(result.distance),
            "distance_exact": str(result.distance),
            "dmces": result.dmces_value,
            "normalizer": result.normalizer,
            "solver": result.solver.value,
            "elapsed_ms": round(elapsed_ms, 3),
        }
        if args.witness:
            payload["witness"] = pairs
        print(json.dumps(payload))
        return
    if args.command == "dmces":
        print(result.dmces_value)
    else:
        print(f"distance {result.distance}")
        print(f"dmces {result.dmces_value} / {result.normalizer}")
        print(f"solver {result.solver.value}")
    if args.witness:
        for a, b in pairs:
            print(f"  {a} -> {b}")


def _cmd_distance(args) -> int:
    """``distance`` and ``dmces``: one ``d_e`` call, printed two ways."""
    load = fileio.load_poset if args.poset else fileio.load_graph
    _print_result(*_timed(args, load, partial(d_e, solver=args.solver)), args)
    return 0


def _cmd_mcis(args) -> int:
    g = fileio.load_graph(args.first)
    g2 = fileio.load_graph(args.second)
    if args.json:
        size, pairs = mcis(g, g2)
        print(json.dumps({"mcis": size, "pairs": [[a, b] for a, b in sorted(pairs)]}))
    else:
        print(mcis_size(g, g2))
    return 0


def _cmd_eld(args) -> int:
    g = fileio.load_graph(args.first)
    eld = extended_line_digraph(g)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(fileio.eld_to_dot(eld))
    for (a, b), (la, lb) in sorted(eld.node_labels.items()):
        print(f"{a}->{b} ({la},{lb})")
    for e, f, rel in eld.labeled_edges:
        print(f"{e[0]}->{e[1]} => {f[0]}->{f[1]} [{rel}]")
    return 0


def _cmd_validate(args) -> int:
    g = fileio.load_graph(args.first)
    report = g.report
    checks = [
        ("simple", report.is_simple),
        ("oriented", report.is_oriented),
        ("weakly_connected", report.is_weakly_connected),
        ("has_edge", bool(g.edges)),
        ("wso", report.is_wso),
        ("acyclic", report.is_acyclic),
        ("transitively_closed", report.is_transitively_closed),
        ("per_label_path", report.per_label_path),
    ]
    for name, ok in checks:
        print(f"{name}: {'yes' if ok else 'no'}")
    return 0 if report.is_wso else 2


def _cmd_gen(args) -> int:
    g = generate_instance(args.kind, args.nodes, args.labels, args.density, args.seed)
    out = fileio.graph_to_json(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        print(out, end="")
    return 0


def _cmd_bench(args) -> int:
    config = BenchConfig(
        kind=args.kind,
        sizes=tuple(args.sizes),
        trials=args.trials,
        labels=args.labels,
        density=args.density,
        seed=args.seed,
    )
    rows = bench_harness(config)
    text = rows_to_csv(rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


@cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it as
    it was, and help and errors go to the ``sys.stdout`` / ``sys.stderr``
    of the moment."""
    parser = _Parser(prog="posetdist", description="edge-overlap distances on labeled digraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("distance", help="distance between two graphs or posets")
    dist.add_argument("first")
    dist.add_argument("second")
    dist.add_argument("--poset", action="store_true", help="inputs are posets")
    dist.add_argument("--solver", choices=_SOLVER_CHOICES, default="auto")
    dist.add_argument("--json", action="store_true")
    dist.add_argument("--witness", action="store_true")
    dist.set_defaults(func=_cmd_distance)

    dm = sub.add_parser("dmces", help="matching score between two graphs")
    dm.add_argument("first")
    dm.add_argument("second")
    dm.add_argument("--solver", choices=_SOLVER_CHOICES, default="auto")
    dm.add_argument("--witness", action="store_true")
    dm.add_argument("--json", action="store_true")
    dm.set_defaults(func=_cmd_distance, poset=False)

    mc = sub.add_parser("mcis", help="common induced subgraph size of two graphs")
    mc.add_argument("first")
    mc.add_argument("second")
    mc.add_argument("--json", action="store_true")
    mc.set_defaults(func=_cmd_mcis)

    el = sub.add_parser("eld", help="print the derived edge-adjacency digraph")
    el.add_argument("first")
    el.add_argument("--dot", metavar="OUT", help="also write graphviz output")
    el.set_defaults(func=_cmd_eld)

    va = sub.add_parser("validate", help="report structural properties of a graph")
    va.add_argument("first")
    va.set_defaults(func=_cmd_validate)

    ge = sub.add_parser("gen", help="generate a random instance")
    ge.add_argument("--kind", choices=KINDS, required=True)
    ge.add_argument("--nodes", type=int, required=True)
    ge.add_argument("--labels", type=int, required=True)
    ge.add_argument("--density", type=float, required=True)
    ge.add_argument("--seed", type=int, required=True)
    ge.add_argument("--out", help="write JSON here instead of stdout")
    ge.set_defaults(func=_cmd_gen)

    be = sub.add_parser("bench", help="cross-solver agreement and timing grid")
    be.add_argument("--sizes", type=int, nargs="+", required=True)
    be.add_argument("--trials", type=int, default=3)
    be.add_argument("--kind", choices=KINDS, default="closure")
    be.add_argument("--labels", type=int, default=3)
    be.add_argument("--density", type=float, default=0.4)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--csv", metavar="OUT", help="write rows here instead of stdout")
    be.set_defaults(func=_cmd_bench)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (PosetDistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort barrier for exit code 1
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
