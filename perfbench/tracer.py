"""Per-layer tracing of posetdist from outside the package.

:class:`Tracer` wraps the public function of each layer named in
:data:`TARGETS`.  Every ``posetdist`` module binds its own copy of the names
it imports (``from .core import validate_properties``), so the wrapper is
written into every module whose attribute is the original function object,
and :meth:`Tracer.uninstall` puts the originals back.

While an op is open (:meth:`Tracer.op`), each wrapped call records a
:class:`Span` (name, start, end, parent span, op id) in memory, and a few
wrapped calls add exact size counters from their results.  Calls made
outside an op go straight to the original function and record nothing.

A layer's self time is its span's duration minus the part of that interval
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


def _eld_arcs(result) -> dict:
    return {"line_digraph.eld_arcs": len(result.labeled_edges)}


def _compat_sizes(result) -> dict:
    return {
        "clique.compat_vertices": len(result.graph.nodes),
        "clique.compat_edges": len(result.graph.edges),
    }


def _clique_size(result) -> dict:
    return {"clique.clique_size": len(result)}


# (module, function, span name, counters read from the result).  The three
# recursive solvers share one span name: their self time is the recursion.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("posetdist.fileio", "load_graph", "fileio.load_graph", None),
    ("posetdist.cli", "cli_main", "cli.cli_main", None),
    ("posetdist.core", "validate_properties", "core.validate_properties", None),
    ("posetdist.core", "topological_sort", "core.topological_sort", None),
    ("posetdist.metric", "d_e", "metric.d_e", None),
    ("posetdist.metric", "d_n", "metric.d_n", None),
    ("posetdist.metric", "choose_solver", "metric.choose_solver", None),
    ("posetdist.solvers", "dmces_alg1", "solvers.dmces", None),
    ("posetdist.solvers", "dmces_alg2", "solvers.dmces", None),
    ("posetdist.solvers", "dmces_alg3", "solvers.dmces", None),
    ("posetdist.solvers", "matched_edges", "solvers.matched_edges", None),
    ("posetdist.solvers", "score", "solvers.score", None),
    ("posetdist.line_digraph", "extended_line_digraph",
     "line_digraph.extended_line_digraph", _eld_arcs),
    ("posetdist.clique", "compatibility_graph", "clique.compatibility_graph", _compat_sizes),
    ("posetdist.clique", "max_clique", "clique.max_clique", _clique_size),
    ("posetdist.clique", "dmces_via_clique", "clique.dmces_via_clique", None),
    ("posetdist.clique", "mcis", "clique.mcis", None),
    ("posetdist.isomorphism", "find_isomorphism", "isomorphism.find_isomorphism", None),
)

VALIDATE = "core.validate_properties"


@dataclass
class OpRecord:
    """What one traced op left behind besides its spans."""

    counters: Counter = field(default_factory=Counter)
    validated: list = field(default_factory=list)  # graphs, kept alive for identity
    routes: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.ops: list[OpRecord] = []
        self._stack: list[int] = []
        self._current: Optional[OpRecord] = None
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "posetdist" or name.startswith("posetdist."))
        ]
        for module_name, func_name, span_name, sizes in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(original, span_name, sizes)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, original, span_name, sizes):
        def wrapper(*args, **kwargs):
            record = self._current
            if record is None:
                return original(*args, **kwargs)
            if span_name == VALIDATE:
                self._note_validation(record, args[0] if args else kwargs["g"])
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            now = time.perf_counter()
            self.spans.append(Span(span_name, now, now, parent, len(self.ops) - 1))
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = time.perf_counter()
            record.counters[span_name + ".calls"] += 1
            if sizes is not None:
                record.counters.update(sizes(result))
            if span_name == "metric.d_e":
                record.routes.append(result.solver.value)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    @staticmethod
    def _note_validation(record: OpRecord, graph) -> None:
        if any(graph is seen for seen in record.validated):
            record.counters[VALIDATE + ".repeats"] += 1
        else:
            record.validated.append(graph)

    # -- ops ------------------------------------------------------------

    @contextmanager
    def op(self):
        """Record the spans and counters of one op."""
        self.ops.append(OpRecord())
        self._current = self.ops[-1]
        try:
            yield
        finally:
            self._current = None
            self._stack.clear()
            self.ops[-1].validated.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def layer_metrics(tracer: Tracer, metric_names) -> dict[str, float]:
    """Reduce the recorded spans and counters to the named per-layer metrics.

    - ``<span>.self_ms``: median, over the ops in which the span ran, of its
      summed self time in that op;
    - ``<span>.calls`` and size counters: mean per op over all traced ops;
    - ``core.validate_properties.repeat_ratio``: calls on a graph already
      validated in the same op, over all calls;
    - ``metric.route.<solver>``: share of ``d_e`` calls answered by it.
    """
    n_ops = len(tracer.ops)
    per_op: dict[str, list[float]] = {}
    totals: dict[int, Counter] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        totals.setdefault(span.op, Counter())[span.name] += own
    for op_totals in totals.values():
        for name, seconds in op_totals.items():
            per_op.setdefault(name, []).append(seconds * 1000.0)
    counters: Counter = Counter()
    routes: Counter = Counter()
    for record in tracer.ops:
        counters.update(record.counters)
        routes.update(record.routes)
    n_routes = sum(routes.values())

    out: dict[str, float] = {}
    for name in metric_names:
        if name.endswith(".self_ms"):
            samples = per_op.get(name[: -len(".self_ms")])
            out[name] = statistics.median(samples) if samples else 0.0
        elif name == VALIDATE + ".repeat_ratio":
            calls = counters[VALIDATE + ".calls"]
            out[name] = counters[VALIDATE + ".repeats"] / calls if calls else 0.0
        elif name.startswith("metric.route."):
            solver = name[len("metric.route."):]
            out[name] = routes[solver] / n_routes if n_routes else 0.0
        elif not name.startswith("trace."):
            out[name] = counters[name] / n_ops if n_ops else 0.0
    return out
