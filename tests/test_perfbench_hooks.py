"""The package names that the benchmark's tracer wraps must exist.

``perfbench/tracer.py`` wraps each ``(module, function)`` of its
``TARGETS`` by name; a function renamed or deleted in the package would
otherwise surface only as a failed traced benchmark run.  The tracer is
loaded from its file, read only: no bytecode is written next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import posetdist.solvers as solvers
from posetdist import generate_instance

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        (module, function)
        for module, function, *_ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []


def test_alg2_and_alg3_call_the_traced_order_once_per_solve(monkeypatch):
    """The tracer's ``core.topological_sort`` span measures the order step
    of alg2 and alg3 only while they call the module-level name once per
    solve, cached order or not."""
    calls = []
    order = solvers.topological_sort
    monkeypatch.setattr(
        solvers, "topological_sort", lambda g: calls.append(g) or order(g)
    )
    g, g2 = (generate_instance("path-closure", 12, 3, 0.3, seed) for seed in (5, 6))
    for solve in (solvers.dmces_alg2, solvers.dmces_alg3, solvers.dmces_alg3):
        calls.clear()
        solve(g, g2)
        assert calls == [g]
