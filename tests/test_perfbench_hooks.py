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
