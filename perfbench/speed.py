"""Machine-speed calibration, so that op times do not move with the machine.

The shared machines this benchmark runs on change speed by up to 1.6x for
seconds to minutes at a time, as other tenants load the same cores; the
process's CPU time slows with its wall time, so neither clock escapes it.
``calibrate`` times one fixed piece of pure-Python work that uses nothing
of ``posetdist`` (dicts of sets, tuples, a sort), run between ops.  A time
measured next to it is rescaled to the machine speed at which that work
takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / (median calibration around it)

A change to ``posetdist`` leaves the calibration work alone, so it still
moves the scaled times by its full effect.
"""

from __future__ import annotations

import gc
import statistics
import time

# calibrate() at a middle speed of a 2.1 GHz x86-64 vCPU with Python 3.11
REFERENCE_S = 0.00055
WINDOW = 3  # an op is scaled by the median of the 2 * WINDOW + 1 calibrations around it


def _work() -> int:
    n, x = 48, 12345
    out: dict[int, set[int]] = {v: set() for v in range(n)}
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x % 5 == 0:
                out[u].add(v)
                edges.append((u, v))
    edge_set = set(edges)
    missing = sum(1 for u, v in edges for w in out[v] if (u, w) not in edge_set)
    return missing + len(sorted(edges, key=lambda e: (e[1], -e[0])))


def calibrate() -> float:
    """Seconds that the fixed work takes now, with the collector held off
    so that garbage left by an op is not collected inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factors(calibrations: list[float], window: int = WINDOW) -> list[float]:
    """``REFERENCE_S`` over the rolling median of the calibrations, one
    factor per calibration."""
    return [
        REFERENCE_S / statistics.median(calibrations[max(0, i - window): i + window + 1])
        for i in range(len(calibrations))
    ]
