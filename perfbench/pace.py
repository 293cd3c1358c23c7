"""Host speed, read from a fixed reference chunk of work.

The benchmark's host can change speed by up to 2x over seconds to minutes
(a shared core: a pure-Python loop and a BLAS call slow down together, with
no steal time to show it). A run's raw median then depends on when the run
happened. To take that out, the benchmark runs ``reference()`` between
jobs and scales every timing by the host speed measured around it:

    calibrated seconds = measured seconds * NOMINAL_S / reference seconds

so a calibrated time reads as the time the job would take on a host that
runs the reference in ``NOMINAL_S``. The reference does not touch the
program, so any change to the program's speed shows in full.

The chunk is interpreter work: an integer loop, then Python objects (dict
inserts, float arithmetic, a sort). Traced against every workload, such
work moved with the jobs' time more closely than numpy kernels did (a
matmul, an eigensolve or a large elementwise op slowed less than the jobs
when the host slowed, so they under-corrected, also for the
eigensolver-bound discord jobs). It calls no libm function: after the
dense workloads' BLAS calls, ``cmath.exp`` ran 4x slower in the same
process, which would have tied the reading to the program's own state.
The chunk runs once untimed before the timed pass, so that the reading
does not depend on what the job before it left in the caches, and the
garbage collector is off meanwhile, so that it does not depend on the
size of the program's heap.
"""

from __future__ import annotations

import gc
import time

#: Reference seconds on the nominal host (the 2-vCPU VM the bounds were set on).
NOMINAL_S = 0.007

_FLOATS = [1.1 * i for i in range(20000)]


def _work() -> None:
    total = 0
    for i in range(40000):
        total += i * i
    table = {}
    acc = 0.0
    for k, x in enumerate(_FLOATS):
        table[k] = x
        acc += x * 1.0001
    sorted(_FLOATS[::2], key=lambda v: -v)


def reference() -> float:
    """Seconds one reference chunk takes now, caches warm."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """seconds measured between two reference readings, in nominal seconds."""
    return seconds * NOMINAL_S * 2.0 / (before + after)
