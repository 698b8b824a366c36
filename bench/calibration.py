"""Machine-speed calibration for operation times.

Other tenants of a shared machine slow every process on it, by a third or
more and for seconds at a time, so raw wall times of one build drift by
more than any bound worth setting.  Each operation time is therefore scaled
by the speed of the machine at that moment: a fixed calibration block is
timed right after the operation (after each batch of curtail solves), and
the operation's wall time is multiplied by ``CALIBRATION_REFERENCE_S`` over
the block's time.  Times are
so given at the speed at which the block takes ``CALIBRATION_REFERENCE_S``,
its typical time on an otherwise idle 2-vCPU Intel Xeon at 2.1 GHz under
CPython 3.11.  A change to the program does not change the block, so it
moves the scaled time as it moves the wall time.  The block runs with the
garbage collector off, so the program's live objects do not slow it.

Starting processes slows less under contention than the block does, so a
set-up probe is scaled instead by bare interpreter starts (``python -c
pass``) timed on both sides of it, against ``INTERPRETER_REFERENCE_S``,
their typical time on that same idle machine.
"""

import gc
import math
import time

CALIBRATION_REFERENCE_S = 4.0e-3
INTERPRETER_REFERENCE_S = 40e-3


def _kernel() -> float:
    acc = 0.0
    rows = []
    for i in range(3000):
        u = i / 3000.0
        parts = {"a": u * 1.5, "b": u * u + 0.1, "c": math.cos(u)}
        acc += sum(parts.values()) / parts["b"]
        rows.append((u, acc))
    return acc


def calibration_s() -> float:
    """Wall seconds of the calibration block, garbage collector off.

    One untimed pass first warms the caches that a child process or an
    operation has just displaced.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        start = time.perf_counter()
        for _ in range(3):
            _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(wall_s: float, block_s: float | None = None) -> float:
    """``wall_s`` scaled to reference speed, by ``block_s`` if given, else by
    a calibration block timed now."""
    if block_s is None:
        block_s = calibration_s()
    return wall_s * CALIBRATION_REFERENCE_S / block_s
