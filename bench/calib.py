"""Host-speed calibration for the benchmark's timings.

The shared virtual machines the benchmark runs on change speed by up to
±25% for identical work, in phases of a few seconds to minutes, and
process CPU time drifts with wall time. So the measured process times a
fixed pure-Python kernel between its ops, and every time it reports is
scaled to the speed at which that kernel takes REF_S:

    scaled = measured * REF_S / kernel time around it

The kernel is the benchmark's own cof-boundary generator on a fixed seed:
tuples, recursion, dictionaries and strings, like the program under test,
and nothing from cubnf, so no change to the program moves it. Its bytes
are pinned through the canary digests in pins.json. It runs with the
garbage collector off, so the program's heap does not slow it, and what
it allocates is freed before the collector is turned back on.
"""

from __future__ import annotations

import gc
import statistics
import time

import workloads as W

REF_S = 0.0135       # the kernel's time at the reference speed
KERNEL_SEED = 7919   # any fixed seed; its input is never checked


def kernel_s() -> float:
    """Wall time of one run of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        W.cof_boundary(KERNEL_SEED, 0)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(times: list[float], cal: list[float], cal_at: list[int]) -> list[float]:
    """Scale each op time by the kernel time around it. Ops cal_at[b] ..
    cal_at[b+1]-1 ran between calibrations b and b+1; they are scaled by
    the median of calibrations b-1 .. b+2, so that one kernel run slowed
    by an interrupt does not rescale a block."""
    out = []
    for b in range(len(cal) - 1):
        factor = REF_S / statistics.median(cal[max(b - 1, 0):b + 3])
        out += [t * factor for t in times[cal_at[b]:cal_at[b + 1]]]
    return out
