"""Timing normalized to the host's speed at the moment of measurement.

The host this benchmark was defined on (a shared 2-vCPU VM) switches
between two speeds about 2x apart, in phases of one to several seconds, and
steal time stays near zero.  Raw medians of one command over 30-second
windows spread 20-50%.  So while a command runs, a SIGALRM timer
interrupts it every PROBE_INTERVAL_S to time a fixed stdlib probe, and
EDGE_PROBES more probes run right before and after it.  The probe is
Fraction sums into a tuple-keyed dict, the package's own mix, and no change
to the package can affect it.  The reported time is the command's own time
(probe time subtracted) scaled by PROBE_NOMINAL_S / mean probe time: the
seconds the command would take at the probe's nominal speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import Callable, TypeVar

#: Seconds one probe takes at nominal speed: about its median on a quiet
#: 2-vCPU x86_64 VM with Python 3.11.
PROBE_NOMINAL_S = 0.0012
PROBE_INTERVAL_S = 0.05
EDGE_PROBES = 5

T = TypeVar("T")


def _probe_work() -> list:
    acc: dict = {}
    for i in range(1, 400):
        key = (i % 61, i % 17)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11, 1 + i % 5)
    return sorted(acc.items())


def timed(fn: Callable[[], T], sample: bool = True) -> tuple[T, float]:
    """Run `fn` once; returns (its result, normalized seconds).
    With `sample` false only the edge probes run, so nothing interrupts
    `fn` (the traced pass uses this to keep probes out of span times)."""
    samples: list[float] = []
    interruptions: list[tuple[float, float]] = []  # (start, duration)

    def probe() -> tuple[float, float]:
        # A collection triggered by the probe's allocations would traverse
        # the interrupted call's heap: that is the call's work, so defer it.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _probe_work()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        samples.append(took)
        return start, took

    def on_alarm(signum, frame) -> None:
        interruptions.append(probe())

    for _ in range(EDGE_PROBES):
        probe()
    previous = signal.signal(signal.SIGALRM, on_alarm) if sample else None
    try:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    own = end - start - sum(took for began, took in interruptions if began < end)
    for _ in range(EDGE_PROBES):
        probe()
    return result, own * PROBE_NOMINAL_S / statistics.fmean(samples)
