"""A fixed reference computation that gauges the speed of the host.

The host is shared.  Other tenants slow every process on it, often by a
third or more and for minutes at a time, and CPU time does not remove
that: it still counts the cycles lost to a busy sibling core or a cache
another tenant has emptied.  The benchmark therefore runs this probe
beside every timed query and set-up.  The probe never calls the program,
so a change to the program does not change the probe's time, and a time
multiplied by ``REFERENCE_S / probe time`` is the time the same work
would take on a host on which the probe takes ``REFERENCE_S``.

The probe mixes what the program spends its time on: big-integer
multiplication and reduction (mpmath's Python backend), dict lookups and
Fraction arithmetic.  The cyclic garbage collector is off while it runs,
so its time does not depend on how many objects the program holds.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# CPU time of one probe on an idle host (Intel Xeon, Python 3.11,
# mpmath's Python backend): the speed that scaled times refer to.
REFERENCE_S = 0.0007


def probe() -> Fraction:
    x = 3**700
    m = (1 << 1100) - 95
    d = {}
    acc = Fraction(0)
    for i in range(120):
        x = x * (x >> 600 | 1) % m
        d[i % 31] = x & 0xFFFF
        acc += Fraction(d.get((i * 7) % 31, 0) + 1, i + 1)
    return acc


def probe_s() -> float:
    """CPU seconds of one probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        probe()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def gauge_s() -> float:
    """Median CPU seconds of three probes in a row.  One probe alone is
    noisy: the first after a query or a child process runs on caches that
    the other work has filled."""
    return statistics.median(probe_s() for _ in range(3))


def local_medians(probes: list[float], half_width: int = 5) -> list[float]:
    """For each probe, the median of it and its ``half_width`` neighbours on
    each side: the host's speed around one query, less the probe's own
    jitter."""
    n = len(probes)
    return [statistics.median(probes[max(0, j - half_width):j + half_width + 1])
            for j in range(n)]
