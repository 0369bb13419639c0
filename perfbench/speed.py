"""Host speed probe: a fixed computation timed between passes.

On a shared host, the CPU time of one unchanged simulator pass drifts by
tens of percent within minutes, because other tenants share the physical
core and its caches. A fixed interpreter-bound computation slows down
with it: over 476 alternating passes of ``serve_chaos`` and this probe,
their log CPU times correlated at 0.74.

The speed changes within seconds, so a run samples the probe at every
pass boundary and scales each pass's CPU times by ``NOMINAL_S`` over the
median of the samples taken just before and just after that pass: to the
speed at which the probe takes ``NOMINAL_S``. In that experiment, scaling
each pass cut the spread of 20-second medians of the pass time from 13 %
to 4 % (interquartile range over median). The probe is benchmark code,
so a change to the program moves the scaled times exactly as it moves
the raw ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

#: The probe's CPU seconds at the host speed the scaled times refer to.
NOMINAL_S = 0.02


def probe_work() -> int:
    """Fixed interpreter-bound work: the dict, list, slice, attribute and
    allocation mix of the simulator's hot paths, about 20 ms."""
    rows = {}
    total = 0
    x = 1
    for _ in range(40_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 4095
        entry = rows.get(key)
        if entry is None:
            entry = rows[key] = [0, bytes(32)]
        entry[0] += 1
        total += len(entry[1][: entry[0] & 31]) + entry[0]
    return total


def sample(count: int) -> List[float]:
    """Time the probe ``count`` times, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(count):
            start = time.process_time()
            probe_work()
            times.append(time.process_time() - start)
        return times
    finally:
        gc.enable()


def factor(samples: List[float]) -> float:
    """What CPU times measured next to ``samples`` are multiplied by."""
    return NOMINAL_S / statistics.median(samples)
