"""Pick the least disturbed CPU for a measurement.

On a shared host each vCPU goes through slow and fast states, up to 1.6x
apart, that last from seconds to minutes and differ between vCPUs.  The
benchmark runs each measured process or pass on the CPU where a short
pure-Python probe runs fastest at that moment.
"""

import os
import time


def _probe():
    t0 = time.perf_counter()
    x = 0
    for i in range(50_000):
        x += i * i
    return time.perf_counter() - t0


def fastest_cpu(cpus):
    """The CPU in cpus with the fastest probe; leaves this process's affinity as it was."""
    before = os.sched_getaffinity(0)
    speed = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_probe() for _ in range(3))
    finally:
        os.sched_setaffinity(0, before)
    return min(speed, key=speed.get)
