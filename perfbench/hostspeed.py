"""The host's speed, sampled while a timed stretch runs, to take its drift out of timings.

The benchmark runs on a few cores of a shared host. Other tenants' load
slows this process by up to 2x for seconds at a time without taking CPU
time from it, so wall time and CPU time drift together and a median
over passes cannot remove the drift. While a `HostSpeed` is active, a
timer signal every `INTERVAL_S` of wall time runs a fixed pure-Python
probe twice and times the second run. That run is warm in cache and
touches no program data, so the program's own memory use hardly moves
it: it measures how fast the host is running this process right now.

`slowdown()` is the time-weighted mean probe time over the stretch,
divided by the probe's time on a quiet host, `QUIET_PROBE_S`.
`quiet_seconds(wall)` is the stretch's wall time without the sampler's
own time, divided by that slowdown: what the stretch takes at the
host's quiet speed. A program change moves it as it moves wall
time; a slow spell on the host moves it far less.
"""
from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
# The probe's time on a 2.1 GHz Xeon vCPU (Python 3.11): the 5th percentile
# of its samples over 10 s of an otherwise idle loop. It only sets the
# scale: keep it fixed, or figures from before and after it stop being
# comparable.
QUIET_PROBE_S = 15.5e-6


def _probe() -> int:
    total = 0
    for i in range(400):
        total += i * i
    return total


class HostSpeed:
    """Context manager that samples the probe on a timer while it is active."""

    def __init__(self) -> None:
        self.weighted_s2 = 0.0  # sum of probe time x program time covered
        self.covered_s = 0.0  # program time covered by the samples
        self.handler_s = 0.0
        self._last = 0.0
        self._previous = None

    def __enter__(self) -> HostSpeed:
        self.weighted_s2 = self.covered_s = 0.0
        self.handler_s = 0.0
        self._last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # covers the tail, and a stretch shorter than one interval

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        _probe()
        timed = time.perf_counter()
        _probe()
        end = time.perf_counter()
        covered = start - self._last  # program time since the sample before
        self.weighted_s2 += (end - timed) * covered
        self.covered_s += covered
        self.handler_s += end - start
        self._last = end

    def slowdown(self) -> float:
        # the last sample covers the tail of the stretch, so covered_s > 0
        return self.weighted_s2 / self.covered_s / QUIET_PROBE_S

    def quiet_seconds(self, wall_s: float) -> float:
        return (wall_s - self.handler_s) / self.slowdown()
