"""Host-speed probe that runs in step with the measured work.

On a shared host the speed of this process's CPU drifts by 10 to 40 %
over seconds to minutes, and wall time drifts with it. ``HostProbe``
times a small fixed computation every ``PERIOD`` seconds from a SIGALRM
handler in the main thread, by the CPU time it takes. ``scaled`` then
turns the wall time of an interval into the time the reference host
would have taken: the work time of each stretch between probes times
``REF_PROBE_S`` over the median probe time around that stretch.

With ``inline`` (the work runs in this process) each probe interrupts
the work between two bytecodes, on the same CPU, and the work time is
the interval's wall less the probes inside it. Otherwise the work runs
in pool workers, the probe runs beside them in the parent and the work
time is the whole wall.

The probe is pure Python arithmetic plus small numpy linear algebra,
the mix kerrcomb's hot paths run. It shares no code with kerrcomb, so a
change to the program cannot move it except through the host.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

import numpy as np

PERIOD = 0.2
# typical CPU time of one probe on the 2-vCPU Intel Xeon development
# host (Python 3.11, numpy with OpenBLAS, one thread)
REF_PROBE_S = 0.0047

_MATS = np.random.default_rng(0).standard_normal((32, 6, 6))


def probe_work() -> float:
    s = 0.0
    for i in range(18000):
        x = i * 1e-3
        s += x * x - 0.5 * x + 1.0 / (1.0 + x)
    for m in _MATS:
        s += float(np.linalg.eigvals(m).real.sum() + (m @ m.T)[0, 0])
    return s


class HostProbe:
    """Context manager recording the start, wall and CPU time of probes."""

    def __init__(self, period: float = PERIOD, inline: bool = True) -> None:
        self.period = period
        # inline: the probes interrupt the measured work itself; else the
        # work runs in other processes and the probes run beside it
        self.inline = inline
        self.starts: list[float] = []
        self.walls: list[float] = []
        self.durations: list[float] = []   # CPU time of each probe
        self._previous = None

    def probe(self, *_) -> None:
        start, cpu = perf_counter(), thread_time()
        probe_work()
        self.durations.append(thread_time() - cpu)
        self.walls.append(perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "HostProbe":
        probe_work()  # warm caches and numpy's first-call paths
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def work_s(self, start: float, end: float) -> float:
        """Wall time of [start, end) less the inline probes inside it."""
        if not self.inline:
            return end - start
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return (end - start) - sum(self.walls[lo:hi])

    def speed(self, start: float, end: float) -> float:
        """Median probe CPU time around [start, end] over REF_PROBE_S."""
        lo = bisect_left(self.starts, start - self.period)
        hi = bisect_right(self.starts, end + self.period)
        near = self.durations[lo:hi]
        if not near:  # no probe ran nearby: take the closest one
            k = min(lo, len(self.starts) - 1)
            near = [self.durations[k]]
        return statistics.median(near) / REF_PROBE_S

    def scaled(self, start: float, end: float) -> float:
        """Work time of [start, end] at the reference host's speed.

        The probes that start inside the interval cut it into stretches,
        and each stretch is scaled by the probes around it, so a pass
        that spans a change of host speed is scaled piece by piece.
        """
        lo = bisect_right(self.starts, start)
        hi = bisect_left(self.starts, end)
        cuts = [start, *self.starts[lo:hi], end]
        return sum(self.work_s(a, b) / self.speed(a, b)
                   for a, b in zip(cuts, cuts[1:]))
