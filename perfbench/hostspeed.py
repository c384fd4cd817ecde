"""Host-speed calibration: time in reference seconds.

On a shared virtual machine the host's speed drifts by up to 1.7x
within seconds and for minutes at a time (README.md, "Noise"), so a
wall-clock time mixes the program's cost with the host's state.  The
benchmark therefore runs ``ruler`` — a fixed pure-Python loop that
does not depend on the program — at every boundary of every timed
segment, and scales the segment's host time by ``REF_RULER_S`` over
the faster of the two rulers that bracket it.  The result is the time
the segment would take on a host that runs the ruler in
``REF_RULER_S``: a reference second.  Ruler time is never inside a
segment.
"""

from __future__ import annotations

import bisect
import time

#: ruler time that defines one reference second (about the ruler's
#: time on an idle 2-core guest of the machines this was tuned on).
REF_RULER_S = 250e-6


#: runs of the calibration loop per ruler; the ruler is the fastest, so
#: that an interrupt during one run does not read as a slow host.
RULER_RUNS = 4


def ruler() -> float:
    """Run the calibration loop RULER_RUNS times; return the least CPU
    time on this thread (CPU time, so that waiting for the interpreter
    lock held by an executor thread does not read as a slow host)."""
    best = float("inf")
    for _ in range(RULER_RUNS):
        t0 = time.thread_time()
        d: dict[int, int] = {}
        for i in range(2000):
            k = i % 97
            d[k] = d.get(k, 0) + i * 3
        best = min(best, time.thread_time() - t0)
    return best


def reference_s(host_s: float, ruler_before: float, ruler_after: float) -> float:
    """Host seconds of one segment in reference seconds."""
    return host_s * REF_RULER_S / min(ruler_before, ruler_after)


class RefClock:
    """Reference time along one phase's ``perf_counter`` clock.

    ``marks`` are ruler samples ``[start, ruler, end]``.  The gap
    between two consecutive marks runs at the speed of the faster of
    its two rulers; ruler time itself counts as zero.
    """

    def __init__(self, marks: list[list[float]]) -> None:
        self.marks = sorted(marks)
        self.starts = [m[0] for m in self.marks]
        #: reference and host seconds from the first mark to each mark
        self.ref_at = [0.0]
        self.host_at = [0.0]
        for a, b in zip(self.marks, self.marks[1:]):
            gap = max(0.0, b[0] - a[2])
            self.host_at.append(self.host_at[-1] + gap)
            self.ref_at.append(self.ref_at[-1] + reference_s(gap, a[1], b[1]))

    def segments(self) -> list[float]:
        """Reference seconds of each gap between consecutive marks."""
        return [b - a for a, b in zip(self.ref_at, self.ref_at[1:])]

    def _pos(self, t: float, reference: bool) -> float:
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:  # before the first mark: at that ruler's speed
            base, dt, r = 0.0, t - self.starts[0], self.marks[0][1]
        else:  # in mark i's ruler (dt = 0) or in the gap after it
            nxt = self.marks[min(i + 1, len(self.marks) - 1)]
            base = (self.ref_at if reference else self.host_at)[i]
            dt = max(0.0, t - self.marks[i][2])
            r = min(self.marks[i][1], nxt[1])
        return base + (dt * REF_RULER_S / r if reference else dt)

    def ref(self, a: float, b: float) -> float:
        """Reference seconds between host instants ``a`` and ``b``."""
        return self._pos(b, True) - self._pos(a, True)

    def host(self, a: float, b: float) -> float:
        """Host seconds between ``a`` and ``b``, ruler time excluded."""
        return self._pos(b, False) - self._pos(a, False)
