"""Host speed, measured alongside the program so that times can be reported
at one fixed reference speed.

The benchmark runs on shared virtual machines whose speed swings by up to
2x within seconds while the work stays the same.  While a run measures, a
``SIGALRM`` timer therefore interrupts the program every few milliseconds
to time a fixed pure-Python reference loop (``SAMPLE_SHARE`` of the wall
time), so samples fall inside long operations too.  Operations are timed
on ``HostSpeed.clock``, which stands still while a sample runs, and each
operation's time is scaled by ``HostSpeed.factor`` over its own span: the
host's speed on the loop then, over ``REFERENCE_LOOPS_PER_S``.  A time
reads as it would on a host that runs the loop exactly
``REFERENCE_LOOPS_PER_S`` times a second.  The loop shares no code with the
package under test, so a change to the program cannot move it; both are
CPython bytecode on one core, so a slower host slows both alike.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

# a round figure for the loop's speed on the host the benchmark was defined
# on (a shared 2-vCPU Linux VM, CPython 3.11.7), where it ranged over
# 190-410 loops/s; fixed, so results stay comparable across runs
REFERENCE_LOOPS_PER_S = 290.0
# share of wall time spent on reference samples
SAMPLE_SHARE = 0.25
# fewest samples behind one factor
NEAREST = 16


class _Cell:
    __slots__ = ("mask", "weight")

    def __init__(self, mask: int, weight: int):
        self.mask = mask
        self.weight = weight


def reference_loop() -> int:
    """Fixed interpreter work of the kinds the program does: bit masks,
    small objects, method calls, dict and set traffic (about 3 ms)."""
    cells: dict[int, _Cell] = {}
    seen: set[int] = set()
    total = 0
    for i in range(6000):
        key = (i * 40503) & 1023
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _Cell(0, 0)
        cell.mask |= 1 << (i % 61)
        low = cell.mask & -cell.mask
        cell.weight += low.bit_length()
        if cell.mask.bit_count() > 12:
            seen.add(cell.mask)
            total += len(sorted(cell.mask.to_bytes(8, "little")))
            cell.mask = 0
    return total + len(seen)


class HostSpeed:
    """Reference-loop samples, taken from a timer while the ``with`` block
    runs and on demand by ``calibrate``."""

    def __init__(self) -> None:
        self.stamps: list[float] = []  # ``clock()`` when each sample ran
        self.times: list[float] = []  # its duration
        self.busy = 0.0
        self._count = 0  # bumped by every sample, so ``clock`` can retry
        self._timed = False

    def clock(self) -> float:
        """``perf_counter()`` less the time spent in samples."""
        while True:
            count = self._count
            now = perf_counter() - self.busy
            if count == self._count:
                return now

    def sample(self) -> None:
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.stamps.append(t0 - self.busy)
        self.times.append(t1 - t0)
        self.busy += t1 - t0
        self._count += 1

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        # a handler that runs late, after __exit__ began, must not re-arm
        # the timer: the alarm would then kill the process
        if self._timed:
            pause = self.times[-1] * (1.0 - SAMPLE_SHARE) / SAMPLE_SHARE
            signal.setitimer(signal.ITIMER_REAL, pause)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._timed = True
        signal.setitimer(signal.ITIMER_REAL, 0.001)
        return self

    def __exit__(self, *exc) -> None:
        self._timed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrate(self, seconds: float) -> None:
        """Samples back to back for ``seconds``."""
        end = perf_counter() + seconds
        while not self.times or perf_counter() < end:
            self.sample()

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Host speed over the reference speed: multiply a time measured on
        ``clock`` between ``start`` and ``end`` by it to get the time at the
        reference speed.  It comes from the samples taken in that span, or
        the ``NEAREST`` nearest to it if fewer fell inside; without a span,
        from every sample."""
        if start is None or end is None:
            lo, hi = 0, len(self.stamps)
        else:
            lo = bisect.bisect_left(self.stamps, start)
            hi = bisect.bisect_right(self.stamps, end)
            while hi - lo < NEAREST and (lo > 0 or hi < len(self.stamps)):
                if lo > 0 and (hi == len(self.stamps)
                               or start - self.stamps[lo - 1] <= self.stamps[hi] - end):
                    lo -= 1
                else:
                    hi += 1
        return (hi - lo) / sum(self.times[lo:hi]) / REFERENCE_LOOPS_PER_S
