"""Reference kernel that turns wall times into times at a fixed machine speed.

On a shared host the speed of a core drifts: on a 2-vCPU Intel Xeon VM one
pure-Python operation took 0.078 s in one five-second stretch and 0.145 s a
minute later, and medians over 20-60 s windows still spread by 25-30 %.  No choice
of run length removes that, so every timed interval is divided by the speed
measured with this kernel, which does exact rational arithmetic and dict
work like the package but never calls it.  With a kernel sample before and
after each interval the spread over the same windows fell to 1-3 %.

Long operations outlast the drift, so ``Meter`` also samples the kernel
every ``TICK_S`` seconds while an operation runs, from a SIGALRM handler,
and leaves the handler's own time out of the operation's time.

A normalized time is ``raw * REFERENCE_S / kernel time``: the seconds the
interval would take on a machine where one kernel run takes REFERENCE_S.
Neither the kernel nor REFERENCE_S may change, or numbers stop comparing.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.008
RUNS_PER_SAMPLE = 3
TICK_S = 0.25


def _kernel():
    total = Fraction(0)
    rows = {}
    for i in range(1, 600):
        f = Fraction(i, i + 7) - Fraction(1, i + 3)
        total += f * f
        row = rows.setdefault(i % 23, {})
        row[(i % 7, i % 5)] = row.get((i % 7, i % 5), 0) + f
        tuple(sorted((i % 7, i % 3, i % 11, i % 13)))
    return total


def sample(runs=RUNS_PER_SAMPLE):
    """Median kernel time of a few runs, with the collector off so the
    program's heap cannot add a full collection to the measurement."""
    times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(runs):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


def normalized(raw_s, before, after):
    """``raw_s`` seconds measured between kernel samples ``before`` and ``after``."""
    return raw_s * REFERENCE_S / ((before + after) / 2)


class Meter:
    """Times one operation in normalized seconds, sampling the speed while it runs.

    ``before`` is a kernel sample taken just before the operation; after
    ``with`` ends, ``raw`` holds the operation's wall time without the
    handler's, ``after`` a fresh sample and ``seconds`` the normalized time.
    """

    def __init__(self, before):
        self.before = before

    def __enter__(self):
        self._points = [(0.0, self.before)]  # (op seconds so far, kernel seconds)
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel = sample(runs=1)
        self._points.append((t0 - self._start - self._spent, kernel))
        self._spent += time.perf_counter() - t0

    def __exit__(self, *exc):
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.raw = end - self._start - self._spent
        self.after = sample()
        points = self._points + [(self.raw, self.after)]
        self.seconds = sum(
            normalized(t1 - t0, k0, k1) for (t0, k0), (t1, k1) in zip(points, points[1:])
        )
        return False
