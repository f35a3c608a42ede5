"""A clock that runs at a fixed reference speed, not at the host's current one.

On a shared host the speed of a virtual CPU can change by up to 2x for
seconds at a time, and it changes for all pure-Python code alike.  On a
2-vCPU Xeon virtual machine, a fixed loop took either about 1.3 ms or
1.8-2.0 ms, each for 1-10 s at a time; one affweyl call timed over 0.4 s
windows spread 0.39 (quartile distance over median), and 0.02 once divided
by a calibration loop timed beside it in the same process.  A loop timed in
another process, on the other vCPU, did not track it (0.28).  Wall time
there measures the host as much as the program; ``RefClock`` removes the
common factor.

While it runs, a SIGALRM timer interrupts the process every PERIOD_S; the
handler times CALIB_ITERS rounds of a fixed loop.  Between two samples the
clock advances by the wall time elapsed times CALIB_REF_S / c, where c is
the median of the last three calibration times: the seconds the same work
would have taken at the reference speed, at which the loop takes
CALIB_REF_S.  The handler's own time (about 1% of the run) is left out.  A
program that gets faster or slower still shows in full; only the speed of
the host is divided out.

The main thread must run Python code for the handler to run, so a process
that waits for a child (the CLI commands) measures the child with the
child's own clock: see ``perfbench/clirun.py``.
"""

from __future__ import annotations

import gc
import signal
import time

PERIOD_S = 0.025
CALIB_WARM = 10  # untimed rounds first, so that the program's use of the caches hardly shows
CALIB_ITERS = 150
CALIB_REF_S = 1.25e-4  # the loop's time at the reference speed: a 2020s Xeon core with no other load on it


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def calibrate() -> float:
    """Seconds for a fixed loop of calls that build and drop small tuples, the
    kind of work affweyl's element arithmetic does; it tracks the program's
    speed more closely than integer arithmetic alone.  Its tuples are freed
    at once, so it leaves the garbage collector's counters where it found them."""
    a, b = (1, 2, 3, 4), (5, 6, 7, 8)
    for _ in range(CALIB_WARM):
        a = _add(a, b)
    a = (1, 2, 3, 4)
    t0 = time.perf_counter()
    for i in range(CALIB_ITERS):
        a = _add(a, b) if i & 1 else _add(b, a)
    return time.perf_counter() - t0


class RefClock:
    """Reference-speed seconds since start(); read with now()."""

    def start(self) -> "RefClock":
        self._recent = [calibrate() for _ in range(3)]
        self._factor = CALIB_REF_S / sorted(self._recent)[1]
        self._ref = 0.0
        self._last = time.perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._tick) or signal.SIG_DFL
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> float:
        """Stop sampling and freeze the clock; returns its reading."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)
            self._running = False
            self._ref = self.now()
            self._factor = 0.0
        return self._ref

    def now(self) -> float:
        return self._ref + (time.perf_counter() - self._last) * self._factor

    def _tick(self, signum, frame):
        self._ref = self.now()
        enabled = gc.isenabled()
        gc.disable()
        self._recent = self._recent[1:] + [calibrate()]
        if enabled:
            gc.enable()
        self._factor = CALIB_REF_S / sorted(self._recent)[1]
        self._last = time.perf_counter()
