"""Machine-speed calibration for the untraced runs.

The VM the baseline was measured on changes speed by up to 1.7x over
minutes, and CPU time changes with it, so no statistic within a run hides
it.  ``Calibrator`` runs a fixed kernel every ``PERIOD_S`` seconds from a
``SIGALRM`` handler in the main thread, while the workload runs.  The
kernel is shaped like the integrator's inner loop (small longdouble arrays
built from scalar arithmetic) and never touches warpcrit.

``speed`` is ``REF_S`` over the mean kernel time.  The ``*_norm`` metrics
scale each interval's wall-clock seconds by the speed measured around it,
which gives the figure at the speed at which the kernel takes ``REF_S``.
The time the handler takes is subtracted from every interval.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
STEPS = 5_000
# Kernel time inside a run in the fastest spells seen on the baseline VM.
REF_S = 0.0125
# Kernel samples this close to an interval set its scale.
WINDOW_NS = 1_000_000_000


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    ld = np.longdouble
    y = np.array([1.0, 0.1, 0.5, 0.0], dtype=ld)
    h, c = ld(1e-3), ld(0.5)
    t0 = time.perf_counter()
    for _ in range(STEPS):
        r = y[0]
        y = y + h * np.array([y[1], c * r**-2 - c * r, y[3], -c * y[2] - c], dtype=ld)
    return time.perf_counter() - t0


class Calibrator:
    """Context manager that samples the kernel while the workload runs.

    ``ticks`` holds, for every handler call, its wall-clock start in ns,
    the seconds it took and the seconds the kernel took.
    """

    def __init__(self):
        self.ticks: list[tuple[int, float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        wall = time.time_ns()
        t0 = time.perf_counter()
        kernel = kernel_seconds()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self.ticks.append((wall, time.perf_counter() - t0, kernel))

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start_ns: int, end_ns: int) -> tuple[float, float]:
        """Seconds between two wall-clock instants, without the handler's
        time, as measured and scaled to speed 1.

        The scale uses the kernel samples taken within WINDOW_NS of the
        interval, so a slow spell weighs only on the tasks it overlapped.
        """
        raw = (end_ns - start_ns) / 1e9
        near = []
        for wall, took, kernel in self.ticks:
            if start_ns <= wall < end_ns:
                raw -= took
            if start_ns - WINDOW_NS <= wall < end_ns + WINDOW_NS:
                near.append(kernel)
        local = REF_S / statistics.fmean(near) if near else self.speed
        return raw, raw * local

    @property
    def speed(self) -> float:
        """Speed over the whole run: REF_S over the mean kernel time."""
        return REF_S / statistics.fmean(k for _, _, k in self.ticks)
