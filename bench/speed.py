"""Core-speed compensation for timings taken on a shared machine.

On a small shared sandbox the speed of the core a process runs on can change
by 2x within seconds (another load on the same physical core), and raw walls
of one and the same 40 s pass then spread by a third.  A fixed reference loop
slows down by the same factor as the workloads (measured to within a few
percent for Siegel stepping, scalar half-plane stepping and CSV formatting),
so ``SpeedProbe`` runs it every ``INTERVAL_S`` from a timer signal while a
pass runs and rescales the pass's time to the speed at which the loop takes
``REFERENCE_S``.  The benchmark code is fixed, so the scale is the same for
every commit measured with it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
BRACKET = 3
# the reference loop's time at the reference speed
REFERENCE_S = 1.0e-3


def reference_loop() -> list:
    """A fixed mix of 2-vector numpy calls, complex scalar steps and formatting."""
    a = np.zeros(2, np.complex128)
    z = 1.0 + 1.0j
    parts = []
    for i in range(300):
        a = a + 1.0
        m = float(np.vdot(a, a).real)
        z = z * 0.999 + 1j
        if i % 4 == 0:
            parts.append(format(m + z.real, ".17g"))
    return parts


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the reference loop every INTERVAL_S while the `with` block runs."""

    def __init__(self):
        self.samples = []

    def _tick(self, _signum, _frame) -> None:
        self.samples.append(reference_time())

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def timed(fn, *args):
    """(result, raw wall, wall at the reference speed) of fn(*args).

    The probe's own time is taken out of the wall.  BRACKET samples just
    before and after the call join the ones taken during it, so that a call
    shorter than one interval is scaled too; the mean of the per-sample speed
    factors weights the equally spaced samples by time.
    """
    samples = [reference_time() for _ in range(BRACKET)]
    probe = SpeedProbe()
    with probe:
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        during = list(probe.samples)
    samples += during + [reference_time() for _ in range(BRACKET)]
    work = wall - sum(during)
    return result, wall, work * statistics.fmean(REFERENCE_S / s for s in samples)
