"""Host speed probe: a fixed piece of work timed again and again while a call runs.

The benchmark's host is a few cores of a shared machine whose speed drifts
by up to 2x within minutes.  A call's wall time is only comparable between
runs once it is scaled by how fast the host was while that call ran.  The probe is the benchmark's own code, so a
change to the simulator cannot change it:

    normalised seconds = (wall - probe time) * NOMINAL_PROBE_S / median probe

``NOMINAL_PROBE_S`` is the probe's duration on a 2-CPU Xeon host at its
usual speed, so normalised seconds read close to wall seconds there.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.2
NOMINAL_PROBE_S = 0.005
# What the simulator spends its time on: small numpy draws and reductions,
# and short-lived Python objects.  Over 14 dense-gossip calls whose wall
# time spread 22% (quartiles over median), this mix correlated 0.93 with
# the call's time and left a 5% spread; draws alone left 10%.
DRAWS = 100
OBJECTS = 3000


class SpeedProbe:
    """Times a fixed mix of work now and every ``PERIOD_S`` during a block."""

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)
        self.samples: list[float] = []  # seconds per probe, the first taken before the block
        self.interrupt_s = 0.0  # probe time spent inside the block

    def _probe(self) -> float:
        started = time.perf_counter()
        total = 0.0
        for _ in range(DRAWS):
            x = self._rng.normal(0.0, 1.0, 16)
            total += float(np.mean(x)) + float(np.std(x))
        objects = [(i, [i] * 4, {"k": i}) for i in range(OBJECTS)]
        total += len(objects)
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        self.interrupt_s += self._probe()

    @contextmanager
    def during(self):
        """Probe once, then on a timer until the block ends."""
        self.samples, self.interrupt_s = [], 0.0
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def normalise(self, wall_s: float) -> float:
        """Seconds the block would have taken at the nominal host speed."""
        return (wall_s - self.interrupt_s) * NOMINAL_PROBE_S / statistics.median(self.samples)
