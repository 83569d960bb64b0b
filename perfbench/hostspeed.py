"""How fast the host runs while a child is being timed.

On a shared host, each of this container's CPUs switches every few
seconds between a fast and a slow state, about 1.5x apart, as the
neighbours on the physical core come and go.  A command of a few
seconds meets a mix of the two, and a run of 20-30 s can fall wholly in
one, so its times drift by up to 1.8x from run to run.

``Monitor`` measures that state where the child runs.  The benchmark
pins itself and its children to one CPU; a thread wakes every
``INTERVAL_S``, preempts the child for two short probes and records
how long each took.  The probes stand for the two kinds of cost in the
CLI's work: a pure-Python float loop (the interpreter) and a random
gather from a 3 MB array (cache misses).  Each probe runs twice and
only the second, warm run is timed, so the probe times depend on the
host and hardly on what the child left in the caches: with the child
running they were 1-6% below those in the idle gaps between children,
for small-batch, verify-64 and poincare-strip alike.  A sample (a
child's wall time, an import or a command) is multiplied by
``REFERENCE_S`` times the probes' mean speed inside it: per round of
probes, one over the geometric mean of its two times, averaged over
the rounds.  That integrates the host's speed over the sample, which a
span of mixed fast and slow stretches needs.  A round in which the
child preempted a probe reads long and is left out: one with a probe
time above ``PREEMPTED`` times that probe's median.  The sample then
reads as seconds at a steady reference speed.

Over four minutes in which raw child wall times of small-batch,
verify-64 and poincare-strip spread 21-31% (quartile distance over
median), the normalised ones spread 5-6%; solve-256 went from 14% to
5%.  Normalising by the median probe time instead left 7-11%.

The probes never call dirichlet_fem, so a change to the program moves
the normalised times and not the probes.  They cost the child about 2%
of its time, the same in every run.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter

import numpy as np

# Geometric mean of the warm probe times in the fast state of the
# reference host, a 2-core Intel Xeon VM.  It only sets the scale of the
# normalised times.
REFERENCE_S = 0.00013
INTERVAL_S = 0.05
MIN_ROUNDS = 9  # a shorter span takes the rounds of probes nearest to it
PREEMPTED = 3.0

_ARRAY = np.linspace(0.0, 1.0, 400_000)
_INDEX = np.random.default_rng(0).integers(0, _ARRAY.size, 20_000)


def _python() -> float:
    total = 0.0
    for i in range(1500):
        total += (i * 1e-3 + 1.5) / (i * 1e-3 + 2.0)
    return total


def _gather() -> float:
    return float(_ARRAY[_INDEX].sum())


PROBES = (_python, _gather)


class Monitor:
    """A thread that times the probes every INTERVAL_S until stopped."""

    def __init__(self):
        self.samples: list[tuple[float, list[float]]] = []  # (end time, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> Monitor:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            times = []
            for probe in PROBES:
                probe()  # warms the caches for the timed run
                start = perf_counter()
                probe()
                times.append(perf_counter() - start)
            self.samples.append((perf_counter(), times))

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S times the probes' mean speed between start and end.

        A span that holds fewer than MIN_ROUNDS rounds of probes takes
        the MIN_ROUNDS nearest to its middle."""
        rounds = [times for t, times in self.samples if start <= t <= end]
        if len(rounds) < MIN_ROUNDS:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            rounds = [times for _, times in nearest[:MIN_ROUNDS]]
        limits = [PREEMPTED * statistics.median(column) for column in zip(*rounds)]
        kept = [times for times in rounds
                if all(t <= limit for t, limit in zip(times, limits))]
        speeds = [1.0 / statistics.geometric_mean(times) for times in kept or rounds]
        return REFERENCE_S * statistics.fmean(speeds)
