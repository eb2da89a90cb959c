"""Host-speed calibration for the end-to-end times.

The 2-core host this benchmark was defined on shares its cores with
other tenants, and its speed drifts by up to a factor of two over
minutes: the same operation's wall time varied by more than the widest
bound a regression gate may use. The slowdowns are slower execution,
not lost scheduling: a step's CPU time grows with its wall time.

So ``SpeedProbe`` samples the host's speed *during* each timed step: a
SIGALRM timer runs a 1 ms probe kernel of interpreter and numpy work,
which never touches the package, every PROBE_INTERVAL_S in the main
thread of the measuring process. The step's wall time, less the probes,
is rescaled by PROBE_REFERENCE_S over the probes' mean CPU time. A
change to the program moves the step and not the probes, so it shows in
full; a host slowdown moves both and cancels. A step of several seconds
gets tens of samples, so drift within the step cancels too. The probes
are timed in CPU time, not wall time, so that a probe waiting for a
core that the program's own worker processes hold does not read as a
slow host. Raw wall times are reported next to every normalized one.

Import this module only after the BLAS thread variables are set.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.1
# Sets the scale only: a normalized second is a wall second on a host
# where the probe kernel takes this much CPU time, about the typical
# speed of the host the benchmark was defined on.
PROBE_REFERENCE_S = 0.0012

_X = np.random.default_rng(1).random(2000)
_IDX = np.random.default_rng(2).integers(0, 2000, 2000)


def probe_seconds() -> float:
    """CPU time of the probe kernel: interpreter work, tiny numpy calls
    and a gathered pass over a small array, the kinds of work the
    package's hot loops are made of."""
    t0 = time.thread_time()
    acc = 0.0
    counts: dict[int, int] = {}
    for i in range(300):
        acc += float(np.exp(-_X[:8]).sum())
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(20):
        acc += float(np.dot(_X[_IDX], _X))
    return time.thread_time() - t0


class SpeedProbe:
    """Context manager that runs the probe kernel every PROBE_INTERVAL_S
    while the step inside it runs, and once at the end if it never ran.
    Probes run between bytecodes of the main thread, so a step in one
    long C call gets fewer of them. Forked children inherit no timer."""

    def __init__(self):
        self.samples: list[float] = []  # CPU seconds of each probe
        self.spent = 0.0  # wall seconds the probes took

    def __enter__(self) -> SpeedProbe:
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a step shorter than the interval
            self._probe()

    def _probe(self, *signal_args) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe_seconds())
        self.spent += time.perf_counter() - t0

    def normalized(self, wall: float) -> float:
        return probe_normalized(wall, self.samples, self.spent)


def probe_normalized(wall: float, samples: list[float], spent: float) -> float:
    """A step's wall time, which includes ``spent`` seconds of probing,
    less the probes and rescaled to the reference speed."""
    return (wall - spent) * PROBE_REFERENCE_S / statistics.fmean(samples)
