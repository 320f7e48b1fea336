"""Host speed from a fixed pure-Python calibration loop.

The benchmark runs on small shared virtual machines whose speed on
interpreter-bound code drifts by up to about 20% over seconds to
minutes, because other guests contend for the same physical cores and
caches.  A closed-loop op list of 10-50 s then reads slow or fast
depending on when it ran, not on the program.

:class:`HostSpeedProbe` samples the speed *while* ops run: an interval
timer interrupts the process a few times a second and the handler times
one short round of a fixed loop, the *host factor* being that time over
:data:`NOMINAL_S`.  An op's seconds, less the time its samples took,
divided by the mean factor of the samples inside it, is its time on a
host that runs the loop in exactly :data:`NOMINAL_S` seconds.  That
removes most of the drift while keeping seconds as the unit.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

#: Iterations of one calibration round (7 ms on the nominal host).
CALIBRATION_ITERATIONS = 60_000
#: Seconds between samples; one round per interval costs about 2%.
SAMPLE_INTERVAL_S = 0.4
#: Seconds of one calibration round on the nominal host: a typical round
#: on a 2-vCPU Intel Xeon (family 6, model 143) KVM guest at 2.0 GHz,
#: where rounds read 4.7-12 ms as the host's load changes.  Only ratios
#: to it enter the metrics.
NOMINAL_S = 0.007


def calibration_round() -> float:
    """Seconds one round of the calibration loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


@dataclass(frozen=True)
class Mark:
    """Where a probe stood when an op started."""

    samples: int
    spent_s: float


class HostSpeedProbe:
    """Host factors sampled on a timer while the probe is running.

    Use as a context manager around the ops; :meth:`mark` before an op and
    :meth:`since` after it give the sampling time to take off the op's
    seconds and the factor to divide the rest by.
    The process must not use ``SIGALRM`` itself meanwhile.
    """

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.factors: list[float] = []
        #: Seconds the samples themselves took, which ops must not be charged.
        self.spent_s = 0.0
        self._previous_handler = None

    def sample(self) -> None:
        """Time one calibration round and keep its host factor."""
        start = time.perf_counter()
        self.factors.append(calibration_round() / NOMINAL_S)
        self.spent_s += time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> HostSpeedProbe:
        self.sample()  # an op shorter than one interval uses the latest factor
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def mark(self) -> Mark:
        return Mark(len(self.factors), self.spent_s)

    def since(self, mark: Mark) -> tuple[float, float]:
        """Sampling seconds since ``mark`` and the mean host factor of its samples.

        With no sample since ``mark`` the latest factor stands in.
        """
        inside = self.factors[mark.samples :] or self.factors[-1:]
        return self.spent_s - mark.spent_s, sum(inside) / len(inside)
