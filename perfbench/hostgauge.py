"""A live gauge of the host's speed, to normalise wall times against.

On a shared host each CPU switches between a fast and a slow state about
every second, and the share of slow time drifts over minutes.  On the 2-vCPU
reference host the slow state runs pure-Python work about 1.6× slower, so
raw wall times of identical runs a few minutes apart differed by up to 40%.
A background thread therefore times a fixed pure-Python loop five times a
second for the whole run.  A measured time is rescaled by the mean loop time
over its window, to the seconds it would have taken on a host where one loop
takes ``REFERENCE_MS``.  The loop is the benchmark's own code, so a change to
the program never moves it.

The thread holds the interpreter lock for about 2 ms per sample, about 1% of
the run, in every run alike.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Tuple

Interval = Tuple[float, float]

#: Loop time of the fast state of the reference host (2 vCPUs, Python 3.11).
REFERENCE_MS = 2.0
PERIOD_S = 0.2
#: Fewest samples a window needs; narrower windows are widened to this.
MIN_SAMPLES = 5
#: Samples slower than this multiple of the run's fast state (its 10th
#: percentile) shared a CPU with the benchmark's own processes.
SPIKE = 2.0


def gauge_loop() -> int:
    table = {}
    total = 0
    for index in range(13_000):
        table[index & 1023] = index
        total += table.get((index * 7) & 1023, 0) & 3
    return total


class HostGauge:
    """Samples :func:`gauge_loop` every ``PERIOD_S`` seconds in a thread."""

    def __init__(self) -> None:
        #: (start time, loop seconds) per sample.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-gauge", daemon=True)

    def __enter__(self) -> "HostGauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        # Run ahead of the benchmark's own processes where allowed, so a
        # sample times the host rather than our load; without the privilege
        # the SPIKE filter drops the samples that shared a CPU.
        try:
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), -10)
        except OSError:
            pass
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            gauge_loop()
            self.samples.append((start, time.perf_counter() - start))

    def loop_ms(self, interval: Interval) -> float:
        """Mean loop time of the samples taken in ``interval``, widened
        symmetrically to at least ``MIN_SAMPLES``.

        A sample that had to share its CPU with the benchmark's own load
        (set-up probes, pool workers) reads about twice the host's state, so
        samples above ``SPIKE`` times the run's fast state are dropped.
        """
        samples = list(self.samples)
        if not samples:
            raise RuntimeError("the host gauge took no samples")
        fast = sorted(seconds for _, seconds in samples)[len(samples) // 10]
        samples = [s for s in samples if s[1] <= SPIKE * fast]
        start, end = interval
        inside = [s for s in samples if start <= s[0] <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            inside = sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
        return 1e3 * sum(seconds for _, seconds in inside) / len(inside)

    def normalised_mean(self, intervals: List[Interval]) -> float:
        """Mean seconds of ``intervals`` at the reference speed: their mean
        duration scaled by the mean loop time over the window they span.
        Scaling each interval by its own few samples would be noisier, since
        the host's state changes within a second."""
        window = (min(start for start, _ in intervals), max(end for _, end in intervals))
        mean = sum(end - start for start, end in intervals) / len(intervals)
        return mean * REFERENCE_MS / self.loop_ms(window)
