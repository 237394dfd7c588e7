"""Host-speed sampling, so that timings do not move with the host's load.

On the shared development host the same pure-Python loop ran anywhere
between 1.0x and 1.7x its best time from one second to the next, in phases
lasting seconds to minutes, which made raw job times of the same code
spread by up to 30% between runs.  While a pass runs, a sampler thread
times a fixed interpreter-bound loop every ``PERIOD_S`` seconds.  A job's
time is then scaled by ``REFERENCE_S`` over the loop's median time around
the job: the result is the seconds the job would take with the loop at its
reference speed.  The loop is timed with thread CPU time, which counts only
the sampler's own work, so the job thread holding the interpreter lock in
between does not inflate it.  The sampler costs the jobs about 2%.
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.1
LOOP_ITERATIONS = 10000
# The loop's thread CPU time on the uncontended development host (CPython
# 3.11, 2 GHz vCPU), so that scaled seconds read close to raw ones there.
REFERENCE_S = 0.0015


def loop_seconds() -> float:
    """Thread CPU seconds of a fixed dict-and-integer loop."""
    t0 = time.thread_time()
    acc: dict[int, int] = {}
    for i in range(LOOP_ITERATIONS):
        k = i % 97
        acc[k] = acc.get(k, 0) + i * 3 // 7
    return time.thread_time() - t0


class Sampler:
    """``with Sampler() as s:`` samples the loop until the block ends;
    ``s.scale(t0, t1)`` is the factor for a job that ran from t0 to t1
    (``time.perf_counter`` readings)."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        seconds = loop_seconds()
        self._samples.append((time.perf_counter(), seconds))

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def __enter__(self) -> "Sampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median loop time sampled within one period
        of [t0, t1], or the nearest sample when none is that close."""
        samples = list(self._samples)
        near = [s for t, s in samples if t0 - PERIOD_S <= t <= t1 + PERIOD_S]
        if not near:
            near = [min(samples, key=lambda ts: min(abs(ts[0] - t0), abs(ts[0] - t1)))[1]]
        return REFERENCE_S / statistics.median(near)
