"""Machine-speed reference for rescaling times to a fixed nominal speed.

The benchmark runs on shared virtual machines whose single-core speed
drifts by tens of percent within a minute, invisibly to the guest (no
steal time is reported).  So every pass also times a fixed reference
chunk of pure-Python dict and integer work, interleaved with the workload
on the same core: a SIGALRM handler runs one chunk every PERIOD_S of wall
time.  The relative speed over the pass is the mean of
NOMINAL_CHUNK_S / chunk time over those samples (samples are uniform in
time, so this averages the work rate), and a time at nominal speed is
the measured time times that factor.  Time spent in the handler is
subtracted from the pass first.
"""

import signal
import statistics
import time

NOMINAL_CHUNK_S = 1.0e-3
# Set-up is too short to sample this way.  It is instead taken relative to
# a baseline interpreter that imports stdlib modules only (child.py), and
# rescaled to a machine on which that baseline takes this long.
NOMINAL_BASELINE_S = 0.08
PERIOD_S = 0.02
MIN_SAMPLES = 20


def chunk():
    d = {}
    for i in range(2000):
        k = (i % 17, i % 5, i % 3)
        d[k] = d.get(k, 0) + i * 12345678901234567
    return d


def time_chunk():
    start = time.perf_counter()
    chunk()
    return time.perf_counter() - start


class Sampler:
    """Context manager that times the reference chunk every PERIOD_S."""

    def __init__(self):
        self.samples = []
        self.spent_cpu_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        cpu0 = time.process_time()
        self.samples.append(time_chunk())
        self.spent_cpu_s += time.process_time() - cpu0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def spent_s(self):
        return sum(self.samples)

    def speed(self):
        """Relative speed over the samples; short runs are topped up with
        samples taken right after them."""
        extra = [time_chunk() for _ in range(MIN_SAMPLES - len(self.samples))]
        return statistics.fmean(NOMINAL_CHUNK_S / s for s in self.samples + extra)
