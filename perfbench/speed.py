"""Host-speed correction for timings taken on a shared machine.

On a shared 2-core VM the same job's wall time swings by ±30 % with load on
the host that this process cannot see: the VM's steal time stays flat, and
CPU time swings with wall time.  A short fixed pure-Python loop, the probe,
slows down in step with the job.  Timed every PROBE_INTERVAL_S while fields
are built and while the job runs, its mean tracks the job's wall time with a correlation of 0.94 (30
census repeats).  Scaling a timing by PROBE_REFERENCE_S / mean probe time
gives seconds at a fixed reference speed.  Across those repeats the spread
between quartiles fell from 13 % of the median to 5.5 %.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_ROUNDS = 1000  # about 3 ms per probe
PROBE_INTERVAL_S = 0.2  # about 1.5 % of the job's time goes to probes
PROBE_REFERENCE_S = 0.003  # probe time that defines the reference speed
PRE_PROBES = 10  # taken between set-up and job; the factor when nothing was sampled


def _probe_step(table, x):
    return table[x & 255] ^ (x * 2654435761 % 1000003)


def probe_s() -> float:
    """Wall time of the probe: calls, list indexing and integer arithmetic,
    as in pnfield's element loops."""
    table = [(i * 7919) % 65521 for i in range(256)]
    t0 = time.perf_counter()
    x = 1
    for _ in range(PROBE_ROUNDS):
        for _ in range(10):
            x = _probe_step(table, x) + 1
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Multiplier from timings at the sampled speed to the reference speed."""
    return PROBE_REFERENCE_S / statistics.fmean(samples)


class SpeedSampler:
    """Times the probe from a SIGALRM handler every PROBE_INTERVAL_S seconds
    between start() and stop(); ``total`` is the time the probes took."""

    def __init__(self):
        self.samples: list[float] = []

    @property
    def total(self) -> float:
        return sum(self.samples)

    def _tick(self, signum, frame):
        self.samples.append(probe_s())

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def timed(fn, sample: bool):
    """Call fn() and return (result, wall_s, cpu_s, probe samples).  The
    probes run only when ``sample`` is true; their time is taken out."""
    sampler = SpeedSampler()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if sample:
        sampler.start()
    try:
        result = fn()
    finally:
        sampler.stop()
    wall_s = time.perf_counter() - t0 - sampler.total
    cpu_s = time.process_time() - cpu0 - sampler.total
    return result, wall_s, cpu_s, sampler.samples
