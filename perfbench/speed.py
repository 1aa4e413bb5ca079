"""The host's speed, sampled by a fixed reference kernel.

The machine the benchmark runs on is a few cores of a shared host whose
speed moves by a factor of up to about 1.8 over seconds to minutes, for the
benchmark's own processes as much as for any other (process CPU time moves
with wall time).  To report times that follow the program and not the host,
every timed region is accompanied by samples of `reference_kernel`, a fixed
few milliseconds of the kind of interpreter work qmoments does (small-int
and Fraction arithmetic, tuple keys, dict updates), taken in the same
process while the region runs.  A time is then reported at reference speed:

    reported = measured * REF_NOMINAL_S / mean(reference samples)

The mean, not the median: the host flips between fast and slow states
many times a second, and a region's time follows the share of time spent in
each, which the mean of the samples follows and the median does not.

Processes that start Python afresh (the cli-cold calls) spend their time
differently: in interpreter start-up, imports and unmarshalling.  They are
set against a reference process instead, a fresh interpreter that imports a
few stdlib modules (REF_PROCESS_CODE), timed just before each call, with
REF_PROCESS_NOMINAL_S in place of REF_NOMINAL_S.

The nominal times are the references' usual times on the machine the
benchmark was written on (a 2-core x86-64 VM), so there reported times read
close to measured ones.  The references are the benchmark's own code and the
standard library: a change to qmoments moves the measured time and leaves
the references alone.
"""

import signal
import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 0.003
REF_PROCESS_CODE = "import argparse, decimal, fractions, json, random"
REF_PROCESS_NOMINAL_S = 0.07
SAMPLE_PERIOD_S = 0.1


def reference_kernel():
    acc = {}
    for _ in range(4):
        total = Fraction(0)
        for i in range(1, 90):
            total += Fraction(i % 13 + 1, i * i + 1)
            for j in range(8):
                key = ((i * 7919 + j) & 255, j)
                acc[key] = acc.get(key, 0) + i * j
    return total, len(acc)


def time_kernel():
    began = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - began


def sample(n):
    """n timed runs of the kernel, after one untimed warm-up run."""
    reference_kernel()
    return [time_kernel() for _ in range(n)]


def factor(samples, nominal=REF_NOMINAL_S):
    """Multiplier taking measured seconds to seconds at reference speed."""
    return nominal / statistics.fmean(samples)


class Sampler:
    """Times the kernel every SAMPLE_PERIOD_S seconds of wall time (SIGALRM)
    while the `with` block runs, interleaved with the work being measured.
    `spent` is the time the samples took, to be taken off the region's time."""

    def __init__(self, period=SAMPLE_PERIOD_S):
        self.period = period
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        began = time.perf_counter()
        reference_kernel()
        mid = time.perf_counter()
        self.samples.append(mid - began)
        self.spent += time.perf_counter() - began

    def __enter__(self):
        reference_kernel()  # warm-up, untimed
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
