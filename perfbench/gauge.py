"""Machine-speed gauge: rescales measured times to a reference speed.

On a shared machine the same pass can take twice as long from one minute to
the next, because other tenants load the CPU.  A fixed pure-Python kernel,
timed inside the worker process on the same CPU at the same moments, slows
down by the same factor.  A time ``t`` measured while the kernel took ``k``
seconds on average is reported as ``t * KERNEL_REF_S / k``: the time the
pass would have taken while the kernel ran in ``KERNEL_REF_S``.

The kernel is benchmark code and never changes with the program, so a
faster program still shows as a smaller rescaled time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# Kernel time on the tuning machine (2-core Xeon VM, Python 3.11) while
# it was not loaded; the scale of every rescaled time.
KERNEL_REF_S = 2.5e-4
# A kernel sample every SAMPLE_PERIOD_S of wall time costs about 1 %.
SAMPLE_PERIOD_S = 0.025
# A job's time is rescaled by the samples taken while it ran and within this
# many seconds of it, so that short jobs have samples too.  Over eight cache
# passes 0.1 s tracked the machine better than 0.25, 0.5, 1 or 2 s.
JOB_MARGIN_S = 0.1
# Kernels run back to back right after import, to rescale set-up time.
SETUP_KERNELS = 8


def kernel() -> float:
    """Seconds taken by one run of the fixed kernel.

    Dict updates, tuple keys, big-int arithmetic and string conversion, the
    operations weylzeta spends its time on.  The collector is held off so
    that a collection of the program's heap never lands inside a sample.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts = {}
        acc = 0
        for i in range(400):
            key = (i % 7, i % 5, i & 3)
            counts[key] = counts.get(key, 0) + i * i
            acc += len(str(i * 12345))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the kernel every SAMPLE_PERIOD_S while it is running."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.times.append(time.perf_counter())
        self.samples.append(kernel())

    def mean_between(self, start: float, end: float) -> float | None:
        """Mean kernel time of the samples taken from start to end."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return statistics.fmean(self.samples[lo:hi]) if hi > lo else None

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
