"""Machine-speed reference, for timing on a shared and noisy box.

On the 2-core VM this benchmark was built on, the speed of the whole guest
drifts by 20-50% over tens of seconds (other tenants of the host), in CPU
time as much as in wall time, so an absolute timing spreads by 0.13-0.45
(inter-quartile range over median) between runs.  A fixed kernel timed
between ops tracks that drift: op time divided by the local kernel time
spreads by about 0.03 over 10-second windows.

So every reported time is expressed at nominal speed: multiplied by
``NOMINAL_KERNEL_S / (kernel time measured around it)``.  The kernel mixes
interpreter work, small numpy calls and array passes, like the program.  It
never calls ``starsections``, so the program's own speed shows in full.  Raw
times are kept in the run record.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# median kernel time on the reference box (2 vCPU Intel Xeon VM, Python
# 3.11, numpy 2.4); times are reported as if the kernel took this long
NOMINAL_KERNEL_S = 0.0150
SAMPLE_EVERY_S = 0.25
NEIGHBOURS = 5
MAX_SAMPLES_AFTER_OP = 8

_SMALL = np.linspace(0.0, 1.0, 8)
_LARGE = np.linspace(0.0, 4.0, 100_000)             # fits in L2
_BUF = np.empty((2, _LARGE.size))
_SHARED = np.ones(2_000_000)                        # 16 MB: beyond L2, in the shared L3
_SHARED_OUT = np.empty_like(_SHARED)
# resident after the first kernel; subtracted from a pass's peak RSS
BUFFER_BYTES = _LARGE.nbytes + _BUF.nbytes + _SHARED.nbytes + _SHARED_OUT.nbytes


def kernel() -> float:
    """Seconds taken by one fixed mix of compute (interpreter work, small
    numpy calls, in-cache array passes) and, for about half the time, array
    passes through the shared cache, like the program's grid reductions.

    The arrays are preallocated: an allocation of that size would be timed
    with the allocator's state, which the program changes, instead of with
    the machine's speed.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(8_000):
        acc += i * i % 7
    for _ in range(400):
        np.abs(np.sin(_SMALL) * 2.0)
    for _ in range(4):
        np.exp(_LARGE, out=_BUF[0])
        np.sin(_LARGE, out=_BUF[1])
        np.multiply(_BUF[0], _BUF[1], out=_BUF[0])
    for _ in range(6):
        np.multiply(_SHARED, 1.0001, out=_SHARED_OUT)
    return time.perf_counter() - t0


def nominal_factor(durations) -> float:
    """Scale that turns a time measured at these kernel durations into one at nominal speed."""
    return NOMINAL_KERNEL_S / statistics.median(durations)


class SpeedProbe:
    """Kernel samples taken between ops: at least every ``SAMPLE_EVERY_S``,
    and more after a long op, whose speed is judged from its neighbours."""

    def __init__(self):
        self.ends = []        # perf_counter() at the end of each sample
        self.durations = []

    def sample(self, count: int = 1):
        for _ in range(count):
            duration = kernel()
            self.ends.append(time.perf_counter())
            self.durations.append(duration)

    def after_op(self, op_seconds: float):
        if not self.ends or time.perf_counter() - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample(min(MAX_SAMPLES_AFTER_OP, max(1, round(op_seconds / 0.5))))

    def factor(self, start: float, end: float) -> float:
        """Nominal factor for an op run over [start, end]: the median of the
        kernels just before and just after it (a pass samples NEIGHBOURS
        kernels before its first op and after its last)."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.ends, end)
        near = self.durations[max(0, before - NEIGHBOURS):before]
        near += self.durations[after:after + NEIGHBOURS]
        return nominal_factor(near)
