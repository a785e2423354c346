"""Timings at a fixed reference speed, for runs on a shared host.

A core of a shared host does not keep one speed: load that other
tenants put on the same physical core slows it, by up to half, for
seconds to minutes at a time (on a 2-core Intel Xeon VM, the median
time of the kernels below over 12-second runs varied by a factor of
two within a few minutes, and the wall time of the workloads with it).
Wall time then says more about the neighbours than about the program. The benchmark therefore times a small fixed kernel,
written here and independent of kthprice, next to every op, and states
each op's latency at the reference speed:

    latency_ref = latency * REFERENCE_S / kernel time around the op

REFERENCE_S is the kernel's time on that machine when nothing else
loaded it, so on an idle core of that machine latency_ref equals the
wall time. A change to kthprice moves the op's time and not the
kernel's, so it moves latency_ref by the same share as the wall time.

Two kernels: "python" (exact Fraction polynomial products, the work of
the symbolic layers) and "numpy" (uniform draws, a partition and a max
over a (4096, 6) array, the work of the Monte Carlo layers). Each
workload uses the kernels whose work resembles its own (KINDS).
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

# Fastest time of each kernel on the reference machine (2-core Intel
# Xeon VM, Python 3.11.7, numpy 2.4.6), over 2000 runs of each.
REFERENCE_S = {"python": 2.48e-3, "numpy": 0.490e-3}
KINDS = {
    "mc-matrix": ("numpy",),
    "exact-ladder": ("python", "numpy"),
    "quad-verify": ("python", "numpy"),
    "cli-readme": ("python", "numpy"),
}
# How often the loop samples the kernels, in seconds of op time.
SAMPLE_EVERY_S = 0.25

_P = [Fraction(i * 7919 % 1013, i + 3) for i in range(1, 30)]
_Q = [Fraction(3 * i + 1, 7 + i) for i in range(1, 30)]


def python_kernel():
    out = [Fraction(0)] * (len(_P) + len(_Q) - 1)
    for i, a in enumerate(_P):
        for j, b in enumerate(_Q):
            out[i + j] += a * b
    return out


class _NumpyKernel:
    def __init__(self):
        import numpy as np

        self.np = np
        self.rng = np.random.default_rng(0)

    def __call__(self):
        v = self.rng.random((1 << 12, 6))
        return (self.np.partition(v, 3, axis=1)[:, 3].sum()
                + self.np.sqrt(v).max(axis=1).sum())


class Speed:
    """Kernel samples over time, and the speed factor of any interval."""

    def __init__(self, workload: str):
        self.kernels = []
        for kind in KINDS[workload]:
            fn = python_kernel if kind == "python" else _NumpyKernel()
            self.kernels.append(fn)
            fn()  # warm up
        self.reference = sum(REFERENCE_S[k] for k in KINDS[workload])
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def kernel_time(self) -> float:
        total = 0.0
        for fn in self.kernels:
            t0 = time.perf_counter()
            fn()
            total += time.perf_counter() - t0
        return total

    def sample(self, repeat: int = 1) -> float:
        """Record the kernels' time now (the fastest of repeat runs)."""
        best = min(self.kernel_time() for _ in range(repeat))
        self.times.append(time.perf_counter())
        self.kernel_s.append(best)
        return best

    @property
    def last(self) -> float:
        return self.times[-1]

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples around
        [start, end]: the last one before it and the first one after."""
        i = max(bisect.bisect_right(self.times, start) - 1, 0)
        j = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return self.reference / ((self.kernel_s[i] + self.kernel_s[j]) / 2)
