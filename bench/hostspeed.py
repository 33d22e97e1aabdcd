"""Host speed, sampled through a run with a fixed pure-Python kernel.

The benchmark shares its machine with other work: over tens of seconds
the same call runs up to 1.8x slower or faster (``build_gf(6)``, 5-second
medians from 115 to 203 ms on a 2-core x86_64 VM), and ten 35-second runs
spread by up to 40% in raw request latency.  Request timings are
therefore scaled to a reference host speed: a duration measured around
instant t is multiplied by ``REFERENCE_KERNEL_S / k(t)``, where k(t) is
the kernel's time interpolated at t.  On the same VM this cut the spread
of 10-second medians of four library calls from about 30% to 5-8%.  The
speed moves within a second, so the client samples the kernel before
and after every request: in 837 alternating samples of kernel and library calls,
scaling each call by the kernel just before it left a spread of 0.18 to
0.26 per call, and by the kernel three samples (about a second) earlier,
0.28 to 0.33.

The kernel uses the standard library only, so no change to invwalk moves
it; it mixes Fraction, big-int, dict and loop work, as the library does,
and products of 200-bit (mantissa, exponent) pairs normalised by shifts,
as mpmath's pure-Python backend computes.  In 837 samples over four
minutes on the same VM, the product loop cut the spread of 17-second
medians of ``closed_form_info(60, 3600)`` over the kernel from 0.061 to
0.028, and of ``build_gf(5)`` from 0.043 to 0.023 (interquartile range
over median).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from fractions import Fraction

# The median of the kernel without its product loop over 60 runs on the
# 2-core x86_64 VM the baseline was taken on (0.0107 s), times the median
# ratio of the whole kernel to that part in 837 samples there (1.46).  Over
# the baseline's 60 runs the whole kernel's median was 0.0130 s, so scaled
# times there read about 20% above the measured ones.
REFERENCE_KERNEL_S = 0.0156


def kernel_s() -> float:
    """Seconds for one run of the fixed kernel."""
    start = time.perf_counter()
    acc, table, mixed = Fraction(0), {}, 0
    for i in range(1, 1500):
        acc += Fraction(i % 97, i)
        table[i % 101] = table.get(i % 101, 0) + i * i
    for i in range(30000):
        mixed += (i * 2654435761) & 0xFFFF
    factor, acc = (3 << 197 | 12345, -199), (1 << 199, -199)
    for i in range(6000):
        man, exp = acc[0] * factor[0], acc[1] + factor[1]
        shift = man.bit_length() - 200
        if shift > 0:
            man >>= shift
            exp += shift
        acc = (man | 1, exp)
        bits = (man ^ (i * 0x9E3779B97F4A7C15)) & ((1 << 190) - 1)
        acc = (acc[0] + (bits >> 3), acc[1])
    return time.perf_counter() - start


class HostSpeed:
    def __init__(self):
        self.times: list = []    # perf_counter at the middle of each sample
        self.kernels: list = []  # kernel seconds of each sample

    def sample(self) -> None:
        start = time.perf_counter()
        kernel = kernel_s()
        self.times.append((start + time.perf_counter()) / 2)
        self.kernels.append(kernel)

    def kernel_at(self, t: float) -> float:
        i = bisect_left(self.times, t)
        if i == 0:
            return self.kernels[0]
        if i == len(self.times):
            return self.kernels[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        k0, k1 = self.kernels[i - 1], self.kernels[i]
        return k0 + (k1 - k0) * (t - t0) / (t1 - t0)

    def scaled(self, seconds: float, start: float) -> float:
        """``seconds`` measured from ``start`` on, at the reference host speed."""
        return seconds * REFERENCE_KERNEL_S / self.kernel_at(start + seconds / 2)
