"""Host-speed calibration: a fixed kernel timed between the commands of a run.

On a shared host the same code runs up to twice as slow for seconds to
minutes at a time, with no steal time to show for it, and process CPU time
swells with wall time. Such a phase can cover a whole run. So every
untraced command is bracketed by one run of a fixed kernel that uses no
qrsteg code, and its wall time is scaled by ``REFERENCE_S`` over the mean of
the kernel's two times, raised to ``SENSITIVITY``: an estimate of the
command time the reference host would give at full speed. A change to the program moves the scaled time as much as the
wall time; a change to the host's speed moves both the command and the
kernel and mostly cancels. The raw wall times stay in every run record.

The kernel mixes the kinds of work qrsteg does: a seeded shuffle of a CIF
plane, 256-bit modular powers, an interpreter loop and a JSON round trip.
Changing it, ``REFERENCE_S`` or ``SENSITIVITY`` rescales every time metric of the
benchmark, so a run of a changed kernel cannot be compared with older runs.
"""

from __future__ import annotations

import json
import time

import numpy as np

# The kernel's wall time on the reference host (a 2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4) in a quiet moment: the fastest of 622 runs.
REFERENCE_S = 0.050

# A command slows more than the kernel when the host is busy. Over 28
# forty-second runs on that host, the log of a run's median call time
# against the log of its median kernel time had slopes of 1.0-1.55 by
# command and workload (correlation 0.86-0.99). Scaling by the kernel's
# time to the power 1.3 left the smallest spread across runs.
SENSITIVITY = 1.3

_PLANE = np.random.default_rng(1).integers(0, 256, size=352 * 288, dtype=np.int64)
_MODULUS = (1 << 255) - 19


def kernel() -> int:
    """The fixed work; returns a checksum so that nothing is optimised away."""
    rng = np.random.default_rng(12345)
    plane = _PLANE
    for _ in range(6):
        plane = plane[rng.permutation(plane.size)]
    acc = 0
    for i in range(1, 200):
        acc = (acc + pow(3, i * 7919 + 12345678901234567, _MODULUS)) % _MODULUS
    total = 0
    for i in range(100_000):
        total += (i * i) & 255
    table = json.loads(json.dumps({str(i): i for i in range(40_000)}))
    return int(plane[0]) + acc + total + len(table)


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostClock:
    """Scales each timed call by the kernel runs just before and just after it.

    Calls must be reported in the order they ran, with nothing else in
    between: the kernel run after one call is the one before the next.
    """

    def __init__(self):
        kernel()  # warm-up: first-call allocations and imports
        self.before = kernel_seconds()
        self.kernel_s: list[float] = [self.before]

    def to_reference(self, seconds: float) -> float:
        after = kernel_seconds()
        self.kernel_s.append(after)
        scaled = seconds * (REFERENCE_S / ((self.before + after) / 2)) ** SENSITIVITY
        self.before = after
        return scaled
