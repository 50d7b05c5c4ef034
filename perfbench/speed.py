"""Machine-speed reference for the end-to-end times.

The benchmark shares a small machine with other tenants, whose load makes
the same job, in the same process, take 0.3 s one second and 0.6 s the
next. After every set-up run and every job the benchmark times a fixed
reference kernel that runs no mpotomo code, outside the job's own timing.
Each job's seconds are scaled by NOMINAL_S over the mean kernel time just
before and just after it, so that a slow phase of the machine scales the
job and the kernel alike; set-up uses the run's mean kernel time. The factor
is near 1 on an idle machine; the report line keeps the raw times.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Kernel time on an idle 2-core Xeon virtual machine, Python 3.11 and
# numpy 2.4.
NOMINAL_S = 0.007
# After a job, one kernel sample per this many seconds of job time.
SAMPLE_EVERY_S = 0.25


class SpeedReference:
    """A fixed mix of interpreter, small-array, JSON, BLAS and memory work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._vec = rng.standard_normal(4)
        self._small = rng.standard_normal((4, 4, 4))
        self._mat = rng.standard_normal((128, 128))
        self._big = rng.standard_normal(500_000)
        self._doc = json.dumps(rng.standard_normal(2000).tolist())
        self.samples: list[float] = []

    def _kernel(self) -> None:
        total = 0
        for k in range(30_000):
            total += k
        for _ in range(300):
            np.tensordot(self._vec, self._small, axes=(0, 1))
        json.loads(self._doc)
        for _ in range(3):
            self._big.sum()
        for _ in range(5):
            self._mat @ self._mat

    def sample(self, after_s: float = 0.0) -> float:
        """Times the kernel once per SAMPLE_EVERY_S of `after_s`, at least
        once; returns the mean kernel time of this batch."""
        batch = []
        for _ in range(max(1, round(after_s / SAMPLE_EVERY_S))):
            t0 = time.perf_counter()
            self._kernel()
            batch.append(time.perf_counter() - t0)
        self.samples.extend(batch)
        return sum(batch) / len(batch)

    def factor(self) -> float:
        """Multiplier from measured seconds to seconds at reference speed,
        over the whole run."""
        return NOMINAL_S * len(self.samples) / sum(self.samples)


def adjusted(seconds: float, before: float, after: float) -> float:
    """Job seconds at reference speed, from the kernel times around it."""
    return seconds * 2.0 * NOMINAL_S / (before + after)
