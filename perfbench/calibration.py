"""Machine-speed probe for a host shared with other tenants.

On a shared host the same code runs up to about 1.7x slower for minutes
at a time, while the process keeps its CPU: what changes is how fast
each instruction retires.  A fixed probe of the same kind of work as the
program (random dictionary lookups, small NumPy calls and a gather over
an array larger than L2), run before every timed rep, slows down with
it.  Dividing a run's best times by the probe's best time in the same
run, and multiplying by REFERENCE_S, gives the time the work would take
with the probe at its reference speed.  On the 2-core Xeon sandbox this
cut the spread of 13-second best-of windows from 0.26-0.35 to 0.05-0.12
of the median.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time at the reference speed (its best time on a quiet 2-core Xeon
#: sandbox); it fixes the unit of the scaled figures.
REFERENCE_S = 0.008


class Probe:
    def __init__(self, seed: int = 12345):
        rng = np.random.default_rng(seed)
        keys = [int(k) for k in rng.integers(0, 1 << 40, 40_000)]
        self.table = dict(zip(keys, range(len(keys))))
        self.order = [keys[i] for i in rng.permutation(len(keys))]
        self.big = rng.random(1 << 21)  # 16 MiB, larger than L2
        self.idx = rng.integers(0, len(self.big), 1 << 17)
        self.small = np.linspace(0.0, 1.0, 64)

    def __call__(self) -> float:
        """Seconds one probe took."""
        t0 = time.perf_counter()
        table, acc = self.table, 0
        for k in self.order:
            acc += table[k]
        a = self.small
        for _ in range(150):
            a = np.sqrt(a * a + 1.0) - 1.0
            np.flatnonzero(a > 0.25)
            np.cumsum(a)
        np.take(self.big, self.idx).sum()
        return time.perf_counter() - t0
