"""Host-speed probe, so that timings survive a shared, drifting host.

On a shared host the throughput of one core drifts by 25 % or more over
10-30 s, and CPU time drifts with it: other tenants contend for the physical
core. No run of under a minute averages that out. So every timing is paired
with a probe taken next to it: fixed numpy/scipy work shaped like the
operations that dominate the workload in the parent's solver. The shape step's
Sylvester solve (left 3F x 3F, right P x P) is always part of it. With the
spatial term, the coefficient step's P x P Sylvester solve and the products
and shrinkage on the P x 5P merged operator dominate, so they are added. The
probe calls nothing under ``src/``, so a change to the package cannot move
it. A timing is reported scaled to the probe's reference time:

    normalized = raw * reference_s / probe_s

The reference times were measured on a 2-core Intel Xeon host with OpenBLAS
and numpy 2.4.6 / scipy 1.17.1. They fix the scale only: normalized seconds
read as seconds on that host when nothing else contends for it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

# Workload -> (3F, P, merged operator columns) of its full-size scenes, and
# the probe's reference time in seconds.
PROBES = {
    "seeds_small": ((90, 60, 60), 0.00425),
    "long_sequence": ((360, 120, 120), 0.066),
    "dense_grid": ((90, 240, 1200), 0.1),
}
CALLS = 3  # a probe is the median of this many runs of its work


def _sylvester_operands(rng, n: int, m: int) -> tuple:
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(m, m))
    return a @ a.T / n + np.eye(n), b @ b.T / m, rng.normal(size=(n, m))


class Probe:
    """Fixed work whose time tracks the host's current speed."""

    def __init__(self, workload: str):
        (n, m, cols), self.reference_s = PROBES[workload]
        rng = np.random.default_rng(0)
        self.shape_step = _sylvester_operands(rng, n, m)
        self.grid = None
        if cols > m:
            self.grid = (_sylvester_operands(rng, m, m),
                         rng.normal(size=(m, m)), rng.normal(size=(m, cols)))

    def _work(self) -> None:
        scipy.linalg.solve_sylvester(*self.shape_step)
        if self.grid is not None:
            coeff_step, coeffs, merged = self.grid
            scipy.linalg.solve_sylvester(*coeff_step)
            product = coeffs @ merged
            np.sign(product) * np.maximum(np.abs(product) - 0.1, 0.0)
            merged @ merged.T

    def measure(self) -> float:
        """Seconds per run of the probe's work now: the median of CALLS runs."""
        times = []
        for _ in range(CALLS):
            start = perf_counter()
            self._work()
            times.append(perf_counter() - start)
        return statistics.median(times)

    def scale(self, probe_s: float) -> float:
        """Factor that turns a raw time, taken next to ``probe_s``, into a normalized one."""
        return self.reference_s / probe_s
