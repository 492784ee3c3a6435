"""Time work in phases, each scaled to the speed the host CPU showed around it.

On a shared host a CPU switches between a fast state and one up to 70%
slower, for anything from a fraction of a second to more than a minute,
as other tenants' load changes; a whole run can fall in the slow state,
so no statistic over one run's raw times repeats from run to run.

A fixed piece of reference work, timed between phases, measures that
state. It has three parts, like a training job: an interpreter loop,
hash lookups in a table larger than L2 with numpy scalar calls, and a
BLAS product with a vector operation over 1.6 MB. Its time is the
geometric mean of the three parts' times. A phase of ``d`` seconds
between references that took ``a`` and ``b`` seconds counts as
``d * NOMINAL_REFERENCE_S / ((a + b) / 2)`` seconds: its time on a
nominal CPU, one that does the reference work in
``NOMINAL_REFERENCE_S``. The nominal value is fixed, not measured,
because even a low percentile of one run's references moves with the
state when the whole run is slow. README.md next to this file has the
measurements behind this.
"""
from __future__ import annotations

import functools
import time

# The reference work's time in the fast state of a 2-vCPU shared VM
# (Python 3.12, OpenBLAS, one BLAS thread): its parts took 0.30, 0.51 and
# 0.74 ms there, and 0.44-0.49, 0.88-0.95 and 1.03-1.06 ms as medians of
# runs that were mostly in the slow state.
NOMINAL_REFERENCE_S = 0.48e-3
MIN_PHASE_S = 0.05         # ticks closer together than this are skipped


@functools.cache
def _operands():
    import numpy as np    # on first use, after the caller has pinned BLAS threads

    return (set(range(0, 4_000_000, 37)), np.random.default_rng(0),
            np.ones((128, 128)), np.ones(200_000))


def reference_time() -> float:
    """Seconds the reference work takes now."""
    table, rng, square, vector = _operands()
    t0 = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i
    t1 = time.perf_counter()
    for i in range(300):
        total += (i * 7919) % 4_000_000 in table
        total += int(rng.integers(2000))
    t2 = time.perf_counter()
    for _ in range(3):
        square @ square
        vector * 1.5
    t3 = time.perf_counter()
    return ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1.0 / 3.0)


def nominal_seconds(seconds: float, reference_s: float) -> float:
    """``seconds`` timed while the reference work took ``reference_s``, on the nominal CPU."""
    return seconds * NOMINAL_REFERENCE_S / reference_s


class HostClock:
    """Marks split a job into phases; the reference work runs at every mark.

    ``mark`` always splits; ``tick`` splits only when the current phase is
    at least ``MIN_PHASE_S`` long, so that frequent ticks (one per training
    epoch) add little reference time. That time is in no phase.
    """

    def __init__(self) -> None:
        self.references: list[float] = []
        self.phases: list[float] = []
        self._since: float | None = None

    def reset(self) -> None:
        self.references.clear()
        self.phases.clear()
        self._since = None

    def copy(self) -> HostClock:
        other = HostClock()
        other.references, other.phases = list(self.references), list(self.phases)
        return other

    def mark(self) -> None:
        if self._since is not None:
            self.phases.append(time.perf_counter() - self._since)
        self.references.append(reference_time())
        self._since = time.perf_counter()

    def tick(self) -> None:
        if self._since is not None and time.perf_counter() - self._since >= MIN_PHASE_S:
            self.mark()

    def raw_seconds(self) -> float:
        return sum(self.phases)

    def nominal_seconds(self) -> float:
        return sum(nominal_seconds(d, (a + b) / 2.0)
                   for d, a, b in zip(self.phases, self.references, self.references[1:]))
