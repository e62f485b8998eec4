"""Host speed probe: fixed work, independent of apdpro, timed between pieces.

The benchmark runs on a shared VM whose speed drifts with other tenants'
load, in phases that can last longer than a run (README.md, "Statistics").
The probe does the same fixed work every time: sparse mat-vecs and vector
operations on a 5k-row matrix, then an interpreter-bound loop of small
objects and two-element numpy operations, like the solver's own
bookkeeping. It must never call apdpro, or a change to the library would
scale itself away.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp

N = 5000
NNZ_PER_ROW = 10
MATVECS = 6
PY_STEPS = 100

# The probe's fastest time per slot, in seconds, on the host the benchmark was
# written on (2-core Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).
NOMINAL_S = 0.0010


class _Cell:
    __slots__ = ("k", "v")

    def __init__(self, k, v):
        self.k = k
        self.v = v


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(20221222)  # fixed: the probe never depends on --seed
        cols = rng.integers(0, N, size=N * NNZ_PER_ROW)
        rows = np.repeat(np.arange(N), NNZ_PER_ROW)
        a = sp.csr_matrix((rng.uniform(0.1, 1.0, size=cols.size), (rows, cols)), shape=(N, N))
        self._a = (a + a.T).tocsr()
        self._x = rng.standard_normal(N)
        self._small = np.array([0.5, -1.5])

    def _work(self) -> float:
        y = self._x
        for _ in range(MATVECS):
            y = self._a @ y
            y = np.maximum(y / np.linalg.norm(y) - 0.01 * self._x, 0.0)
        acc, seen = 0.0, {}
        for i in range(PY_STEPS):
            cell = _Cell(i % 7, float(i))
            seen[cell.k] = seen.get(cell.k, 0.0) + cell.v
            w = self._small * 1.5 - 0.25
            acc += float(w @ w)
        return float(y.sum()) + acc + sum(seen.values())

    def sample(self) -> float:
        """Seconds the fixed work took this time, with its data in cache.

        The untimed first pass reloads what the benchmark's own work has
        evicted, so the probe measures the host, not the library's memory
        footprint.
        """
        self._work()
        t0 = perf_counter()
        self._work()
        return perf_counter() - t0
