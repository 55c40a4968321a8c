"""A fixed piece of work that measures how fast the machine runs right now.

The machine the benchmark was built on shares its cores with other tenants:
the same solve takes between 1x and 1.7x its fastest time depending on the
moment, and the speed changes every few seconds. The kernel below does the
two kinds of work the solver does, in about equal parts: a pure-Python bitset
branch and bound (like the pricing search) and small sparse LPs through
scipy's HiGHS (like the master), so its time moves with the solver's.

The benchmark reports times in reference seconds: wall seconds scaled by
REFERENCE_S over the mean of the kernel's times measured right before and
right after them. On a machine running at the reference speed the two are
the same. Over 21 windows of 26 s of solving n=50/60 instances on 2 cores,
this cut the spread (interquartile range over median) of the summed
per-instance medians from 0.11-0.15 in wall seconds to 0.05-0.08. One
factor per run, from the median of the run's kernel samples, did not help
(0.12-0.18): the speed changes faster than a run.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# Median kernel time on the 2-core VM the baseline was measured on.
REFERENCE_S = 0.030
REPEATS = 3

_N = 50
_rng = random.Random(20181130)
_ADJ = [0] * _N
for _i in range(_N):
    for _j in range(_i + 1, _N):
        if _rng.random() < 0.4:
            _ADJ[_i] |= 1 << _j
            _ADJ[_j] |= 1 << _i
_PI = [_rng.uniform(0.0, 1.0) for _ in range(_N)]
_LP_ROWS, _LP_COLS = 50, 150
_LP_COLUMNS = [sorted(_rng.sample(range(_LP_ROWS), _rng.randint(1, 6))) for _ in range(_LP_COLS)]
_LP_COST = np.array([_rng.randint(1, 10) for _ in range(_LP_COLS)], dtype=float)


def _stable_set(cand: int, weight: float, best: float) -> float:
    """Maximum pi-weight of a stable set extending the current one."""
    rem = sum(_PI[v] for v in range(_N) if cand >> v & 1)
    while cand and weight + rem > best:
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        rem -= _PI[v]
        best = max(best, weight + _PI[v], _stable_set(cand & ~_ADJ[v], weight + _PI[v], best))
    return best


def _cover_lp() -> float:
    data, rows, cols = [], [], []
    for j, col in enumerate(_LP_COLUMNS):
        for r in col:
            rows.append(r)
            cols.append(j)
            data.append(-1.0)
    a_ub = sparse.csc_matrix((data, (rows, cols)), shape=(_LP_ROWS, _LP_COLS))
    res = linprog(_LP_COST, A_ub=a_ub, b_ub=np.full(_LP_ROWS, -1.0), bounds=(0, None),
                  method="highs-ds")
    return float(res.fun)


def kernel() -> tuple[float, float]:
    return _stable_set((1 << _N) - 1, 0.0, 0.0), sum(_cover_lp() for _ in range(4))


def sample() -> float:
    """Median wall time of REPEATS kernel runs, in seconds."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Calibration:
    """Scales the wall times of a run to reference seconds.

    Raw times are held until the next checkpoint, which samples the kernel;
    each is then scaled by the mean of the samples before and after it.
    A checkpoint is due once `every_s` seconds have passed since the last.
    """

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        kernel()  # the first LP solve pays one-time costs
        self.samples = [sample()]
        self._last = perf_counter()
        self._pending: list[tuple[dict, str, float]] = []

    def add(self, into: dict, key: str, wall_s: float) -> None:
        """Store wall_s, scaled, as into[key] at the next checkpoint."""
        self._pending.append((into, key, wall_s))

    def due(self) -> bool:
        return perf_counter() - self._last >= self.every_s

    def checkpoint(self) -> None:
        if not self._pending:
            return
        before = self.samples[-1]
        self.samples.append(sample())
        scale = REFERENCE_S / ((before + self.samples[-1]) / 2)
        for into, key, wall_s in self._pending:
            into[key] = wall_s * scale
        self._pending.clear()
        self._last = perf_counter()

    def speed(self) -> float:
        """The run's median machine speed, relative to the reference."""
        return REFERENCE_S / statistics.median(self.samples)
