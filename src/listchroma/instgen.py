"""Random instance generation over the (n, p, c, q) parameter grid.

Draw order is fixed so a seed pins the instance bit for bit: edges in
lexicographic pair order, then list memberships in (vertex, color) order,
then repairs for empty lists, then weights. The PRNG is numpy's PCG64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Graph, Instance, build_instance

GENERATOR_NAME = "PCG64"

REPAIR = "repair"
REJECT = "reject"


@dataclass(frozen=True)
class GenConfig:
    n: int
    p: float
    c: float
    q: float
    seed: int
    weight_range: tuple[int, int] | None = None  # None means unit weights
    empty_lists: str = REPAIR

    @property
    def ncolors(self) -> int:
        """floor(c * n), rounded first so float error cannot drop a color (0.29 * 100 = 28.999...)."""
        return int(round(self.c * self.n, 9))

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self.c <= 0 or self.ncolors < 1:
            raise ValueError("c must give at least one color")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.weight_range is not None:
            lo, hi = self.weight_range
            if not 0 <= lo <= hi:
                raise ValueError("weight range must satisfy 0 <= lo <= hi")
        if self.empty_lists not in (REPAIR, REJECT):
            raise ValueError(f"unknown empty-list mode {self.empty_lists!r}")


def generate(cfg: GenConfig) -> Instance:
    """Sample one instance; deterministic given the config."""
    cfg.validate()
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.n
    m = cfg.ncolors
    attempts = 0
    while True:
        attempts += 1
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < cfg.p
        ]
        lists = [
            [j for j in range(m) if rng.random() < cfg.q] for _ in range(n)
        ]
        empty = [v for v in range(n) if not lists[v]]
        if not empty:
            break
        if cfg.empty_lists == REPAIR:
            for v in empty:
                lists[v] = [int(rng.integers(0, m))]
            break
        if attempts >= 10000:
            raise RuntimeError("rejection sampling failed to produce non-empty lists")
    if cfg.weight_range is None:
        weights = {j: 1 for j in range(m)}
    else:
        lo, hi = cfg.weight_range
        weights = {j: int(rng.integers(lo, hi + 1)) for j in range(m)}
    return build_instance(Graph.from_edges(n, edges), range(m), weights, lists)
