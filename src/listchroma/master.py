"""Restricted master problem: column pool, LP relaxation, duals, integrality.

The LP is
    min  sum_cols cost * x
    s.t. sum_{columns covering v} x >= 1          (one row per vertex)
         sum_{columns of class k} x <= |C^k|      (bounded classes only)
         x >= 0
Each search node keeps one persistent HiGHS model with these rows: new
columns are appended to it and every pricing round re-solves it with primal
simplex from the previous optimal basis, which the new columns leave primal
feasible. The model is scipy's bundled HiGHS binding,
scipy.optimize._highspy._core._Highs, a private API; every use of it stays in
this module. Vertex duals pi and class duals gamma are the row duals, with
the sign flipped on the <= class rows. Upper bounds x <= 1 are intentionally
absent; non-negative costs make them redundant at some optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as _highs

from .core import EPS, ColorPartition, NodeState, bits


class DuplicateColumnError(ValueError):
    """The pricer handed back a column already in the pool."""


class NumericalFailure(RuntimeError):
    """The LP solver did not return a clean optimal basic solution."""


@dataclass(frozen=True)
class Column:
    """A master variable: a stable set of G^k priced at w_k.

    Dummy columns (class_rep None) are the per-vertex big-M singletons that
    keep the initial LP feasible.
    """

    mask: int
    class_rep: int | None
    cost: int

    @property
    def is_dummy(self) -> bool:
        return self.class_rep is None

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def vertices(self) -> list[int]:
        return bits(self.mask)

    @property
    def key(self) -> tuple[int, int | None]:
        return (self.mask, self.class_rep)


@dataclass(frozen=True)
class DualSolution:
    pi: tuple[float, ...]
    gamma: dict[int, float]

    def gamma_of(self, k: int) -> float:
        return self.gamma.get(k, 0.0)


@dataclass(frozen=True)
class LPResult:
    objective: float
    values: tuple[float, ...]
    columns: tuple[Column, ...]
    duals: DualSolution


_INF = _highs.kHighsInf
# Primal simplex, not HiGHS's default dual simplex. Appended columns keep the
# previous basis primal feasible, so primal simplex re-solves in a few
# iterations. It also decides which of several optimal dual vectors comes
# back, and the duals steer pricing and through it the branching pairs. On
# the benchmark's dense-pricing cell (n=60 p=0.75 c=1.5 q=0.5, seeds
# 7000-7002) the three trees total 83 nodes with a cold dual simplex solve
# per round, 129 with warm dual simplex and 65 with warm primal simplex.
_PRIMAL_SIMPLEX = 4


def _check(status: _highs.HighsStatus, what: str) -> None:
    if status == _highs.HighsStatus.kError:
        raise NumericalFailure(f"HiGHS failed {what}")


def _lp_model(covers: int, capacities: list[int]) -> _highs._Highs:
    """A silent HiGHS model with no columns yet and, in this order, rows
    `covers` times [1, inf) and then (-inf, cap] for each capacity."""
    lp = _highs._Highs()
    lp.setOptionValue("output_flag", False)
    lp.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
    empty = np.zeros(0, dtype=np.int32)
    _check(
        lp.addRows(
            covers + len(capacities),
            np.array([1.0] * covers + [-_INF] * len(capacities)),
            np.array([_INF] * covers + capacities, dtype=float),
            0,
            empty,
            empty,
            np.zeros(0),
        ),
        "adding LP rows",
    )
    return lp


def _add_lp_columns(lp: _highs._Highs, costs: list[float], rows: list[list[int]]) -> None:
    """Append columns x >= 0 with unit coefficients in the given rows."""
    starts: list[int] = []
    index: list[int] = []
    for r in rows:
        starts.append(len(index))
        index.extend(r)
    _check(
        lp.addCols(
            len(rows),
            np.array(costs, dtype=float),
            np.zeros(len(rows)),
            np.full(len(rows), _INF),
            len(index),
            np.array(starts, dtype=np.int32),
            np.array(index, dtype=np.int32),
            np.ones(len(index)),
        ),
        "adding LP columns",
    )


def _solve_model(lp: _highs._Highs, what: str) -> _highs.HighsSolution:
    lp.run()
    status = lp.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise NumericalFailure(f"{what} failed: {lp.modelStatusToString(status)}")
    return lp.getSolution()


class MasterProblem:
    """Mutable column pool plus the LP model of one search node.

    The model has one cover row per vertex, then one capacity row per bounded
    class in sorted order, and one LP column per pool column in pool order.
    """

    def __init__(self, state: NodeState, partition: ColorPartition, big_m: int):
        self.instance = state.instance
        self.partition = partition
        self.big_m = big_m
        self.columns: list[Column] = []
        self._keys: set[tuple[int, int | None]] = set()
        n = self.instance.n
        bounded = sorted(partition.bounded)
        self._class_row = {k: n + i for i, k in enumerate(bounded)}
        self._lp = _lp_model(n, [partition.class_size[k] for k in bounded])

    def __len__(self) -> int:
        return len(self.columns)

    def _append(self, cols: list[Column]) -> None:
        rows = []
        for col in cols:
            r = col.vertices()
            if col.class_rep in self._class_row:
                r.append(self._class_row[col.class_rep])
            rows.append(r)
        _add_lp_columns(self._lp, [col.cost for col in cols], rows)
        self.columns.extend(cols)
        self._keys.update(col.key for col in cols)


def init_with_dummies(state: NodeState, partition: ColorPartition) -> MasterProblem:
    """Master seeded with one big-M singleton column per vertex."""
    inst = state.instance
    if inst.n < 1:
        raise ValueError("empty instance has no master problem")
    big_m = 1 + sum(inst.weights[j] for j in inst.colors)
    mp = MasterProblem(state, partition, big_m)
    mp._append([Column(1 << v, None, big_m) for v in range(inst.n)])
    return mp


def add_columns(mp: MasterProblem, cols: list[Column]) -> None:
    """Validate and append new columns; duplicates signal a pricer bug."""
    inst = mp.instance
    part = mp.partition
    batch: set[tuple[int, int | None]] = set()
    for col in cols:
        if col.mask == 0:
            raise ValueError("empty column")
        if col.is_dummy:
            raise ValueError("dummy columns are created only at initialization")
        if col.class_rep not in part.class_members:
            raise ValueError(f"column class {col.class_rep} is not a representative")
        if col.mask & ~part.vertex_mask[col.class_rep]:
            raise ValueError(f"column leaves V_k of class {col.class_rep}")
        for v in bits(col.mask):
            if inst.graph.adj[v] & col.mask:
                raise ValueError("column is not a stable set")
        if col.cost != inst.weights[col.class_rep]:
            raise ValueError("column cost disagrees with its class weight")
        if col.key in mp._keys or col.key in batch:
            raise DuplicateColumnError(f"column {col.vertices()} class {col.class_rep}")
        batch.add(col.key)
    mp._append(cols)


def solve_lp(mp: MasterProblem) -> LPResult:
    """Re-optimise the node's LP from its last basis; optimal primal and duals."""
    sol = _solve_model(mp._lp, "LP solve")
    n = mp.instance.n
    row_dual = sol.row_dual
    pi = tuple(max(0.0, row_dual[v]) for v in range(n))
    gamma = {k: max(0.0, -row_dual[r]) for k, r in mp._class_row.items()}
    return LPResult(
        objective=mp._lp.getObjectiveValue(),
        values=tuple(sol.col_value),
        columns=tuple(mp.columns),
        duals=DualSolution(pi, gamma),
    )


INTEGRAL = "integral"
SINGLETON_FRACTIONAL_ONLY = "singleton_fractional_only"
FRACTIONAL_ON_BIG_SETS = "fractional_on_big_sets"


@dataclass(frozen=True)
class IntegralityVerdict:
    kind: str
    selection: tuple[int, ...] | None  # column indices, set when kind == INTEGRAL


def _is_integral(x: float) -> bool:
    return abs(x - round(x)) <= EPS


def check_integrality(res: LPResult) -> IntegralityVerdict:
    """Classify an optimal LP point for the branching logic.

    Integral solutions over the |S| >= 2 columns are enough to recover an
    optimal integer solution from the remaining singletons (their residual
    constraint matrix is totally unimodular), so only fractional big sets
    force a branching step.
    """
    big_fractional = any(
        col.size >= 2 and not _is_integral(x) for col, x in zip(res.columns, res.values)
    )
    if big_fractional:
        return IntegralityVerdict(FRACTIONAL_ON_BIG_SETS, None)
    all_integral = all(_is_integral(x) for x in res.values)
    dummies_zero = all(
        x <= EPS for col, x in zip(res.columns, res.values) if col.is_dummy
    )
    if all_integral and dummies_zero:
        sel = tuple(i for i, x in enumerate(res.values) if x > 0.5)
        return IntegralityVerdict(INTEGRAL, sel)
    return IntegralityVerdict(SINGLETON_FRACTIONAL_ONLY, None)


@dataclass(frozen=True)
class ExtractResult:
    """An integral selection recovered from a singleton-fractional LP point."""

    selection: tuple[int, ...]
    objective: float
    fixed_cost: int
    residual_vertices: tuple[int, ...]
    residual_columns: tuple[int, ...]
    capacities: dict[int, int]


def extract_integer_solution(mp: MasterProblem, res: LPResult) -> ExtractResult:
    """Recover an integer optimum when only singleton columns are fractional.

    Keeps the big columns at value one, then re-solves the residual LP over
    singleton columns; total unimodularity of that residual guarantees the
    basic optimum is 0/1, at no change in objective.
    """
    cols = res.columns
    keep = [i for i, col in enumerate(cols) if col.size >= 2 and res.values[i] > 0.5]
    covered = 0
    used: dict[int, int] = {}
    fixed_cost = 0
    for i in keep:
        covered |= cols[i].mask
        fixed_cost += cols[i].cost
        k = cols[i].class_rep
        if k in mp.partition.bounded:
            used[k] = used.get(k, 0) + 1
    residual = [v for v in range(mp.instance.n) if not covered >> v & 1]
    caps = {k: mp.partition.class_size[k] - used.get(k, 0) for k in sorted(mp.partition.bounded)}
    if any(c < 0 for c in caps.values()):
        raise NumericalFailure("big columns exceed a class capacity")
    cand = [
        i for i, col in enumerate(cols) if col.size == 1 and col.mask & ~covered
    ]

    chosen_singletons: list[int] = []
    residual_obj = 0.0
    if residual:
        vrow = {v: r for r, v in enumerate(residual)}
        bounded = sorted(caps)
        crow = {k: len(residual) + r for r, k in enumerate(bounded)}
        sub = _lp_model(len(residual), [caps[k] for k in bounded])
        rows = []
        for i in cand:
            col = cols[i]
            (v,) = col.vertices()
            r = [vrow[v]]
            if col.class_rep in crow:
                r.append(crow[col.class_rep])
            rows.append(r)
        _add_lp_columns(sub, [cols[i].cost for i in cand], rows)
        sol = _solve_model(sub, "residual LP")
        for j, y in enumerate(sol.col_value):
            if not _is_integral(y):
                raise NumericalFailure("residual LP returned a fractional vertex")
            if y > 0.5:
                chosen_singletons.append(cand[j])
        residual_obj = sub.getObjectiveValue()

    selection = tuple(sorted(keep + chosen_singletons))
    for i in selection:
        if cols[i].is_dummy:
            raise NumericalFailure("dummy column survived integer extraction")
    objective = fixed_cost + residual_obj
    if abs(objective - res.objective) > 1e-6 * max(1.0, abs(res.objective)):
        raise NumericalFailure(
            f"extraction changed the objective: {objective} vs {res.objective}"
        )
    return ExtractResult(
        selection=selection,
        objective=objective,
        fixed_cost=fixed_cost,
        residual_vertices=tuple(residual),
        residual_columns=tuple(cand),
        capacities=caps,
    )


def node_lower_bound(res: LPResult, big_m: int) -> int | None:
    """Integer lower bound from the LP value; None flags an infeasible node."""
    if res.objective >= big_m - EPS:
        return None
    return math.ceil(res.objective - EPS)
