"""Restricted master problem: column pool, LP relaxation, duals, leaf read-off.

The LP is
    min  sum_cols cost * x
    s.t. sum_{columns covering v} x >= 1          (one row per vertex)
         sum_{columns of class k} x <= |C^k|      (bounded classes only)
         x >= 0
Each search node keeps one persistent HiGHS model with these rows, built by
MasterProblem: new columns are appended to it and every round of bnp.price_out
re-solves it (solve_lp) with primal simplex from the previous optimal basis,
which the new columns leave primal feasible. The model is scipy's bundled
HiGHS binding, scipy.optimize._highspy._core._Highs, a private API; every
use of it stays in this module. Vertex duals pi and class duals gamma are the
row duals, with the sign flipped on the <= class rows. Upper bounds x <= 1
are intentionally absent; non-negative costs make them redundant at some
optimum.

A column is only its (stable set, class) pair. The master alone decides
what is a column of a node (column_fault) and what it costs
(MasterProblem.cost): the class weight w_k of the node's instance, or big-M
for a dummy. So a column carried into a child node costs the child's weight
of its class, which singleton fixing may have zeroed.

An LP optimum without a fractional big column (fractional_big_columns) is
a leaf of the search; extract_integer_solution reads a coloring of the
node instance off it, with no second LP, and says why that coloring costs
what the point costs. node_lower_bound is the one bound read from an LP
point (math.inf when a dummy holds it at big-M): the search prunes on it and
the dive gives up on it, against a cutoff that is math.inf without incumbent.

Every lower bound is 0 until a node branches. Right before it does, dive
raises the lower bound of one column at a time to 1 and re-solves, until no
big column is fractional, and reads a coloring off the same way. A raised
bound leaves the last basis primal infeasible but dual feasible, so the dive
switches the model to dual simplex, while pricing rounds stay primal. The
model's bounds and simplex strategy then stay changed, which is harmless:
the node's model is dropped once the dive ends, and its children inherit
only the column pool.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy import _core as _highs

from .assignment import min_cost_matching
from .core import EPS, ColorPartition, Instance, NodeState, NumericalFailure, bits


class DuplicateColumnError(NumericalFailure):
    """Pricing returned a pooled column: float noise gave it a negative reduced cost."""


class Column(NamedTuple):
    """A master variable: a stable set of G^k and its class, nothing more.

    The pair is the column's identity and carries no cost; the master that
    holds it charges it (MasterProblem.cost). Dummy columns (class_rep None)
    are the per-vertex big-M singletons that keep the initial LP feasible.
    """

    mask: int
    class_rep: int | None

    @property
    def is_dummy(self) -> bool:
        return self.class_rep is None

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def vertices(self) -> list[int]:
        return bits(self.mask)


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
# Pricing re-solves with primal simplex, not HiGHS's default dual simplex.
# Appended columns keep the previous basis primal feasible, so primal simplex
# re-solves in a few iterations. It also decides which of several optimal
# dual vectors comes back, and the duals steer pricing and through it the
# branching pairs. On the benchmark's dense-pricing cell (n=60 p=0.75 c=1.5
# q=0.5, seeds 7000-7002) the three trees total 83 nodes with a cold dual
# simplex solve per round, 129 with warm dual simplex and 65 with warm primal
# simplex.
_PRIMAL_SIMPLEX = 4
# The dive re-solves with dual simplex. Raising a lower bound leaves the
# previous basis primal infeasible but still dual feasible, which is where
# dual simplex starts. On the benchmark's c7 cell (n=50 p=0.5 c=1 q=0.5,
# seeds 7001-7003) a dive re-solve takes 42 iterations on average, against
# 100 with primal simplex.
_DUAL_SIMPLEX = 1


def _check(status: _highs.HighsStatus, what: str) -> None:
    if status == _highs.HighsStatus.kError:
        raise NumericalFailure(f"HiGHS failed {what}")


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
        self._keys: set[Column] = set()
        n = self.instance.n
        bounded = sorted(partition.bounded)
        self._class_row = {k: n + i for i, k in enumerate(bounded)}
        caps = [float(len(partition.class_members[k])) for k in bounded]
        lp = self._lp = _highs._Highs()
        lp.setOptionValue("output_flag", False)
        lp.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
        empty = np.zeros(0, dtype=np.int32)
        _check(
            lp.addRows(
                n + len(caps),
                np.array([1.0] * n + [-_INF] * len(caps)),
                np.array([_INF] * n + caps),
                0,
                empty,
                empty,
                np.zeros(0),
            ),
            "adding LP rows",
        )

    def cost(self, col: Column) -> int:
        """What the LP charges col: big_m for a dummy, else its class weight."""
        return self.big_m if col.class_rep is None else self.instance.weights[col.class_rep]

    def _append(self, cols: list[Column]) -> None:
        """Append columns x >= 0 with unit coefficients in their rows."""
        starts: list[int] = []
        index: list[int] = []
        for col in cols:
            starts.append(len(index))
            index.extend(col.vertices())
            if col.class_rep in self._class_row:
                index.append(self._class_row[col.class_rep])
        _check(
            self._lp.addCols(
                len(cols),
                np.array([self.cost(col) for col in cols], dtype=float),
                np.zeros(len(cols)),
                np.full(len(cols), _INF),
                len(index),
                np.array(starts, dtype=np.int32),
                np.array(index, dtype=np.int32),
                np.ones(len(index)),
            ),
            "adding LP columns",
        )
        self.columns.extend(cols)
        self._keys.update(cols)


def column_fault(col: Column, inst: Instance, partition: ColorPartition) -> str | None:
    """Why col is no column of the node (inst, partition); None when it is one."""
    mask, k = col
    if mask == 0:
        return "empty column"
    if k is None:
        return "dummy columns are created only at initialization"
    if k not in partition.class_members:
        return f"column class {k} is not a representative"
    if mask & ~partition.vertex_mask[k]:
        return f"column leaves V_k of class {k}"
    adj = inst.graph.adj
    for v in bits(mask):
        if adj[v] & mask:
            return "column is not a stable set"
    return None


def init_with_dummies(
    state: NodeState, partition: ColorPartition, inherited: Sequence[Column] = ()
) -> MasterProblem:
    """Master seeded with one big-M singleton column per vertex, then inherited.

    inherited must be distinct and pass column_fault; it is not checked again.
    From big-M = 2**53 on, node_lower_bound could no longer tell a coloring
    from a dummy in float64, so such weights raise NumericalFailure.
    """
    inst = state.instance
    if inst.n < 1:
        raise ValueError("empty instance has no master problem")
    big_m = 1 + sum(inst.weights[j] for j in inst.colors)
    if big_m >= 2**53:
        raise NumericalFailure(f"big-M {big_m} is beyond exact float64 arithmetic")
    mp = MasterProblem(state, partition, big_m)
    mp._append([Column(1 << v, None) for v in range(inst.n)] + list(inherited))
    return mp


def add_columns(mp: MasterProblem, cols: list[Column]) -> None:
    """Append priced columns; a fault raises ValueError, a pooled column DuplicateColumnError."""
    batch: set[Column] = set()
    for col in cols:
        fault = column_fault(col, mp.instance, mp.partition)
        if fault is not None:
            raise ValueError(fault)
        if col in mp._keys or col in batch:
            raise DuplicateColumnError(f"column {col.vertices()} class {col.class_rep}")
        batch.add(col)
    mp._append(cols)


def solve_lp(mp: MasterProblem) -> LPResult:
    """Re-optimise the node's LP from its last basis; optimal primal and duals."""
    lp = mp._lp
    lp.run()
    status = lp.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise NumericalFailure(f"LP solve failed: {lp.modelStatusToString(status)}")
    sol = lp.getSolution()
    n = mp.instance.n
    row_dual = sol.row_dual
    pi = tuple(max(0.0, row_dual[v]) for v in range(n))
    gamma = {k: max(0.0, -row_dual[r]) for k, r in mp._class_row.items()}
    return LPResult(
        objective=lp.getObjectiveValue(),
        values=tuple(sol.col_value),
        columns=tuple(mp.columns),
        duals=DualSolution(pi, gamma),
    )


def fractional_big_columns(res: LPResult) -> list[tuple[int, Column, float]]:
    """(pool index, column, x) of the columns of two or more vertices whose x is fractional.

    The one fractional test, |x - round(x)| > EPS: branching and the dive both read it.
    It runs on the whole point at once; np.rint rounds half to even, as round does.
    """
    x = np.asarray(res.values, dtype=float)
    frac = np.flatnonzero(np.abs(x - np.rint(x)) > EPS)
    cols = res.columns
    return [
        (i, cols[i], xi)
        for i, xi in zip(frac.tolist(), x[frac].tolist())
        if cols[i].size >= 2
    ]


def _read_off(mp: MasterProblem, res: LPResult) -> tuple[dict[int, int], int] | None:
    """A coloring {node vertex: color} read off res and its weight; None when no matching exists.

    One min_cost_matching into the node's colors. Its rows are the columns of
    two or more vertices above 0.5, in pool order, each taking a color of its
    class, then the vertices they leave uncovered, each taking a color of its
    list. A big column colors those of its vertices no earlier one colored.
    """
    inst = mp.instance
    big = [col for col, x in zip(res.columns, res.values) if col.size >= 2 and x > 0.5]
    residual = [v for v in range(inst.n) if not any(col.mask >> v & 1 for col in big)]
    rows = [mp.partition.class_members[col.class_rep] for col in big]
    match = min_cost_matching(rows + [inst.lists[v] for v in residual], inst.colors, inst.weights)
    if match is None:
        return None
    coloring = dict(zip(residual, match[len(big) :]))
    for col, color in zip(big, match):
        for v in col.vertices():
            coloring.setdefault(v, color)
    return coloring, sum(inst.weights[j] for j in match)


def extract_integer_solution(mp: MasterProblem, res: LPResult) -> dict[int, int]:
    """Read a coloring {node vertex: color} off an LP optimum without fractional big columns.

    The read-off is _read_off's single matching. The point is optimal over
    all columns, since extraction runs only after a pricing round found none,
    so no list-color completion of its big columns is cheaper. One costs the
    same: covering the uncovered vertices by singletons under the class
    capacities is a transportation problem from vertices to classes,
    integral at its LP optimum. A matching that finds no coloring or misses
    the point's cost raises NumericalFailure.
    """
    read = _read_off(mp, res)
    if read is None:
        raise NumericalFailure("no matching colors the leaf's big columns and uncovered vertices")
    coloring, objective = read
    if abs(objective - res.objective) > EPS * max(1.0, abs(res.objective)):
        raise NumericalFailure(f"extraction changed the objective: {objective} vs {res.objective}")
    return coloring


def dive(mp: MasterProblem, res: LPResult, cutoff: float) -> dict[int, int] | None:
    """Dive from the LP optimum res over the node's pool; a node coloring, or None.

    Each step fixes the fractional big column (fractional_big_columns) below
    1 with the largest x (ties: larger, then earlier in the pool) by raising
    its lower bound to 1, and re-solves warm; a column at 1 or above is fixed
    already. No column is priced, so mp.columns stays as it is; only the
    model's bounds change. The dive gives up exactly when node_lower_bound
    of the current point reaches cutoff (math.inf without an incumbent). With
    no fractional big column left it reads a coloring off like
    extract_integer_solution, without the cost check: the pool may lack
    singletons that the matching uses, so the coloring can be cheaper than
    the point. Every re-solve runs dual simplex.
    """
    mp._lp.setOptionValue("simplex_strategy", _DUAL_SIMPLEX)
    while node_lower_bound(res, mp.big_m) < cutoff:
        candidates = [(x, col.size, -i) for i, col, x in fractional_big_columns(res) if x < 1]
        if not candidates:
            read = _read_off(mp, res)
            return None if read is None else read[0]
        i = -max(candidates)[2]
        _check(
            mp._lp.changeColsBounds(1, np.array([i], dtype=np.int32), np.ones(1), np.full(1, _INF)),
            "fixing a dive column",
        )
        res = solve_lp(mp)
    return None


def node_lower_bound(res: LPResult, big_m: int) -> float:
    """Integer lower bound from the LP value; math.inf (a dummy at big-M) flags no coloring."""
    if res.objective >= big_m - EPS:
        return math.inf
    return math.ceil(res.objective - EPS)
