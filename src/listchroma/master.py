"""Restricted master problem: column pool, LP relaxation, duals, bounds and leaves.

The LP is
    min  sum_cols cost * x
    s.t. sum_{columns covering v} x >= 1          (one row per vertex)
         sum_{columns of class k} x <= |C^k|      (bounded classes only)
         x >= 0
The LP lives in a HiGHS model (new_model) that every master borrows from its
caller; one solve lends its model to the master of each node in turn.
Building a MasterProblem clears the model, adds the node's rows, the
dummies and the inherited columns, and sets the all-dummy basis (dummies
basic, every other column and every cover row at its lower bound, class
rows basic). That basis is primal feasible at every node and optimal at the
root, so no node's first solve presolves or runs a phase 1. New
columns are appended to the model and every round of bnp.price_out re-solves
it (solve_lp) with primal simplex from the previous basis, which the new
columns leave primal feasible. The model is scipy's bundled HiGHS binding,
scipy.optimize._highspy._core._Highs, a private API; every use of it stays
in this module. scipy_ext loads the binding from its file, so importing the
solver does not run scipy.optimize's package init. Vertex duals pi and class
duals gamma are the row duals, with the sign flipped on the <= class rows.
Upper bounds x <= 1 are intentionally absent; non-negative costs make them
redundant at some optimum.

A column is only its (stable set, class) pair. The master alone decides
what is a column of a node (column_fault) and what it costs
(MasterProblem.cost): the class weight w_k of the node's instance. So a
column carried into a child node costs the child's weight of its class,
which singleton fixing may have zeroed. The big-M dummies are no columns:
LP column v is vertex v's dummy and LP column n + i is pool column i, so
the pool (MasterProblem.columns) and an LP point (LPResult) hold real
columns only.

An LP optimum without a fractional big column (fractional_big_columns) is
a leaf of the search; extract_integer_solution reads a coloring of the
node instance off it (read_off), with no second LP, and says why that
coloring costs what the point costs. node_lower_bound is the one bound read
from an LP point (math.inf when a dummy holds it at big-M).

Every lower bound is 0 until fix_column raises one to 1, as bnp.dive does
right before a node branches. A raised bound leaves the last basis primal
infeasible but dual feasible, so fix_column switches the model to dual
simplex, while pricing rounds stay primal. The model's bounds and simplex
strategy then stay changed until the next node's master clears the model
and sets primal simplex again: a node's model is dead once its dive ends,
and its children inherit only the column pool.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assignment import solve_assignment
from .core import EPS, ColorPartition, Instance, NodeState, NumericalFailure, bits
from .scipy_ext import load_extension

_highs = load_extension("scipy.optimize._highspy._core")


class DuplicateColumnError(NumericalFailure):
    """Pricing returned a pooled column: float noise gave it a negative reduced cost."""


class Column(NamedTuple):
    """A master variable: a stable set of G^k and its class, nothing more.

    The pair is the column's identity and carries no cost; the master that
    holds it charges it (MasterProblem.cost). The big-M dummies that keep a
    node's LP feasible are no Columns: they live only in the master's model.
    """

    mask: int
    class_rep: int

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
    """An LP optimum; values[i] is the x of pool column columns[i], LP column n + i."""

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
# A model with a fixed column (fix_column) re-solves with dual simplex.
# Raising a lower bound leaves the previous basis primal infeasible but still
# dual feasible, which is where dual simplex starts. On the benchmark's c7
# cell (n=50 p=0.5 c=1 q=0.5, seeds 7001-7003) a dive re-solve takes 42
# iterations on average, against 100 with primal simplex.
_DUAL_SIMPLEX = 1
_BASIC = _highs.HighsBasisStatus.kBasic
_LOWER = _highs.HighsBasisStatus.kLower


def _check(status: _highs.HighsStatus, what: str) -> None:
    if status == _highs.HighsStatus.kError:
        raise NumericalFailure(f"HiGHS failed {what}")


def new_model() -> _highs._Highs:
    """An empty HiGHS model that prints nothing, for the masters of one solve."""
    lp = _highs._Highs()
    _check(lp.setOptionValue("output_flag", False), "switching its output off")
    return lp


class MasterProblem:
    """Mutable column pool plus the LP model of one search node; its pool starts as inherited.

    The model has one cover row per vertex, then one capacity row per bounded
    class in sorted order; its columns are the n big-M dummies, then the
    pool's. The caller lends lp, a new_model(), as the search lends its one
    model per solve to each node in turn: building the master clears whatever
    lp held, so a master built earlier on the same lp is dead. inherited must
    be distinct and pass column_fault; it is not checked again.
    A node with no vertex has no master (ValueError). From big-M = 2**53 on,
    node_lower_bound could no longer tell a coloring from a dummy in float64,
    so such weights raise NumericalFailure. A refused master leaves lp as it was.
    """

    def __init__(
        self, state: NodeState, partition: ColorPartition, inherited: Sequence[Column], lp: _highs._Highs
    ):
        inst = self.instance = state.instance
        n = inst.n
        if n < 1:
            raise ValueError("empty instance has no master problem")
        self.big_m = 1 + sum(inst.weights[j] for j in inst.colors)
        if self.big_m >= 2**53:
            raise NumericalFailure(f"big-M {self.big_m} is beyond exact float64 arithmetic")
        self.partition = partition
        self.columns: list[Column] = []
        self._keys: set[Column] = set()
        bounded = sorted(partition.bounded)
        self._class_row = {k: n + i for i, k in enumerate(bounded)}
        caps = [float(len(partition.class_members[k])) for k in bounded]
        self._lp = lp
        _check(lp.clearModel(), "clearing the LP model")
        _check(lp.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX), "setting primal simplex")
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
        self._append(inherited, dummies=n)
        basis = _highs.HighsBasis()
        basis.col_status = [_BASIC] * n + [_LOWER] * len(inherited)
        basis.row_status = [_LOWER] * n + [_BASIC] * len(caps)
        basis.valid, basis.alien = True, False
        _check(lp.setBasis(basis), "setting the all-dummy basis")

    def cost(self, col: Column) -> int:
        """What the LP charges col: its class weight."""
        return self.instance.weights[col.class_rep]

    def _append(self, cols: Sequence[Column], dummies: int = 0) -> None:
        """Append columns x >= 0 with unit entries in their rows, after `dummies` big-M dummies."""
        starts = list(range(dummies))
        index = list(range(dummies))
        for col in cols:
            starts.append(len(index))
            index.extend(col.vertices())
            if col.class_rep in self._class_row:
                index.append(self._class_row[col.class_rep])
        _check(
            self._lp.addCols(
                len(starts),
                np.array([self.big_m] * dummies + [self.cost(col) for col in cols], dtype=float),
                np.zeros(len(starts)),
                np.full(len(starts), _INF),
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
    if k not in partition.class_members:
        return f"column class {k} is not a representative"
    if mask & ~partition.vertex_mask[k]:
        return f"column leaves V_k of class {k}"
    adj = inst.graph.adj
    for v in bits(mask):
        if adj[v] & mask:
            return "column is not a stable set"
    return None


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
    row_dual = sol.row_dual
    pi = tuple(max(0.0, d) for d in row_dual[: mp.instance.n])
    gamma = {k: max(0.0, -row_dual[r]) for k, r in mp._class_row.items()}
    return LPResult(
        objective=lp.getObjectiveValue(),
        values=tuple(sol.col_value[mp.instance.n :]),
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
    pairs = zip(frac.tolist(), x[frac].tolist())
    return [(i, cols[i], xi) for i, xi in pairs if cols[i].size >= 2]


def read_off(mp: MasterProblem, res: LPResult) -> tuple[dict[int, int], int] | None:
    """assignment.solve_assignment of the node with the big columns above 0.5 in res.

    The big columns are those of two or more vertices, in pool order.
    """
    big = [col for col, x in zip(res.columns, res.values) if col.size >= 2 and x > 0.5]
    return solve_assignment(mp.instance, mp.partition, big)


def extract_integer_solution(mp: MasterProblem, res: LPResult) -> dict[int, int]:
    """Read a coloring {node vertex: color} off an LP optimum without fractional big columns.

    The read-off is read_off's single matching. The point is optimal over
    all columns, since extraction runs only after a pricing round found none,
    so no list-color completion of its big columns is cheaper. One costs the
    same: covering the uncovered vertices by singletons under the class
    capacities is a transportation problem from vertices to classes,
    integral at its LP optimum. A matching that finds no coloring or misses
    the point's cost raises NumericalFailure.
    """
    read = read_off(mp, res)
    if read is None:
        raise NumericalFailure("no matching colors the leaf's big columns and uncovered vertices")
    coloring, objective = read
    if abs(objective - res.objective) > EPS * max(1.0, abs(res.objective)):
        raise NumericalFailure(f"extraction changed the objective: {objective} vs {res.objective}")
    return coloring


def fix_column(mp: MasterProblem, i: int) -> None:
    """Raise the lower bound of pool column i to 1, for re-solves by dual simplex."""
    _check(mp._lp.setOptionValue("simplex_strategy", _DUAL_SIMPLEX), "setting dual simplex")
    lp_col = np.array([mp.instance.n + i], dtype=np.int32)
    _check(
        mp._lp.changeColsBounds(1, lp_col, np.ones(1), np.full(1, _INF)),
        "fixing a column",
    )


def node_lower_bound(mp: MasterProblem, res: LPResult) -> float:
    """Integer lower bound from mp's LP value res; math.inf (a dummy at big-M) flags no coloring."""
    if res.objective >= mp.big_m - EPS:
        return math.inf
    return math.ceil(res.objective - EPS)
