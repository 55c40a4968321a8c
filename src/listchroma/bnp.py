"""Depth-first branch-and-price search.

Every node is itself a list-coloring instance thanks to the robust branching
rule: SAME merges the pair and intersects lists, DIFFER adds the edge. An
open node is a Node that open_node built when its parent branched; it waits
on an explicit stack, not in a Python frame, so the depth of the tree is
bounded by memory alone. SAME children are explored first since they shrink
the graph toward all-complete nodes, which need no master (assignment).

price_out, the one column generation loop, prices each node's master out.
The node is pruned once master.node_lower_bound of that optimum reaches its
cutoff, the incumbent's weight less the node's fixed weight (math.inf
without one). A leaf's coloring is read off its LP point. About to branch,
the node dives under that cutoff, and does not branch if the dive's
coloring meets the bound. Most of a tree without the dive was spent finding
the optimum.

The search makes one HiGHS model (master.new_model) at its first LP node and
lends it to the master of every node; no model outlives its solve, and no
node's master is used once the next one is built.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import assignment as asg
from .core import (
    EPS,
    ColorPartition,
    Deadline,
    Instance,
    ListColoring,
    NodeState,
    NumericalFailure,
    SearchTimeout,
    bits,
    branch_differ,
    branch_same,
    lift_node_assignment,
    partition_colors,
    preprocess_singletons,
    root_state,
)
from .master import (
    Column,
    LPResult,
    MasterProblem,
    add_columns,
    column_fault,
    extract_integer_solution,
    fix_column,
    fractional_big_columns,
    new_model,
    node_lower_bound,
    read_off,
    solve_lp,
)
from .pricing import price_all

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
TIME_LIMIT = "time_limit"
NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SolveReport:
    """Outcome and counters of one solve; the search counts straight into it."""

    status: str
    coloring: ListColoring | None = None
    nodes: int = 0
    columns_generated: int = 0
    pricing_rounds: int = 0
    wall_time: float = 0.0
    mwss_nodes: int = 0  # stable set search nodes over every pricing round
    incumbent_node: int | None = None  # the node at which the coloring was found

    @property
    def weight(self) -> int | None:
        """The incumbent's weight, None without a coloring."""
        return None if self.coloring is None else self.coloring.weight


def price_out(mp: MasterProblem, report: SolveReport, deadline: Deadline) -> LPResult:
    """Re-solve mp and price until a round finds no column; return the LP optimum it proves.

    That round has shown max pi(S) <= w_k + gamma_k + EPS for every class.
    Rounds, stable set search nodes and columns count into report.
    """
    while True:
        deadline.check()
        res = solve_lp(mp)
        outcome = price_all(mp.instance, mp.partition, res.duals, deadline=deadline)
        report.pricing_rounds += 1
        report.mwss_nodes += outcome.stats.nodes
        cols = outcome.columns()
        if not cols:
            return res
        add_columns(mp, cols)
        report.columns_generated += len(cols)


def update_incumbent(current: ListColoring | None, candidate: ListColoring) -> ListColoring:
    """Keep the strictly lighter of the two colorings.

    Every ListColoring was validated against the root instance when
    list_coloring built it, so only the weights are compared here.
    """
    if current is None or candidate.weight < current.weight:
        return candidate
    return current


def select_branching_pair(res: LPResult) -> tuple[int, int] | None:
    """Pick the non-adjacent pair (u, v) from the most fractional big column.

    u is the lowest vertex of that column S1; v comes from the first other
    positive column through u that leaves S1, falling back to S1 itself.
    Both choices keep u and v in a common stable set, hence non-adjacent with
    intersecting lists; branch_same and branch_differ raise otherwise.

    None means master.fractional_big_columns finds none, and the node is a
    leaf; extract_integer_solution reads its coloring off and says why
    that coloring costs what the LP point costs.
    """
    candidates = [(abs(x - 0.5), -col.size, i) for i, col, x in fractional_big_columns(res)]
    if not candidates:
        return None
    _, _, i1 = min(candidates)
    s1 = res.columns[i1].mask
    u = (s1 & -s1).bit_length() - 1
    v = None
    for i, (col, x) in enumerate(zip(res.columns, res.values)):
        if i == i1 or x <= EPS:
            continue
        outside = col.mask & ~s1
        if col.mask >> u & 1 and outside:
            v = (outside & -outside).bit_length() - 1
            break
    if v is None:
        rest = s1 ^ (1 << u)
        v = (rest & -rest).bit_length() - 1
    return u, v


def dive(mp: MasterProblem, res: LPResult, cutoff: float) -> dict[int, int] | None:
    """Dive from the LP optimum res over the node's pool; a node coloring, or None.

    Each step fixes (master.fix_column) the fractional big column below 1
    with the largest x (ties: larger, then earlier in the pool) and
    re-solves; a column at 1 or above is fixed already. No column is priced:
    only the model's bounds change. The dive gives up exactly when
    node_lower_bound reaches cutoff (math.inf without an incumbent). With no
    fractional big column left it returns master.read_off's coloring without
    extract_integer_solution's cost check: the pool may lack singletons that
    the matching uses, so the coloring can be cheaper than the point.
    """
    while node_lower_bound(mp, res) < cutoff:
        candidates = [(x, col.size, -i) for i, col, x in fractional_big_columns(res) if x < 1]
        if not candidates:
            read = read_off(mp, res)
            return None if read is None else read[0]
        fix_column(mp, -max(candidates)[2])
        res = solve_lp(mp)
    return None


def inherit_columns(
    parent_cols: list[Column],
    parent_merge_map: dict[int, int],
    state: NodeState,
    partition: ColorPartition,
) -> list[Column]:
    """Translate a parent pool into the child node, dropping what broke.

    Parent and child vertices correspond through the root vertex they both
    represent: SAME and fixing only merge or remove vertices, so every live
    root vertex of the child was live in the parent. A column dies when it
    contains a vertex eliminated by preprocessing, when its class color
    vanished from the child, or when merging broke master.column_fault;
    duplicates created by merged vertices or merged classes are kept once.
    """
    child_bit = {parent_merge_map[r]: 1 << cur for r, cur in state.merge_map.items()}
    out: list[Column] = []
    seen: set[Column] = set()
    for col in parent_cols:
        rep = partition.rep_of.get(col.class_rep)
        if rep is None:
            continue
        mask = 0
        try:
            for v in bits(col.mask):
                mask |= child_bit[v]
        except KeyError:
            continue  # a vertex of the column is gone
        new = Column(mask, rep)
        if new in seen:
            continue
        seen.add(new)
        if column_fault(new, state.instance, partition) is None:
            out.append(new)
    return out


class Node(NamedTuple):
    """An open node: MasterProblem(*node, lp) builds its master."""

    state: NodeState  # after singleton preprocessing
    partition: ColorPartition
    pool: list[Column]  # the parent's columns it kept, in its own vertices


def open_node(
    pre_state: NodeState, parent_cols: Sequence[Column] = (), parent_merge_map: dict | None = None
) -> Node | None:
    """Preprocess, partition and inherit the parent's pool; None when a list empties.

    The root is open_node(root_state(root)); a child passes its parent's pool
    and merge_map, and is opened when its parent branches.
    """
    state = preprocess_singletons(pre_state)
    if state is None:
        return None
    partition = partition_colors(state.instance)
    pool = inherit_columns(parent_cols, parent_merge_map, state, partition) if parent_cols else []
    return Node(state, partition, pool)


class _Search:
    def __init__(self, root: Instance, deadline: Deadline):
        self.root = root
        self.deadline = deadline
        # the incumbent and the counters; solve() settles status and wall time
        self.report = SolveReport(INFEASIBLE)

    @cached_property
    def lp(self):
        """The search's one LP model, lent to each node's master in turn; made on first use."""
        return new_model()

    def run(self) -> None:
        stack = [open_node(root_state(self.root))]
        while stack:
            stack.extend(reversed(self._evaluate(stack.pop())))

    def _offer(self, node_coloring: dict[int, int], state: NodeState) -> ListColoring:
        """Lift a coloring of the node instance to the root and offer it; return it lifted."""
        report = self.report
        candidate = lift_node_assignment(node_coloring, state, self.root)
        best = update_incumbent(report.coloring, candidate)
        if best is not report.coloring:
            report.coloring, report.incumbent_node = best, report.nodes
        return candidate

    def _evaluate(self, node: Node | None) -> list[Node | None]:
        """Count and solve one node (None: infeasible); return its children, SAME first."""
        self.deadline.check()
        report = self.report
        report.nodes += 1
        if node is None:
            return []
        state, partition, _ = node
        inst = state.instance
        if asg.all_complete(partition, inst.graph):
            read = asg.solve_assignment(inst, partition)
            if read is not None:
                self._offer(read[0], state)
            return []

        mp = MasterProblem(*node, self.lp)
        res = price_out(mp, report, self.deadline)
        cutoff = math.inf if report.weight is None else report.weight - state.fixed_weight
        bound = node_lower_bound(mp, res)
        if bound >= cutoff:
            return []  # inf: the node has no coloring; else none lighter

        pair = select_branching_pair(res)
        if pair is None:
            self._offer(extract_integer_solution(mp, res), state)
            return []

        node_coloring = dive(mp, res, cutoff)
        if node_coloring is not None:
            if self._offer(node_coloring, state).weight <= bound + state.fixed_weight:
                return []  # the dive met the node's bound: nothing below is lighter

        u, v = pair
        return [
            open_node(branch_same(state, u, v), mp.columns, state.merge_map),
            open_node(branch_differ(state, u, v), mp.columns, state.merge_map),
        ]


def solve(root: Instance, time_limit: float | None = None) -> SolveReport:
    """Solve an instance to proven optimality, infeasibility, or timeout.

    A timeout, or a NumericalFailure of the LP (a dive's included), of
    pricing (a pooled column priced again), of a matching or of the leaf
    read-off, or of weights beyond exact float64 arithmetic, ends the search
    with status TIME_LIMIT or NUMERICAL_FAILURE; the report keeps the
    incumbent found so far and the node it was found at.
    A time_limit that is NaN or negative raises ValueError before the search.
    """
    start = time.perf_counter()
    search = _Search(root, Deadline(time_limit))
    report = search.report
    try:
        search.run()
        if report.coloring is not None:
            report.status = OPTIMAL
    except SearchTimeout:
        report.status = TIME_LIMIT
    except NumericalFailure:
        report.status = NUMERICAL_FAILURE
    report.wall_time = time.perf_counter() - start
    return report
