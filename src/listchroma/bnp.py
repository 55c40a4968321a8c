"""Depth-first branch-and-price search.

Every node is itself a list-coloring instance thanks to the robust branching
rule: SAME merges the pair and intersects lists, DIFFER adds the edge. Open
nodes wait on an explicit stack, not in Python frames, so the depth of the
tree is bounded by memory alone. SAME children are explored first since they
shrink the graph toward the all-complete leaves that the matching module
finishes off.

price_out, the one column generation loop, prices each node's master out.
The node is pruned once master.node_lower_bound of that optimum reaches its
cutoff, the incumbent's weight less the node's fixed weight (math.inf
without one). About to branch, it dives (master.dive) over its own column
pool under that cutoff and offers the coloring read off; if that coloring
meets the bound, it does not branch.
Most of a tree without the dive was spent finding the optimum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

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
    dive,
    extract_integer_solution,
    fractional_big_columns,
    init_with_dummies,
    node_lower_bound,
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
    inst, partition = mp.instance, mp.partition
    while True:
        deadline.check()
        res = solve_lp(mp)
        outcome = price_all(inst, partition, res.duals, deadline=deadline)
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
    duplicates created by the merge are kept once.

    A parent mask is translated a byte at a time through _chunk_tables.
    """
    vmap = {parent_merge_map[r]: cur for r, cur in state.merge_map.items()}
    tables = _chunk_tables(vmap, max(parent_merge_map.values()) + 1)
    inst = state.instance
    out: list[Column] = []
    seen: set[Column] = set()
    for col in parent_cols:
        rep = partition.rep_of.get(col.class_rep)
        if rep is None:
            continue
        mask, rest, i = 0, col.mask, 0
        while rest:
            mask |= tables[i][rest & 0xFF]
            rest >>= 8
            i += 1
        if mask < 0:
            continue  # a vertex of the column is gone
        new = Column(mask, rep)
        if new in seen:
            continue
        seen.add(new)
        if column_fault(new, inst, partition) is None:
            out.append(new)
    return out


def _chunk_tables(vmap: dict[int, int], n: int) -> list[list[int]]:
    """Child masks of every 8-bit chunk of a mask over parent vertices 0..n-1.

    tables[c][b] is the OR of 1 << vmap[v] over the set bits v of b << 8c,
    or -1 when one of those vertices is missing from vmap; since -1 has
    every bit set, OR-ing it into a mask keeps the mask at -1.
    """
    tables = []
    for base in range(0, n, 8):
        table = [0]
        for v in range(base, min(base + 8, n)):
            bit = 1 << vmap[v] if v in vmap else -1
            table += [t | bit for t in table]
        tables.append(table)
    return tables


# An open node: its state before preprocessing, then the parent's columns
# and the parent's merge_map that maps their vertices to the root.
_Node = tuple[NodeState, list[Column], dict[int, int]]


class _Search:
    def __init__(self, root: Instance, deadline: Deadline):
        self.root = root
        self.deadline = deadline
        # the incumbent and the counters; solve() settles status and wall time
        self.report = SolveReport(INFEASIBLE)

    def run(self) -> None:
        stack: list[_Node] = [(root_state(self.root), [], {})]
        while stack:
            stack.extend(reversed(self._evaluate(*stack.pop())))

    def _offer(self, node_coloring: dict[int, int], state: NodeState) -> ListColoring:
        """Lift a coloring of the node instance to the root and offer it; return it lifted."""
        report = self.report
        candidate = lift_node_assignment(node_coloring, state, self.root)
        best = update_incumbent(report.coloring, candidate)
        if best is not report.coloring:
            report.coloring, report.incumbent_node = best, report.nodes
        return candidate

    def _evaluate(
        self,
        pre_state: NodeState,
        parent_cols: list[Column],
        parent_merge_map: dict[int, int],
    ) -> list[_Node]:
        """Solve one node; return its children, SAME first, or [] at a leaf."""
        self.deadline.check()
        report = self.report
        report.nodes += 1
        state = preprocess_singletons(pre_state)
        if state is None:
            return []
        inst = state.instance
        # Not folded into all_complete: acceptance criterion 6 switches that off
        # to force column generation, and init_with_dummies raises when n == 0.
        if inst.n == 0:
            self._offer({}, state)
            return []
        partition = partition_colors(inst)

        if asg.all_complete(partition, inst.graph):
            node_coloring = asg.solve_assignment(state)
            if node_coloring is not None:
                self._offer(node_coloring, state)
            return []

        inherited = (
            inherit_columns(parent_cols, parent_merge_map, state, partition) if parent_cols else []
        )
        mp = init_with_dummies(state, partition, inherited)
        res = price_out(mp, report, self.deadline)
        cutoff = math.inf if report.weight is None else report.weight - state.fixed_weight
        bound = node_lower_bound(res, mp.big_m)
        if bound >= cutoff:
            return []  # no coloring (inf: a dummy is still active), or none lighter

        pair = select_branching_pair(res)
        if pair is None:
            self._offer(extract_integer_solution(mp, res), state)
            return []

        node_coloring = dive(mp, res, cutoff)
        if node_coloring is not None:
            if self._offer(node_coloring, state).weight <= bound + state.fixed_weight:
                return []  # the dive met the node's bound: nothing below is lighter

        u, v = pair
        real_cols = [c for c in mp.columns if not c.is_dummy]
        return [
            (branch_same(state, u, v), real_cols, state.merge_map),
            (branch_differ(state, u, v), real_cols, state.merge_map),
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
