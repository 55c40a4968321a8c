"""Depth-first branch-and-price search.

Every node is itself a list-coloring instance thanks to the robust branching
rule: SAME merges the pair and intersects lists, DIFFER adds the edge. Open
nodes wait on an explicit stack, not in Python frames, so the depth of the
tree is bounded by memory alone. SAME children are explored first since they
shrink the graph toward the all-complete leaves that the matching module
finishes off.
"""

from __future__ import annotations

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
    SearchTimeout,
    bits,
    branch_differ,
    branch_same,
    lift_node_assignment,
    partition_colors,
    preprocess_singletons,
    reconstruct,
    root_state,
)
from .master import (
    Column,
    ExtractResult,
    LPResult,
    NumericalFailure,
    add_columns,
    extract_integer_solution,
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
    mwss_nodes: int = 0  # search nodes over every pricing round
    mwss_cache_hits: int = 0  # classes settled by an earlier search of their vertex set

    @property
    def weight(self) -> int | None:
        """The incumbent's weight, None without a coloring."""
        return None if self.coloring is None else self.coloring.weight


@dataclass(frozen=True)
class CertifiedPricing:
    """Snapshot of a node whose pricing proved LP optimality (all classes None)."""

    adj: tuple[int, ...]
    pi: tuple[float, ...]
    classes: tuple[tuple[int, int, float], ...]  # (rep, vertex mask, threshold)


class SolveTrace:
    """Optional audit collector for the verification suites."""

    def __init__(self) -> None:
        self.pricing_certifications: list[CertifiedPricing] = []
        # one (node instance, LP optimum, read-off) per leaf
        self.extractions: list[tuple[Instance, LPResult, ExtractResult]] = []
        self.root_branch_pair: tuple[int, int] | None = None
        self.bound_violations: list[tuple[float, float]] = []


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

    None means no column of two or more vertices is fractional, and the node
    is a leaf. The vertices its integral big columns leave uncovered form a
    residual problem over singleton columns whose constraint matrix (one
    cover row per vertex, one capacity row per class) is totally unimodular:
    it is a transportation problem from vertices to classes. Its optimum is
    therefore integral, and since the LP point is optimal it costs what the
    point's singletons cost. extract_integer_solution finds it as a matching.
    """
    candidates = [
        (abs(x - 0.5), -col.size, i)
        for i, (col, x) in enumerate(zip(res.columns, res.values))
        if col.size >= 2 and abs(x - round(x)) > EPS
    ]
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
    vanished from the child, when merging made it unstable or pushed it
    outside V_k, and duplicates created by the merge are kept once.
    """
    vmap = {parent_merge_map[r]: cur for r, cur in state.merge_map.items()}
    inst = state.instance
    out: list[Column] = []
    seen: set[Column] = set()
    for col in parent_cols:
        moved = {vmap.get(v) for v in bits(col.mask)}
        if None in moved:
            continue
        mask = sum(1 << nv for nv in moved)  # distinct bits, so their OR
        rep = partition.rep_of.get(col.class_rep)
        if rep is None:
            continue
        if mask & ~partition.vertex_mask[rep]:
            continue
        if any(inst.graph.adj[v] & mask for v in bits(mask)):
            continue
        new = Column(mask, rep)
        if new in seen:
            continue
        seen.add(new)
        out.append(new)
    return out


# An open node: its state before preprocessing, then the parent's columns,
# the parent's merge_map that maps their vertices to the root, and the
# parent's LP bound (None at the root).
_Node = tuple[NodeState, list[Column], dict[int, int], float | None]


class _Search:
    def __init__(
        self,
        root: Instance,
        deadline: Deadline,
        trace: SolveTrace | None,
    ):
        self.root = root
        self.deadline = deadline
        self.trace = trace
        # the incumbent and the counters; solve() settles status and wall time
        self.report = SolveReport(INFEASIBLE)

    def run(self) -> None:
        stack: list[_Node] = [(root_state(self.root), [], {}, None)]
        while stack:
            stack.extend(reversed(self._evaluate(*stack.pop())))

    def _offer(self, candidate: ListColoring) -> None:
        self.report.coloring = update_incumbent(self.report.coloring, candidate)

    def _evaluate(
        self,
        pre_state: NodeState,
        parent_cols: list[Column],
        parent_merge_map: dict[int, int],
        parent_lp: float | None,
    ) -> list[_Node]:
        """Solve one node; return its children, SAME first, or [] at a leaf."""
        self.deadline.check()
        report = self.report
        report.nodes += 1
        state = preprocess_singletons(pre_state)
        if state is None:
            return []
        inst = state.instance
        if inst.n == 0:
            self._offer(lift_node_assignment({}, state, self.root))
            return []
        partition = partition_colors(inst)

        if asg.all_complete(partition, inst.graph):
            node_coloring = asg.solve_assignment(state)
            if node_coloring is not None:
                self._offer(lift_node_assignment(node_coloring, state, self.root))
            return []

        mp = init_with_dummies(state, partition)
        if parent_cols:
            inherited = inherit_columns(parent_cols, parent_merge_map, state, partition)
            if inherited:
                add_columns(mp, inherited)

        # One early-exit round per LP optimum: a round that finds no column has
        # shown max pi(S) <= w_k + gamma_k + EPS for every class, so the LP is
        # optimal at this node.
        while True:
            self.deadline.check()
            res = solve_lp(mp)
            outcome = price_all(inst, partition, res.duals, deadline=self.deadline)
            report.pricing_rounds += 1
            report.mwss_nodes += outcome.stats.nodes
            report.mwss_cache_hits += outcome.stats.cache_hits
            cols = outcome.columns()
            if not cols:
                break
            add_columns(mp, cols)
            report.columns_generated += len(cols)
        if self.trace is not None:
            self.trace.pricing_certifications.append(
                CertifiedPricing(
                    adj=inst.graph.adj,
                    pi=res.duals.pi,
                    classes=tuple(
                        (k, partition.vertex_mask[k], inst.weights[k] + res.duals.gamma_of(k))
                        for k in partition.reps
                    ),
                )
            )

        lp_total = res.objective + state.fixed_weight
        if (
            self.trace is not None
            and parent_lp is not None
            and lp_total < parent_lp - EPS * max(1.0, abs(parent_lp))
        ):
            self.trace.bound_violations.append((parent_lp, lp_total))
        bound = node_lower_bound(res, mp.big_m)
        if bound is None:
            return []  # a dummy is still active: this subproblem has no coloring
        if report.weight is not None and bound + state.fixed_weight >= report.weight:
            return []

        pair = select_branching_pair(res)
        if pair is None:
            extracted = extract_integer_solution(mp, res)
            if self.trace is not None:
                self.trace.extractions.append((inst, res, extracted))
            chosen = [res.columns[i] for i in extracted.selection]
            self._offer(reconstruct(chosen, partition, state, self.root))
            return []

        u, v = pair
        # the root is evaluated first, and when it does not branch no other node exists
        if self.trace is not None and self.trace.root_branch_pair is None:
            self.trace.root_branch_pair = (u, v)
        real_cols = [c for c in mp.columns if not c.is_dummy]
        return [
            (branch_same(state, u, v), real_cols, state.merge_map, lp_total),
            (branch_differ(state, u, v), real_cols, state.merge_map, lp_total),
        ]


def solve(
    root: Instance,
    time_limit: float | None = None,
    trace: SolveTrace | None = None,
) -> SolveReport:
    """Solve an instance to proven optimality, infeasibility, or timeout.

    A timeout or a NumericalFailure of the LP or the leaf read-off ends the
    search with status TIME_LIMIT or NUMERICAL_FAILURE; the report keeps the
    incumbent found so far.
    """
    start = time.perf_counter()
    search = _Search(root, Deadline(time_limit), trace)
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
