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
    assign_class_colors,
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
    add_columns,
    extract_integer_solution,
    has_fractional_big_column,
    init_with_dummies,
    node_lower_bound,
    solve_lp,
)
from .pricing import price_all

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
TIME_LIMIT = "time_limit"


@dataclass
class SolveReport:
    status: str
    coloring: ListColoring | None
    weight: int | None
    nodes: int
    columns_generated: int
    pricing_rounds: int
    wall_time: float
    mwss_nodes: int  # search nodes over every pricing round


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
        self.extractions: list[tuple[LPResult, ExtractResult]] = []  # one per leaf
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


def select_branching_pair(res: LPResult) -> tuple[int, int]:
    """Pick the non-adjacent pair (u, v) from the most fractional big column.

    u is the lowest vertex of that column S1; v comes from the first other
    positive column through u that leaves S1, falling back to S1 itself.
    Both choices keep u and v in a common stable set, hence non-adjacent with
    intersecting lists; branch_same and branch_differ raise otherwise.
    """
    candidates = [
        (abs(x - 0.5), -col.size, i)
        for i, (col, x) in enumerate(zip(res.columns, res.values))
        if col.size >= 2 and abs(x - round(x)) > EPS
    ]
    if not candidates:
        raise ValueError("no fractional column with at least two vertices")
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
    parent_cols: list[Column], state: NodeState, partition: ColorPartition
) -> list[Column]:
    """Translate a parent pool into the child node, dropping what broke.

    A column dies when it contains a vertex eliminated by preprocessing, when
    its class color vanished from the child, when merging made it unstable or
    pushed it outside V_k, and duplicates created by the merge are kept once.
    """
    vmap = state.parent_map or {}
    inst = state.instance
    out: list[Column] = []
    seen: set[tuple[int, int]] = set()
    for col in parent_cols:
        mask = 0
        dead = False
        for v in bits(col.mask):
            nv = vmap.get(v)
            if nv is None:
                dead = True
                break
            mask |= 1 << nv
        if dead or not mask:
            continue
        rep = partition.rep_of.get(col.class_rep)
        if rep is None:
            continue
        if mask & ~partition.vertex_mask[rep]:
            continue
        if any(inst.graph.adj[v] & mask for v in bits(mask)):
            continue
        key = (mask, rep)
        if key in seen:
            continue
        seen.add(key)
        out.append(Column(mask, rep, inst.weights[rep]))
    return out


# An open node: its state before preprocessing, the parent's columns and the
# parent's LP bound (None at the root).
_Node = tuple[NodeState, list[Column], float | None]


class _Search:
    def __init__(
        self,
        root: Instance,
        deadline: Deadline,
        use_assignment: bool,
        trace: SolveTrace | None,
    ):
        self.root = root
        self.deadline = deadline
        self.use_assignment = use_assignment
        self.trace = trace
        self.incumbent: ListColoring | None = None
        self.nodes = 0
        self.columns_generated = 0
        self.pricing_rounds = 0
        self.mwss_nodes = 0

    def run(self) -> None:
        stack: list[_Node] = [(root_state(self.root), [], None)]
        while stack:
            stack.extend(reversed(self._evaluate(*stack.pop())))

    def _offer(self, candidate: ListColoring) -> None:
        self.incumbent = update_incumbent(self.incumbent, candidate)

    def _evaluate(
        self,
        pre_state: NodeState,
        parent_cols: list[Column],
        parent_lp: float | None,
    ) -> list[_Node]:
        """Solve one node; return its children, SAME first, or [] at a leaf."""
        self.deadline.check()
        self.nodes += 1
        state = preprocess_singletons(pre_state)
        if state is None:
            return []
        inst = state.instance
        if inst.n == 0:
            self._offer(lift_node_assignment({}, state, self.root))
            return []
        partition = partition_colors(inst)

        if self.use_assignment and asg.all_complete(partition, inst.graph):
            node_coloring = asg.solve_assignment(state)
            if node_coloring is not None:
                self._offer(lift_node_assignment(node_coloring, state, self.root))
            return []

        mp = init_with_dummies(state, partition)
        if parent_cols:
            inherited = inherit_columns(parent_cols, state, partition)
            if inherited:
                add_columns(mp, inherited)

        while True:
            self.deadline.check()
            res = solve_lp(mp)
            outcome = price_all(inst, partition, res.duals, True, self.deadline)
            self.pricing_rounds += 1
            self.mwss_nodes += outcome.stats.nodes
            cols = outcome.columns()
            if not cols:
                confirm = price_all(inst, partition, res.duals, False, self.deadline)
                self.pricing_rounds += 1
                self.mwss_nodes += confirm.stats.nodes
                cols = confirm.columns()
                if not cols:
                    if self.trace is not None:
                        self.trace.pricing_certifications.append(
                            CertifiedPricing(
                                adj=inst.graph.adj,
                                pi=res.duals.pi,
                                classes=tuple(
                                    (
                                        k,
                                        partition.vertex_mask[k],
                                        inst.weights[k] + res.duals.gamma_of(k),
                                    )
                                    for k in partition.reps
                                ),
                            )
                        )
                    break
            add_columns(mp, cols)
            self.columns_generated += len(cols)

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
        if self.incumbent is not None and bound + state.fixed_weight >= self.incumbent.weight:
            return []

        if not has_fractional_big_column(res):
            extracted = extract_integer_solution(mp, res)
            if self.trace is not None:
                self.trace.extractions.append((res, extracted))
            chosen = [
                (res.columns[i].mask, res.columns[i].class_rep)
                for i in extracted.selection
            ]
            class_colors = assign_class_colors(chosen, partition)
            self._offer(reconstruct(chosen, class_colors, state, self.root))
            return []

        u, v = select_branching_pair(res)
        if (
            self.trace is not None
            and state.depth == 0
            and self.trace.root_branch_pair is None
        ):
            self.trace.root_branch_pair = (u, v)
        real_cols = [c for c in mp.columns if not c.is_dummy]
        return [
            (branch_same(state, u, v), real_cols, lp_total),
            (branch_differ(state, u, v), real_cols, lp_total),
        ]


def solve(
    root: Instance,
    time_limit: float | None = None,
    use_assignment: bool = True,
    trace: SolveTrace | None = None,
) -> SolveReport:
    """Solve an instance to proven optimality, infeasibility, or timeout."""
    start = time.perf_counter()
    search = _Search(root, Deadline(time_limit), use_assignment, trace)
    timed_out = False
    try:
        search.run()
    except SearchTimeout:
        timed_out = True
    incumbent = search.incumbent
    if timed_out:
        status = TIME_LIMIT
    elif incumbent is None:
        status = INFEASIBLE
    else:
        status = OPTIMAL
    return SolveReport(
        status=status,
        coloring=incumbent,
        weight=incumbent.weight if incumbent is not None else None,
        nodes=search.nodes,
        columns_generated=search.columns_generated,
        pricing_rounds=search.pricing_rounds,
        wall_time=time.perf_counter() - start,
        mwss_nodes=search.mwss_nodes,
    )
