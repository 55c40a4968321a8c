"""Brute-force exact solver for small instances, used as ground truth."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance, ListColoring, list_coloring, partition_colors


class TooLargeError(ValueError):
    """Instance exceeds the enumeration cap."""


@dataclass(frozen=True)
class OracleResult:
    optimum: int | None
    witness: ListColoring | None
    assignments_explored: int

    @property
    def feasible(self) -> bool:
        return self.optimum is not None


def oracle_solve(inst: Instance, cap: int = 14) -> OracleResult:
    """Exact optimum by backtracking over vertices in id order.

    Prunes a partial assignment once its active-color weight reaches the best
    complete coloring seen (weights are non-negative, so extensions never get
    lighter). Colors already active are tried before fresh ones, and among
    fresh colors only one per interchangeability class is branched on: two
    unused colors of equal weight whose lists coincide on the vertices still
    to be colored yield weight-isomorphic subtrees (swap one for the other),
    so trying a second one cannot change the optimum.
    """
    n = inst.n
    if n > cap:
        raise TooLargeError(f"oracle capped at {cap} vertices, got {n}")
    if n == 0:
        return OracleResult(0, list_coloring(inst, {}), 0)

    weights = inst.weights
    ordered_lists = [sorted(l, key=lambda j: (weights[j], j)) for l in inst.lists]
    earlier_nbrs = [
        [u for u in range(v) if inst.graph.adj[v] >> u & 1] for v in range(n)
    ]
    part = partition_colors(inst)
    vertex_masks = {j: part.vertex_mask[part.rep_of[j]] for j in inst.colors}
    class_at: list[dict[int, int]] = []
    for v in range(n):
        suffix = ((1 << n) - 1) >> v << v
        groups: dict[tuple[int, int], int] = {}
        table = {}
        for j in inst.colors:
            key = (weights[j], vertex_masks[j] & suffix)
            table[j] = groups.setdefault(key, len(groups))
        class_at.append(table)

    assigned = [-1] * n
    active: dict[int, int] = {}
    best_weight: int | None = None
    best_assignment: list[int] | None = None
    explored = 0

    def backtrack(v: int, weight: int) -> None:
        nonlocal best_weight, best_assignment, explored
        if best_weight is not None and weight >= best_weight:
            return
        if v == n:
            best_weight = weight
            best_assignment = assigned.copy()
            return
        forbidden = [assigned[u] for u in earlier_nbrs[v]]
        colors = ordered_lists[v]
        for j in colors:  # reuse pass: no weight increase
            if j in active and j not in forbidden:
                explored += 1
                assigned[v] = j
                active[j] += 1
                backtrack(v + 1, weight)
                active[j] -= 1
        tried_classes: set[int] = set()
        class_of = class_at[v]
        for j in colors:  # fresh pass: one representative per class
            if j in active or j in forbidden:
                continue
            cls = class_of[j]
            if cls in tried_classes:
                continue
            tried_classes.add(cls)
            explored += 1
            assigned[v] = j
            active[j] = 1
            backtrack(v + 1, weight + weights[j])
            del active[j]
        assigned[v] = -1

    backtrack(0, 0)
    if best_weight is None:
        return OracleResult(None, None, explored)
    witness = list_coloring(inst, {v: best_assignment[v] for v in range(n)})
    assert witness.weight == best_weight
    return OracleResult(best_weight, witness, explored)
