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


def placement_order(inst: Instance) -> list[int]:
    """The static order in which oracle_solve places the vertices.

    The next vertex is always the one with the most neighbors among the
    vertices already placed, so its conflicts show up as early as they can.
    Ties go to the shorter list, then the higher degree, then the lower id.
    This is the static counterpart of DSATUR's saturation rule (Brelaz,
    "New methods to color the vertices of a graph", CACM 1979).
    """
    nbrs = inst.graph.neighbors
    placed_nbrs = [0] * inst.n
    left = set(range(inst.n))
    order: list[int] = []
    while left:
        v = max(
            left, key=lambda u: (placed_nbrs[u], -len(inst.lists[u]), len(nbrs[u]), -u)
        )
        order.append(v)
        left.remove(v)
        for u in nbrs[v]:
            placed_nbrs[u] += 1
    return order


def oracle_solve(inst: Instance, cap: int = 14) -> OracleResult:
    """Exact optimum by backtracking over the vertices in placement_order.

    Position i of the search holds vertex order[i]; the witness is mapped
    back to vertex ids before list_coloring validates it. Prunes a partial
    assignment once its active-color weight reaches the best complete
    coloring seen (weights are non-negative, so extensions never get
    lighter). Colors already active are tried before fresh ones, and among
    fresh colors only one per interchangeability class is branched on: two
    unused colors of equal weight whose lists coincide on the vertices still
    to be placed yield weight-isomorphic subtrees (swap one for the other),
    so trying a second one cannot change the optimum. The argument names
    only the set of vertices not yet placed, never their ids, so it holds
    for the suffix order[i:] of any fixed order.
    """
    n = inst.n
    if n > cap:
        raise TooLargeError(f"oracle capped at {cap} vertices, got {n}")
    if n == 0:
        return OracleResult(0, list_coloring(inst, {}), 0)

    weights = inst.weights
    order = placement_order(inst)
    position = {v: i for i, v in enumerate(order)}
    ordered_lists = [sorted(inst.lists[v], key=lambda j: (weights[j], j)) for v in order]
    earlier_nbrs = [
        [position[u] for u in inst.graph.neighbors[v] if position[u] < i]
        for i, v in enumerate(order)
    ]
    part = partition_colors(inst)
    vertex_masks = {j: part.vertex_mask[part.rep_of[j]] for j in inst.colors}
    class_at: list[dict[int, int]] = []
    for i in range(n):
        suffix = sum(1 << v for v in order[i:])  # the vertices still to be placed
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

    def backtrack(i: int, weight: int) -> None:
        nonlocal best_weight, best_assignment, explored
        if best_weight is not None and weight >= best_weight:
            return
        if i == n:
            best_weight = weight
            best_assignment = assigned.copy()
            return
        forbidden = [assigned[u] for u in earlier_nbrs[i]]
        colors = ordered_lists[i]
        for j in colors:  # reuse pass: no weight increase
            if j in active and j not in forbidden:
                explored += 1
                assigned[i] = j
                active[j] += 1
                backtrack(i + 1, weight)
                active[j] -= 1
        tried_classes: set[int] = set()
        class_of = class_at[i]
        for j in colors:  # fresh pass: one representative per class
            if j in active or j in forbidden:
                continue
            cls = class_of[j]
            if cls in tried_classes:
                continue
            tried_classes.add(cls)
            explored += 1
            assigned[i] = j
            active[j] = 1
            backtrack(i + 1, weight + weights[j])
            del active[j]
        assigned[i] = -1

    backtrack(0, 0)
    if best_weight is None:
        return OracleResult(None, None, explored)
    witness = list_coloring(inst, {v: best_assignment[i] for i, v in enumerate(order)})
    assert witness.weight == best_weight
    return OracleResult(best_weight, witness, explored)
