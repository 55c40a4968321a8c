"""Brute-force exact solver for small instances, used as ground truth."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance, ListColoring, list_coloring, partition_colors

DEFAULT_CAP = 14  # vertices; oracle_solve and `check --oracle-cap` refuse more by default


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


def oracle_solve(inst: Instance, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact optimum by backtracking over the vertices in placement_order.

    Position i of the search holds vertex order[i]; the witness is mapped
    back to vertex ids before list_coloring validates it. Colors are
    numbered lightest first, by (weight, id), so bit c of a color mask is
    the c-th lightest color and ascending bits are tried lightest first.
    The search carries the mask of active colors (those already used) and,
    per position, the mask `taken` of the colors on its placed neighbors.
    Colors already active are tried before fresh ones, and among fresh
    colors only one per interchangeability class is branched on: two unused
    colors of equal weight whose lists coincide on the vertices still to be
    placed yield weight-isomorphic subtrees (swap one for the other), so
    trying a second one cannot change the optimum. The argument names only
    the set of vertices not yet placed, never their ids, so it holds for the
    suffix order[i:] of any fixed order.

    Each node looks ahead over the positions still to place (forward
    checking; Haralick and Elliott, Artificial Intelligence 1980). A
    position is needy when no active color of its list is free of `taken`,
    so its vertex must open a fresh color. Why each prune is sound:

    - Placed vertices never change inside a subtree, so `taken` and the
      active mask only grow: a needy vertex stays needy, and the fresh
      colors left to it only shrink.
    - A needy vertex with no fresh color left has no color at all.
    - A needy vertex adds at least its lightest fresh color to the weight.
    - The needy vertices of a clique K need |K| distinct fresh colors from
      the union of their fresh lists: at least the |K| lightest of it, and
      no coloring if the union holds fewer than |K|.
    - Weights are non-negative, so no completion is lighter than the weight
      so far plus the larger of the two bounds; the node is pruned when that
      reaches the best complete coloring seen.
    - Reuse children weigh what their node weighs, and fresh children are
      tried lightest first, so each pass stops at the first child that
      cannot beat the best.
    - The bound reads only weights, `taken`, the active mask and the lists
      of unplaced vertices. Two interchangeable unused colors are in no
      `taken` and not active, so swapping them leaves every bound in the
      subtree the same and the class argument still holds.
    """
    n = inst.n
    if n > cap:
        raise TooLargeError(f"oracle capped at {cap} vertices, got {n}")
    if n == 0:
        return OracleResult(0, list_coloring(inst, {}), 0)

    weights = inst.weights
    colors = sorted(inst.colors, key=lambda j: (weights[j], j))
    color_weight = [weights[j] for j in colors]
    bit_of = {j: 1 << c for c, j in enumerate(colors)}
    order = placement_order(inst)
    position = {v: i for i, v in enumerate(order)}
    list_mask = [sum(bit_of[j] for j in inst.lists[v]) for v in order]
    later_nbrs = [
        [position[u] for u in inst.graph.neighbors[v] if position[u] > i]
        for i, v in enumerate(order)
    ]
    adj_mask = [sum(1 << position[u] for u in inst.graph.neighbors[v]) for v in order]
    part = partition_colors(inst)
    color_vertices = [part.vertex_mask[part.rep_of[j]] for j in colors]
    class_at: list[list[int]] = []
    for i in range(n):
        suffix = sum(1 << v for v in order[i:])  # the vertices still to be placed
        groups: dict[tuple[int, int], int] = {}
        class_at.append([
            groups.setdefault((w, mask & suffix), len(groups))
            for w, mask in zip(color_weight, color_vertices)
        ])

    taken = [0] * n
    assigned = [-1] * n
    best_weight: int | None = None
    best_assignment: list[int] | None = None
    explored = 0

    def bound(i: int, active: int) -> int | None:
        """Least weight still to add below a node; None if nothing fits."""
        lightest = 0  # the largest lightest fresh color of a needy vertex
        clique = 0  # positions of a greedy clique of needy vertices
        size = 0
        union = 0  # the colors their fresh lists hold
        for k in range(i, n):
            free = list_mask[k] & ~taken[k]
            if free & active:
                continue
            # needy: every color still free for k is fresh
            if not free:
                return None
            w = color_weight[(free & -free).bit_length() - 1]
            if w > lightest:
                lightest = w
            if adj_mask[k] & clique == clique:
                clique |= 1 << k
                size += 1
                union |= free
        if union.bit_count() < size:
            return None
        total = 0
        for _ in range(size):
            low = union & -union
            total += color_weight[low.bit_length() - 1]
            union ^= low
        return max(lightest, total)

    def place(i: int, c: int, active: int, weight: int) -> None:
        nonlocal explored
        explored += 1
        assigned[i] = c
        bit = 1 << c
        later = later_nbrs[i]
        saved = [taken[k] for k in later]
        for k in later:
            taken[k] |= bit
        backtrack(i + 1, active | bit, weight)
        for k, t in zip(later, saved):
            taken[k] = t

    def backtrack(i: int, active: int, weight: int) -> None:
        nonlocal best_weight, best_assignment
        if i == n:
            best_weight = weight
            best_assignment = assigned.copy()
            return
        rest = bound(i, active)
        if rest is None or best_weight is not None and weight + rest >= best_weight:
            return
        free = list_mask[i] & ~taken[i]
        reuse = free & active
        while reuse:  # reuse pass: no weight increase
            if best_weight is not None and weight >= best_weight:
                return
            low = reuse & -reuse
            reuse ^= low
            place(i, low.bit_length() - 1, active, weight)
        fresh = free & ~active
        tried_classes: set[int] = set()
        class_of = class_at[i]
        while fresh:  # fresh pass: one representative per class, lightest first
            low = fresh & -fresh
            fresh ^= low
            c = low.bit_length() - 1
            child = weight + color_weight[c]
            if best_weight is not None and child >= best_weight:
                return
            if class_of[c] in tried_classes:
                continue
            tried_classes.add(class_of[c])
            place(i, c, active, child)

    try:
        backtrack(0, 0, 0)
    except RecursionError:  # two frames per placed vertex
        raise TooLargeError(f"oracle search of {n} vertices passes the recursion limit") from None
    if best_weight is None:
        return OracleResult(None, None, explored)
    witness = list_coloring(
        inst, {v: colors[best_assignment[i]] for i, v in enumerate(order)}
    )
    if witness.weight != best_weight:
        raise RuntimeError(f"oracle witness weighs {witness.weight}, its search found {best_weight}")
    return OracleResult(best_weight, witness, explored)
