"""Exact resolution of nodes where every color subgraph G^k is a clique.

In that regime each color can serve at most one vertex, so the node reduces
to a minimum cost matching of the vertices into the concrete colors, which
scipy's linear_sum_assignment solves. It is the function of
scipy.optimize's compiled module _lsap, which scipy_ext loads from its file
so that importing the solver does not run scipy.optimize's package init.

min_cost_matching is the one way a node is finished by matching: it also
colors every integral leaf of the column generation and the end of every
dive (master.extract_integer_solution, master.dive), matching the big
columns and the vertices they leave uncovered to colors in one assignment.
Either way the node ends with a coloring of its own instance for
core.lift_node_assignment.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence

import numpy as np

from .core import ColorPartition, Graph, NodeState, NumericalFailure, bits
from .scipy_ext import load_extension

linear_sum_assignment = load_extension("scipy.optimize._lsap").linear_sum_assignment


def all_complete(partition: ColorPartition, graph: Graph) -> bool:
    """True iff every class vertex set induces a clique."""
    for k in partition.reps:
        mask = partition.vertex_mask[k]
        for v in bits(mask):
            if mask & ~(graph.adj[v] | 1 << v):
                return False
    return True


def min_cost_matching(
    rows: Sequence[Collection[int]], colors: Sequence[int], weights: Mapping[int, int]
) -> list[int] | None:
    """Cheapest way to give every row its own color out of colors.

    rows[r] holds the colors row r may take, and taking color j costs
    weights[j]. Returns the color of each row, or None when no matching
    covers every row. Forbidden pairs cost more than any matching of allowed
    ones, so a minimum matching that still uses one proves that none exists.
    scipy solves the assignment in float64, which is exact while the costs
    of a matching, big-M included, sum to less than 2**53; larger costs raise
    NumericalFailure.
    """
    if len(rows) > len(colors) or not all(rows):
        return None
    big = 1 + sum(max(weights[j] for j in row) for row in rows)
    if big * len(rows) >= 2**53:
        raise NumericalFailure("matching costs too large for exact float64 arithmetic")
    slot = {j: s for s, j in enumerate(colors)}
    cost = np.full((len(rows), len(colors)), big, dtype=np.int64)
    for r, row in enumerate(rows):
        for j in row:
            cost[r, slot[j]] = weights[j]
    _, cols = linear_sum_assignment(cost)
    match = [colors[s] for s in cols.tolist()]
    if any(j not in row for j, row in zip(match, rows)):
        return None
    return match


def solve_assignment(state: NodeState) -> dict[int, int] | None:
    """Color an all-complete node optimally; None when it has no coloring."""
    inst = state.instance
    match = min_cost_matching(inst.lists, inst.colors, inst.weights)
    return None if match is None else dict(enumerate(match))
