"""Exact resolution of nodes where every color subgraph G^k is a clique.

In that regime each color can serve at most one vertex, so the node reduces
to a minimum cost matching of the vertices into the concrete colors, which
scipy's linear_sum_assignment solves.

min_cost_matching is the one way a node is finished by matching: it also
completes every integral leaf of the column generation
(master.extract_integer_solution), matching the vertices its big columns
leave uncovered to colors. Either way the node ends with a coloring of its
own instance for core.lift_node_assignment.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import ColorPartition, Graph, NodeState, NumericalFailure, bits


def all_complete(partition: ColorPartition, graph: Graph) -> bool:
    """True iff every class vertex set induces a clique."""
    for k in partition.reps:
        mask = partition.vertex_mask[k]
        for v in bits(mask):
            if mask & ~(graph.adj[v] | 1 << v):
                return False
    return True


def min_cost_matching(options: list[dict[int, int]], width: int) -> list[int] | None:
    """Cheapest way to give every row its own slot out of range(width).

    options[r] maps the slots row r may take to their integer costs. Returns
    the slot of each row, or None when no matching covers every row.
    Forbidden pairs cost more than any matching of allowed ones, so a minimum
    matching that still uses one proves that none exists. scipy solves the
    assignment in float64, which is exact while the costs of a matching,
    big-M included, sum to less than 2**53; larger costs raise
    NumericalFailure.
    """
    if len(options) > width or not all(options):
        return None
    big = 1 + sum(max(row.values()) for row in options)
    if big * len(options) >= 2**53:
        raise NumericalFailure("matching costs too large for exact float64 arithmetic")
    cost = np.full((len(options), width), big, dtype=np.int64)
    for r, row in enumerate(options):
        for s, c in row.items():
            cost[r, s] = c
    _, cols = linear_sum_assignment(cost)
    match = cols.tolist()
    if any(s not in row for s, row in zip(match, options)):
        return None
    return match


def solve_assignment(state: NodeState) -> dict[int, int] | None:
    """Color an all-complete node optimally; None when it has no coloring."""
    inst = state.instance
    colors = list(inst.colors)
    options = [
        {s: inst.weights[j] for s, j in enumerate(colors) if j in inst.lists[vtx]}
        for vtx in range(inst.n)
    ]
    match = min_cost_matching(options, len(colors))
    if match is None:
        return None
    return {vtx: colors[s] for vtx, s in enumerate(match)}
