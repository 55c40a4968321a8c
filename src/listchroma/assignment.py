"""Finishing a node by one minimum cost matching of rows to concrete colors.

solve_assignment is the one read-off: every coloring of a node instance
that the search offers (through core.lift_node_assignment) comes from it.
Its rows are the big columns of an LP point (master.read_off), then the
vertices they leave uncovered. On an all-complete node, where every class
vertex set is a clique, each color serves at most one vertex, so matching
the vertices alone colors the node optimally, with no master.

min_cost_matching solves the matching with the function of scipy.optimize's
compiled module _lsap, which scipy_ext loads from its file so that importing
the solver does not run scipy.optimize's package init.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence

import numpy as np

from .core import ColorPartition, Graph, Instance, NumericalFailure, bits
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


def solve_assignment(
    inst: Instance, partition: ColorPartition, big: Sequence[tuple[int, int]] = ()
) -> tuple[dict[int, int], int] | None:
    """A coloring {vertex: color} of inst by one matching, and its weight; None when none exists.

    Each big column (mask, class) takes a color of its class, and each
    vertex the big columns leave uncovered takes a color of its list. A big
    column colors those of its vertices that no earlier one colored, and the
    weight is the sum of the matched colors. Without big columns this colors
    an all-complete node optimally.
    """
    residual = [v for v in range(inst.n) if not any(mask >> v & 1 for mask, _ in big)]
    rows = [partition.class_members[k] for _, k in big]
    match = min_cost_matching(rows + [inst.lists[v] for v in residual], inst.colors, inst.weights)
    if match is None:
        return None
    coloring = dict(zip(residual, match[len(big) :]))
    for (mask, _), color in zip(big, match):
        for v in bits(mask):
            coloring.setdefault(v, color)
    return coloring, sum(inst.weights[j] for j in match)
