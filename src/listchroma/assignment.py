"""Exact resolution of nodes where every color subgraph G^k is a clique.

In that regime each color can serve at most one vertex, so the node reduces
to a minimum cost matching of the vertices into the concrete colors.

min_cost_matching is the one way a node is finished by matching: it also
completes every integral leaf of the column generation (see
master.extract_integer_solution), where the vertices left to the singleton
columns are matched to the free colors of their classes.
"""

from __future__ import annotations

from .core import ColorPartition, Graph, NodeState, bits


def all_complete(partition: ColorPartition, graph: Graph) -> bool:
    """True iff every class vertex set induces a clique."""
    for k in partition.reps:
        mask = partition.vertex_mask[k]
        for v in bits(mask):
            if mask & ~(graph.adj[v] | 1 << v):
                return False
    return True


def hungarian(cost: list[list[int]]) -> tuple[int, list[int]]:
    """Minimum cost matching of every row of an n x m matrix, n <= m.

    Standard O(n^2 m) potential/augmenting-path formulation. Returns the total
    cost and, per row, the matched column. Costs must support +/-/< (ints
    here, which keeps everything exact).
    """
    n = len(cost)
    if n == 0:
        return 0, []
    m = len(cost[0])
    if m < n:
        raise ValueError(f"{n} rows cannot be matched into {m} columns")
    inf = float("inf")
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    match_col = [0] * (m + 1)  # column j -> row matched to it (1-based, 0 free)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = inf
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    out = [0] * n
    total = 0
    for j in range(1, m + 1):
        if match_col[j]:
            out[match_col[j] - 1] = j - 1
            total += cost[match_col[j] - 1][j - 1]
    return total, out


def min_cost_matching(options: list[dict[int, int]], width: int) -> list[int] | None:
    """Cheapest way to give every row its own slot out of range(width).

    options[r] maps the slots row r may take to their costs. Returns the slot
    of each row, or None when no matching covers every row. Forbidden pairs
    cost more than any matching of allowed ones, so a minimum matching that
    still uses one proves that none exists.
    """
    if len(options) > width or not all(options):
        return None
    big = 1 + sum(max(row.values()) for row in options)
    _, match = hungarian([[row.get(s, big) for s in range(width)] for row in options])
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
