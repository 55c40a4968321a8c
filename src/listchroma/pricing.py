"""Column pricing: per-class search for a stable set heavier than a threshold.

A class k yields an entering column iff some stable set of G^k has pi-weight
strictly above the threshold w_k + gamma_k. Each round numbers the node graph
once, heaviest pi first, and every class searches its vertex set in that
numbering, stopping at the first set above its threshold. Classes are
visited by decreasing threshold so that a result computed for one vertex set
can be reused by every later class living on the same vertices.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .core import EPS, ColorPartition, Deadline, Graph, Instance, bits
from .master import Column, DualSolution


@dataclass
class PricingStats:
    nodes: int = 0
    cache_hits: int = 0


@dataclass(frozen=True)
class PricingOutcome:
    per_class: dict[int, Column | None]
    stats: PricingStats

    def columns(self) -> list[Column]:
        return [col for _, col in sorted(self.per_class.items()) if col is not None]


def heaviest_first(
    graph: Graph, pi: Sequence[float]
) -> tuple[list[int], list[int], list[float], list[int]]:
    """Renumber graph by decreasing pi, ties to the lower id: (order, bit, weights, adj).

    bit[v] is 1 << (the new index of v); adj is in the new numbering.
    """
    order = sorted(range(graph.n), key=lambda v: (-pi[v], v))
    bit = [0] * graph.n
    for i, v in enumerate(order):
        bit[v] = 1 << i
    get = bit.__getitem__
    neighbors = graph.neighbors
    return order, bit, [pi[v] for v in order], [sum(map(get, neighbors[v])) for v in order]


def mwss_search(
    adj: Sequence[int],
    vertex_mask: int,
    weights: Sequence[float],
    threshold: float,
    stats: PricingStats | None = None,
    deadline: Deadline | None = None,
) -> tuple[int, float]:
    """Branch and bound for a stable set of G^k heavier than threshold.

    G^k is adj restricted to vertex_mask, numbered as heaviest_first does, so
    branching in index order (include first) branches in decreasing weight.
    A subtree is pruned when the current weight plus everything still
    selectable cannot exceed threshold + EPS. Returns (mask, weight) of the
    first set found above it, or (0, 0.0) when the search proves that no
    stable set of G^k weighs more than threshold + EPS.
    """
    if stats is None:
        stats = PricingStats()
    target = threshold + EPS
    # Each entry is a search node (candidates, weight, mask, weight still
    # selectable). The include branch is followed in place and the exclude
    # branch pushed, so nodes are visited in the depth-first, include-first
    # order.
    rem = sum(w for i, w in enumerate(weights) if vertex_mask >> i & 1)
    stack = [(vertex_mask, 0.0, 0, rem)] if vertex_mask else []
    while stack:
        cand, cur_w, cur_mask, rem = stack.pop()
        while True:
            stats.nodes += 1
            if deadline is not None and stats.nodes % 1000 == 0:
                deadline.check()
            if cur_w + rem <= target or not cand:
                break
            i = (cand & -cand).bit_length() - 1
            bit = 1 << i
            w2 = cur_w + weights[i]
            if w2 > target:
                return cur_mask | bit, w2
            stack.append((cand ^ bit, cur_w, cur_mask, rem - weights[i]))
            removed = cand & (adj[i] | bit)
            rm = removed
            while rm:
                low = rm & -rm
                rem -= weights[low.bit_length() - 1]
                rm ^= low
            cand, cur_w, cur_mask = cand & ~removed, w2, cur_mask | bit
    return 0, 0.0


def extend_to_maximal(mask: int, vertex_mask: int, adj: Sequence[int]) -> int:
    """Grow a stable set to a maximal one in G^k, lowest (so heaviest) candidate first."""
    closed = mask
    for i in bits(mask):
        closed |= adj[i]
    cand = vertex_mask & ~closed
    while cand:
        bit = cand & -cand
        mask |= bit
        cand &= ~(adj[bit.bit_length() - 1] | bit)
    return mask


def price_all(
    inst: Instance,
    partition: ColorPartition,
    duals: DualSolution,
    deadline: Deadline | None = None,
) -> PricingOutcome:
    """Search every class for a column with positive reduced cost.

    Returns at most one column per class, each extended to a maximal stable
    set. Classes sharing a vertex set reuse the first search outcome: a set
    beating the larger threshold beats every smaller one, and a search that
    found nothing settles an equal threshold.
    """
    stats = PricingStats()
    order, bit, weights, adj = heaviest_first(inst.graph, duals.pi)
    thresholds = {k: inst.weights[k] + duals.gamma_of(k) for k in partition.reps}
    classes = sorted(partition.reps, key=lambda k: (-thresholds[k], k))
    # vertex_mask -> (set found or 0, threshold + EPS of that search), masks renumbered
    cache: dict[int, tuple[int, float]] = {}
    per_class: dict[int, Column | None] = {}
    for k in classes:
        target = thresholds[k] + EPS
        vmask = sum(map(bit.__getitem__, partition.vertices[k]))  # distinct bits, so their OR
        entry = cache.get(vmask)
        # thresholds only fall, so a found set always beats this one too
        if entry is not None and (entry[0] or entry[1] <= target):
            mask = entry[0]
            stats.cache_hits += 1
        else:
            mask, _ = mwss_search(adj, vmask, weights, thresholds[k], stats, deadline)
            cache[vmask] = (mask, target)
        if mask:
            full = extend_to_maximal(mask, vmask, adj)
            per_class[k] = Column(sum(1 << order[i] for i in bits(full)), k)
        else:
            per_class[k] = None
    return PricingOutcome(per_class, stats)
