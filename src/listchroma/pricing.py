"""Column pricing: per-class maximum weight stable set search.

A class k yields an entering column iff some stable set of G^k has pi-weight
strictly above the threshold w_k + gamma_k. Each round numbers the node graph
once, heaviest pi first, and every class searches its vertex set in that
numbering. Classes are visited by decreasing threshold so that a result
computed for one vertex set can be reused by every later class living on the
same vertices.
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
) -> tuple[list[int], dict[int, int], list[float], list[int]]:
    """Renumber graph by decreasing pi, ties to the lower id: (order, pos, weights, adj)."""
    order = sorted(range(graph.n), key=lambda v: (-pi[v], v))
    pos = {v: i for i, v in enumerate(order)}
    adj = [sum(1 << pos[u] for u in bits(graph.adj[v])) for v in order]
    return order, pos, [pi[v] for v in order], adj


def mwss_search(
    adj: Sequence[int],
    vertex_mask: int,
    weights: Sequence[float],
    threshold: float,
    early_exit: bool = True,
    stats: PricingStats | None = None,
    deadline: Deadline | None = None,
) -> tuple[int, float]:
    """Branch and bound for a heavy stable set of G^k; returns (mask, weight).

    G^k is adj restricted to vertex_mask, numbered as heaviest_first does, so
    branching in index order (include first) branches in decreasing weight.
    A subtree is pruned when the current weight plus everything still
    selectable cannot beat the target. With early_exit the target is the
    threshold and the first set strictly above it is returned; otherwise the
    exact maximum is computed, which certifies LP optimality at a node.
    """
    if stats is None:
        stats = PricingStats()
    best_w = 0.0
    best_mask = 0
    # Each entry is a search node (candidates, weight, mask, weight still
    # selectable). The include branch is followed in place and the exclude
    # branch pushed, so nodes are visited in the depth-first, include-first
    # order, and each is pruned against best_w as it stands when visited.
    rem = sum(w for i, w in enumerate(weights) if vertex_mask >> i & 1)
    stack = [(vertex_mask, 0.0, 0, rem)] if vertex_mask else []
    while stack:
        cand, cur_w, cur_mask, rem = stack.pop()
        while True:
            stats.nodes += 1
            if deadline is not None and stats.nodes % 1000 == 0:
                deadline.check()
            if early_exit:
                if cur_w + rem <= threshold + EPS:
                    break
            elif cur_w + rem <= best_w:
                break
            if not cand:
                break
            i = (cand & -cand).bit_length() - 1
            bit = 1 << i
            w2 = cur_w + weights[i]
            m2 = cur_mask | bit
            if early_exit:
                if w2 > threshold + EPS:
                    best_w, best_mask = w2, m2
                    stack.clear()
                    break
            elif w2 > best_w:
                best_w, best_mask = w2, m2
            stack.append((cand ^ bit, cur_w, cur_mask, rem - weights[i]))
            removed = cand & (adj[i] | bit)
            rm = removed
            while rm:
                low = rm & -rm
                rem -= weights[low.bit_length() - 1]
                rm ^= low
            cand, cur_w, cur_mask = cand & ~removed, w2, m2
    return best_mask, best_w


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
    early_exit: bool = True,
    deadline: Deadline | None = None,
) -> PricingOutcome:
    """Search every class for a column with positive reduced cost.

    Returns at most one column per class, each extended to a maximal stable
    set. Classes sharing a vertex set reuse the first search outcome: a set
    beating the larger threshold beats every smaller one, and an exact
    maximum settles all of them.
    """
    stats = PricingStats()
    order, pos, weights, adj = heaviest_first(inst.graph, duals.pi)
    thresholds = {k: inst.weights[k] + duals.gamma_of(k) for k in partition.reps}
    classes = sorted(partition.reps, key=lambda k: (-thresholds[k], k))
    # vertex_mask -> (weight, mask, exact, proved upper bound), masks renumbered
    cache: dict[int, tuple[float, int, bool, float | None]] = {}
    per_class: dict[int, Column | None] = {}
    for k in classes:
        t = thresholds[k]
        vmask = sum(1 << pos[v] for v in partition.vertices[k])  # distinct bits, so their OR
        chosen = None
        entry = cache.get(vmask)
        resolved = False
        if entry is not None:
            w, mask, exact, proved = entry
            if mask and w > t + EPS:
                chosen = mask
                resolved = True
                stats.cache_hits += 1
            elif exact and w <= t + EPS:
                per_class[k] = None
                resolved = True
                stats.cache_hits += 1
            elif proved is not None and proved <= t + EPS:
                per_class[k] = None
                resolved = True
                stats.cache_hits += 1
        if not resolved:
            mask, w = mwss_search(adj, vmask, weights, t, early_exit, stats, deadline)
            if w > t + EPS:
                chosen = mask
                cache[vmask] = (w, mask, not early_exit, None)
            else:
                cache[vmask] = (w, mask, not early_exit, t + EPS if early_exit else None)
        if chosen is not None:
            full = extend_to_maximal(chosen, vmask, adj)
            per_class[k] = Column(sum(1 << order[i] for i in bits(full)), k, inst.weights[k])
        elif k not in per_class:
            per_class[k] = None
    return PricingOutcome(per_class, stats)
