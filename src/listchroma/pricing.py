"""Column pricing: per-class maximum weight stable set search.

A class k yields an entering column iff some stable set of G^k has pi-weight
strictly above the threshold w_k + gamma_k. Classes are visited by decreasing
threshold so that a result computed for one vertex set can be reused by every
later class living on the same vertices.
"""

from __future__ import annotations

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


def mwss_search(
    graph: Graph,
    vertex_mask: int,
    pi: dict[int, float],
    threshold: float,
    early_exit: bool = True,
    stats: PricingStats | None = None,
    deadline: Deadline | None = None,
) -> tuple[int, float]:
    """Branch and bound for a heavy stable set of G^k; returns (mask, weight).

    G^k is graph restricted to vertex_mask, and pi weighs its vertices.

    Vertices are branched in decreasing pi order (include first), pruning a
    subtree when the current weight plus everything still selectable cannot
    beat the target. With early_exit the target is the threshold and the
    first set strictly above it is returned; otherwise the exact maximum is
    computed, which is what certifies LP optimality at the end of a node.
    """
    if stats is None:
        stats = PricingStats()
    order = sorted(bits(vertex_mask), key=lambda v: (-pi[v], v))
    loc = {v: i for i, v in enumerate(order)}
    pl = [pi[v] for v in order]
    ladj = []
    for v in order:
        m = 0
        for u in bits(graph.adj[v] & vertex_mask):
            m |= 1 << loc[u]
        ladj.append(m)

    best_w = 0.0
    best_mask = 0
    # Each entry is a search node (candidates, weight, mask, weight still
    # selectable). The include branch is followed in place and the exclude
    # branch pushed, so nodes are visited in the depth-first, include-first
    # order, and each is pruned against best_w as it stands when visited.
    stack = [((1 << len(order)) - 1, 0.0, 0, sum(pl))] if order else []
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
            w2 = cur_w + pl[i]
            m2 = cur_mask | bit
            if early_exit:
                if w2 > threshold + EPS:
                    best_w, best_mask = w2, m2
                    stack.clear()
                    break
            elif w2 > best_w:
                best_w, best_mask = w2, m2
            stack.append((cand ^ bit, cur_w, cur_mask, rem - pl[i]))
            removed = cand & (ladj[i] | bit)
            rm = removed
            while rm:
                low = rm & -rm
                rem -= pl[low.bit_length() - 1]
                rm ^= low
            cand, cur_w, cur_mask = cand & ~removed, w2, m2
    global_mask = 0
    for i in bits(best_mask):
        global_mask |= 1 << order[i]
    return global_mask, best_w


def extend_to_maximal(mask: int, vertex_mask: int, graph: Graph, pi: dict[int, float]) -> int:
    """Grow a stable set to a maximal one in G^k, heaviest candidates first."""
    closed = mask
    for v in bits(mask):
        closed |= graph.adj[v]
    cand = vertex_mask & ~closed
    while cand:
        v = min(bits(cand), key=lambda x: (-pi.get(x, 0.0), x))
        mask |= 1 << v
        cand &= ~(graph.adj[v] | 1 << v)
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
    graph = inst.graph
    thresholds = {k: inst.weights[k] + duals.gamma_of(k) for k in partition.reps}
    order = sorted(partition.reps, key=lambda k: (-thresholds[k], k))
    # vertex_mask -> (weight, mask, exact, proved upper bound)
    cache: dict[int, tuple[float, int, bool, float | None]] = {}
    per_class: dict[int, Column | None] = {}
    for k in order:
        t = thresholds[k]
        vmask = partition.vertex_mask[k]
        pi = {v: duals.pi[v] for v in partition.vertices[k]}
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
            mask, w = mwss_search(graph, vmask, pi, t, early_exit, stats, deadline)
            if w > t + EPS:
                chosen = mask
                cache[vmask] = (w, mask, not early_exit, None)
            else:
                cache[vmask] = (w, mask, not early_exit, t + EPS if early_exit else None)
        if chosen is not None:
            full = extend_to_maximal(chosen, vmask, graph, pi)
            per_class[k] = Column(full, k, inst.weights[k])
        elif k not in per_class:
            per_class[k] = None
    return PricingOutcome(per_class, stats)
