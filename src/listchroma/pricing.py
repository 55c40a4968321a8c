"""Column pricing: one search per group of classes for stable sets above their thresholds.

A class k yields an entering column iff some stable set of G^k has pi-weight
strictly above the threshold w_k + gamma_k. Each round numbers the node graph
once, heaviest pi first, and searches stable sets in that numbering, include
first, stopping for each class at the first set above its threshold. A node
with a single class is the exception: its search goes on to up to
ONE_CLASS_SETS sets, so that one LP re-solve gains several columns.

Classes whose searches would repeat each other share one search: on a node
graph of edge density at least SHARED_SEARCH_DENSITY all classes of the round
form one group, on a sparser one the classes of each vertex set do. A shared
search hands every class the set its own search would find, because both
visit the stable sets of V_k in the same order and prune only subtrees that
hold no set above the threshold of any class still open.

A shared search reads which of its classes hold a vertex from a membership
table. The node's ColorPartition lists each vertex's classes once
(classes_of); each round relabels those lists into the search's numbering
and the group's class order with map and sum, no loop over single bits. The
search keeps the weight still selectable, rem, from the smaller side of each
include step: it subtracts the removed candidates' weights when fewer are
removed than kept, else it sums the kept ones.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .core import EPS, ColorPartition, Deadline, Graph, Instance, bits
from .master import Column, DualSolution

# Edge density 2m / (n (n - 1)) of the node graph from which all classes of a
# round share one search. Below it the union of the vertex sets bounds a class
# too loosely, and only classes on one vertex set share a search.
SHARED_SEARCH_DENSITY = 0.4

# Sets a round asks of the search when the node has a single class, as on
# graph coloring instances (q = 1). One column per round starves the master
# there: every LP re-solve gains one column. On the ten n=50 p=0.5 c=1 q=1
# seeds 0-4 and 7000-7004, limits of 1/5/10/20/50 took 4.76/1.20/1.05/2.20/
# 1.90 s in all. Rounds with two or more classes keep one set per class: a
# prototype that gave extra sets to every one-class group changed sparse
# trees, and on n=60 p=0.25 q=0.5 seed 7002 a 767-node solve (41 s) became a
# 60 s time-out.
ONE_CLASS_SETS = 10


@dataclass
class PricingStats:
    nodes: int = 0
    # classes priced by a search they shared with an earlier class of their
    # group, the sum of (group size - 1); perfbench/spans.py reads it
    cache_hits: int = 0


@dataclass(frozen=True)
class PricingOutcome:
    per_class: dict[int, Column | None]
    stats: PricingStats
    # the later columns of a one-class round, in search order
    extra: tuple[Column, ...] = ()

    def columns(self) -> list[Column]:
        """The per-class columns in class order, then the extra ones."""
        cols = [col for _, col in sorted(self.per_class.items()) if col is not None]
        return cols + list(self.extra)


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
    vertex_masks: Sequence[int],
    weights: Sequence[float],
    thresholds: Sequence[float],
    stats: PricingStats | None = None,
    deadline: Deadline = Deadline(None),
    limit: int = 1,
    member: Sequence[int] | None = None,
) -> list[int]:
    """Branch and bound for stable sets heavier than the thresholds of a group of classes.

    Class c lives on vertex_masks[c] of the graph adj, numbered as
    heaviest_first does, so branching in index order (include first) branches
    in decreasing weight; thresholds are in ascending order. Returns for each
    class the mask of the first stable set of its vertices found above
    threshold + EPS, or 0 when the search proves that none exists.

    A group of one class may ask for up to limit sets. After a set crosses
    the threshold the search follows the exclude branch of its last vertex
    and goes on in the same order, so each later set is the first above the
    threshold in a subtree disjoint from the earlier sets'; it stops at limit
    sets or when the search is exhausted. The result is [first, second, ...],
    or [0] without a set; with limit 1 it is the first set alone.

    A group of several classes needs member, its membership table: bit c of
    member[i] is set iff vertex_masks[c] holds i. price_all relabels it from
    the partition's classes_of, so the search builds no table of its own.

    A search node carries open, the bitmask of the unsettled classes whose
    vertex sets hold every chosen vertex; the lowest open class has the
    tightest threshold. A node is pruned when the current weight plus
    everything still selectable cannot exceed that threshold + EPS, and a
    candidate in no open class is dropped when it comes up. A class that a
    set beats takes it and is settled, in every node at once through alive.
    Once a single class is open, its subtree is searched over its own
    vertices only, which is the whole search for a group of one class.
    An include step updates rem, the weight still selectable, from the
    smaller side: it subtracts the weights of the candidates it removes when
    they are fewer than those it keeps, else it sums the kept ones.
    """
    if limit > 1 and len(vertex_masks) > 1:
        raise ValueError(f"only a group of one class takes a limit above 1, got {limit}")
    if member is None and len(vertex_masks) > 1:
        raise ValueError("a group of several classes needs its membership table")
    if stats is None:
        stats = PricingStats()
    nodes = stats.nodes
    found = [0] * len(vertex_masks)
    more: list[int] = []  # the sets after the first, when limit > 1
    alive = (1 << len(vertex_masks)) - 1
    if alive == 1:
        union = vertex_masks[0]
    else:
        # what the search over several open classes needs
        targets = [t + EPS for t in thresholds]
        union = 0
        for vmask in vertex_masks:
            union |= vmask
    rem = sum(w for i, w in enumerate(weights) if union >> i & 1)
    # Each entry is a search node (candidates, weight, mask, weight still
    # selectable, open classes). The include branch is followed in place and
    # the exclude branch pushed, so nodes are visited in the depth-first,
    # include-first order.
    stack = [(union, 0.0, 0, rem, alive)] if union else []
    while stack:
        cand, cur_w, cur_mask, rem, open_ = stack.pop()
        open_ &= alive
        while open_:
            low = open_ & -open_
            if open_ == low:
                # One open class: search its vertices alone, as a group of one would.
                k = low.bit_length() - 1
                target = thresholds[k] + EPS
                if cand & ~vertex_masks[k]:
                    cand &= vertex_masks[k]
                    rem = sum(weights[i] for i in bits(cand))
                sub = [(cand, cur_w, cur_mask, rem)]
                while sub:
                    cand, cur_w, cur_mask, rem = sub.pop()
                    while True:
                        nodes += 1
                        if nodes % 1000 == 0:
                            deadline.check()
                        if cur_w + rem <= target or not cand:
                            break
                        i = (cand & -cand).bit_length() - 1
                        bit = 1 << i
                        w2 = cur_w + weights[i]
                        if w2 > target:
                            if found[k]:
                                more.append(cur_mask | bit)
                            else:
                                found[k] = cur_mask | bit
                            if len(more) + 1 == limit:
                                alive ^= low
                                sub.clear()
                                break
                            # follow the exclude branch in place
                            cand ^= bit
                            rem -= weights[i]
                            continue
                        sub.append((cand ^ bit, cur_w, cur_mask, rem - weights[i]))
                        removed = cand & (adj[i] | bit)
                        cand ^= removed
                        if removed.bit_count() < cand.bit_count():
                            while removed:
                                lowrm = removed & -removed
                                rem -= weights[lowrm.bit_length() - 1]
                                removed ^= lowrm
                        else:
                            rem, kept = 0.0, cand
                            while kept:
                                lowrm = kept & -kept
                                rem += weights[lowrm.bit_length() - 1]
                                kept ^= lowrm
                        cur_w, cur_mask = w2, cur_mask | bit
                break
            nodes += 1
            if nodes % 1000 == 0:
                deadline.check()
            if cur_w + rem <= targets[low.bit_length() - 1] or not cand:
                break
            i = (cand & -cand).bit_length() - 1
            bit = 1 << i
            inc = open_ & member[i]
            if inc:
                w2 = cur_w + weights[i]
                while inc:
                    c = inc & -inc
                    if w2 <= targets[c.bit_length() - 1]:
                        break
                    found[c.bit_length() - 1] = cur_mask | bit
                    alive ^= c
                    inc ^= c
            if not inc:
                # no open class can take i, or every one that could is settled
                cand ^= bit
                rem -= weights[i]
                open_ &= alive
                continue
            stack.append((cand ^ bit, cur_w, cur_mask, rem - weights[i], open_))
            removed = cand & (adj[i] | bit)
            cand ^= removed
            if removed.bit_count() < cand.bit_count():
                while removed:
                    lowrm = removed & -removed
                    rem -= weights[lowrm.bit_length() - 1]
                    removed ^= lowrm
            else:
                rem, kept = 0.0, cand
                while kept:
                    lowrm = kept & -kept
                    rem += weights[lowrm.bit_length() - 1]
                    kept ^= lowrm
            cur_w, cur_mask, open_ = w2, cur_mask | bit, inc
    stats.nodes = nodes
    return found + more


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
    deadline: Deadline = Deadline(None),
) -> PricingOutcome:
    """Search every class for a column with positive reduced cost.

    Returns at most one column per class, each extended to a maximal stable
    set. The classes are searched in groups, one mwss_search call per group:
    all of them together on a node graph of edge density at least
    SHARED_SEARCH_DENSITY, else those of each vertex set together. A node
    with a single class also gets up to ONE_CLASS_SETS - 1 extra columns, the
    later sets of its search, each extended to a maximal set and kept unless
    an earlier column of the round equals it.
    """
    stats = PricingStats()
    order, bit, weights, adj = heaviest_first(inst.graph, duals.pi)
    thresholds = {k: inst.weights[k] + duals.gamma_of(k) for k in partition.reps}
    classes = sorted(partition.reps, key=lambda k: (thresholds[k], k))
    # distinct bits, so their sum is their OR
    vmask = {k: sum(map(bit.__getitem__, partition.vertices[k])) for k in classes}
    n = inst.n
    if 2 * inst.graph.m >= SHARED_SEARCH_DENSITY * n * (n - 1):
        groups = [classes]
    else:
        by_set: dict[int, list[int]] = {}
        for k in classes:
            by_set.setdefault(vmask[k], []).append(k)
        groups = list(by_set.values())
    limit = ONE_CLASS_SETS if len(classes) == 1 else 1
    node_bit = [1 << v for v in order]  # node_bit[i]: the node vertex of search index i

    def column(mask: int, k: int) -> Column:
        full = extend_to_maximal(mask, vmask[k], adj)
        return Column(sum(map(node_bit.__getitem__, bits(full))), k)

    def membership(group: list[int]) -> list[int]:
        # per search index, the bits of the group's classes whose vertex set holds it
        class_bit = dict.fromkeys(partition.reps, 0)
        class_bit.update({k: 1 << c for c, k in enumerate(group)})
        get = class_bit.__getitem__
        classes_of = partition.classes_of
        return [sum(map(get, classes_of[v])) for v in order]

    per_class: dict[int, Column | None] = {}
    extra: list[Column] = []
    for group in groups:
        stats.cache_hits += len(group) - 1
        found = mwss_search(
            adj,
            [vmask[k] for k in group],
            weights,
            [thresholds[k] for k in group],
            stats,
            deadline,
            limit=limit,
            member=membership(group) if len(group) > 1 else None,
        )
        for k, mask in zip(group, found):
            per_class[k] = column(mask, k) if mask else None
        # sets beyond one per class: the later ones of a one-class search
        for mask in found[len(group):]:
            col = column(mask, group[0])
            if col != per_class[group[0]] and col not in extra:
                extra.append(col)
    return PricingOutcome(per_class, stats, tuple(extra))
