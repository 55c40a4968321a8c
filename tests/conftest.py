"""Shared fixtures and independent brute-force helpers for the test suite."""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pytest

from listchroma import bnp
from listchroma.core import EPS, Graph, Instance, build_instance


def make_instance(n, edges, lists, weights=None) -> Instance:
    """Shorthand builder; unit weights unless given."""
    colors = sorted({j for lst in lists for j in lst})
    if weights is None:
        weights = {j: 1 for j in colors}
    return build_instance(Graph.from_edges(n, edges), colors, weights, lists)


def enumerate_optimum(inst: Instance) -> int | None:
    """Prune-free full enumeration over the product of lists (tiny n only)."""
    best = None
    adj = inst.graph.adj
    for combo in itertools.product(*[sorted(l) for l in inst.lists]):
        ok = True
        for v in range(inst.n):
            if any(adj[v] >> u & 1 and combo[u] == combo[v] for u in range(v)):
                ok = False
                break
        if ok:
            weight = sum(inst.weights[j] for j in set(combo))
            if best is None or weight < best:
                best = weight
    return best


def stable_sets(adj, vertex_mask: int):
    """Yield every stable subset of vertex_mask (the empty set included)."""
    sub = vertex_mask
    while True:
        ok = True
        m = sub
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & sub:
                ok = False
                break
            m &= m - 1
        if ok:
            yield sub
        if sub == 0:
            break
        sub = (sub - 1) & vertex_mask


def max_stable_weight(adj, vertex_mask: int, pi) -> float:
    """Exhaustive maximum pi-weight over the stable subsets of vertex_mask."""
    best = 0.0
    for sub in stable_sets(adj, vertex_mask):
        w = 0.0
        m = sub
        while m:
            v = (m & -m).bit_length() - 1
            w += pi[v]
            m &= m - 1
        if w > best:
            best = w
    return best


def petersen() -> Instance:
    """Petersen graph with full lists over three unit-weight colors."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, 5 + i))
    return make_instance(10, edges, [[0, 1, 2]] * 10)


def k33_mirrored() -> Instance:
    """Complete bipartite 3+3 with lists {1,2},{1,3},{2,3} on both sides.

    Infeasible: the three left lists have empty common intersection, so the
    left side uses at least two colors, and then one right vertex has both of
    its colors blocked.
    """
    edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    side = [[0, 1], [0, 2], [1, 2]]
    return make_instance(6, edges, side + side)


def random_all_complete(seed: int) -> Instance:
    """Instance where every color subgraph is a clique, by construction."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(2, 11))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    g = Graph.from_edges(n, edges)
    ncolors = n + int(rng.integers(0, 4))
    lists: list[set[int]] = [set() for _ in range(n)]
    for j in range(ncolors):
        # grow a random clique of g and hand color j to its members
        verts = list(rng.permutation(n))
        clique: list[int] = []
        for v in verts:
            if all(g.has_edge(v, u) for u in clique):
                clique.append(v)
            if len(clique) >= int(rng.integers(1, 4)):
                break
        for v in clique:
            lists[v].add(j)
    extra = ncolors
    for v in range(n):
        if not lists[v]:
            lists[v].add(extra)  # private color: a one-vertex clique
            extra += 1
    colors = sorted({j for lst in lists for j in lst})
    weights = {j: int(rng.integers(1, 8)) for j in colors}
    return build_instance(g, colors, weights, [sorted(l) for l in lists])


@dataclass
class SolveEvents:
    """What recorded_events saw of the solves run inside it."""

    # one (node instance, partition, duals) per node whose LP optimum
    # price_out proved: its last pricing round found no column
    certifications: list = field(default_factory=list)
    # one (node instance, LP optimum, node coloring read off it) per LP leaf
    extractions: list = field(default_factory=list)
    # the first pair select_branching_pair returned: the root's
    root_pair: tuple[int, int] | None = None
    # one (parent LP bound, child LP bound) per branched child whose LP was
    # proven, both bounds including the node's fixed weight
    bound_pairs: list = field(default_factory=list)

    def bound_regressions(self) -> list[tuple[float, float]]:
        return [
            (parent, child)
            for parent, child in self.bound_pairs
            if child < parent - EPS * max(1.0, abs(parent))
        ]


@contextmanager
def recorded_events():
    """Observe solves by wrapping bnp's layer names, as perfbench/spans.py does.

    The search is depth first and evaluates one node at a time, so the node
    being evaluated is the one last passed to preprocess_singletons, and its
    proven LP optimum is what price_out returns for it.
    A branched child is keyed by its identity until it is evaluated; the
    entry holds the child, so the identity cannot be reused meanwhile.
    """
    events = SolveEvents()
    node: dict = {}  # the node being evaluated: state, parent bound, bound
    children: dict[int, tuple] = {}  # id(child pre-state) -> (child, parent bound)
    preprocess, price_out = bnp.preprocess_singletons, bnp.price_out
    extract, select = bnp.extract_integer_solution, bnp.select_branching_pair

    def preprocessing(pre_state):
        _, parent_bound = children.pop(id(pre_state), (None, None))
        node.clear()
        node.update(state=preprocess(pre_state), parent_bound=parent_bound)
        return node["state"]

    def pricing_out(mp, report, deadline):
        res = price_out(mp, report, deadline)
        events.certifications.append((mp.instance, mp.partition, res.duals))
        node["bound"] = res.objective + node["state"].fixed_weight
        if node["parent_bound"] is not None:
            events.bound_pairs.append((node["parent_bound"], node["bound"]))
        return res

    def extracting(mp, res):
        coloring = extract(mp, res)
        events.extractions.append((mp.instance, res, coloring))
        return coloring

    def selecting(res):
        pair = select(res)
        if events.root_pair is None:
            events.root_pair = pair
        return pair

    def branching(branch):
        def wrapped(state, u, v):
            child = branch(state, u, v)
            children[id(child)] = (child, node["bound"])
            return child

        return wrapped

    with pytest.MonkeyPatch.context() as m:
        m.setattr(bnp, "preprocess_singletons", preprocessing)
        m.setattr(bnp, "price_out", pricing_out)
        m.setattr(bnp, "extract_integer_solution", extracting)
        m.setattr(bnp, "select_branching_pair", selecting)
        m.setattr(bnp, "branch_same", branching(bnp.branch_same))
        m.setattr(bnp, "branch_differ", branching(bnp.branch_differ))
        yield events
