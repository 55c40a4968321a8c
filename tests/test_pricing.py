import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listchroma.core import EPS, Graph, bits, partition_colors
from listchroma.master import Column, DualSolution
from listchroma.pricing import (
    PricingOutcome,
    PricingStats,
    extend_to_maximal,
    heaviest_first,
    mwss_search,
    price_all,
)

from conftest import make_instance, max_stable_weight


def duals_for(inst, pi, gamma=None):
    return DualSolution(tuple(float(x) for x in pi), gamma or {})


def search(graph, vertex_mask, pi, threshold, stats=None):
    """mwss_search in the original vertex ids: renumber as price_all does, search, map back."""
    order, bit, weights, adj = heaviest_first(graph, [pi.get(v, 0.0) for v in range(graph.n)])
    mask, weight = mwss_search(
        adj, sum(bit[v] for v in bits(vertex_mask)), weights, threshold, stats
    )
    return sum(1 << order[i] for i in bits(mask)), weight


class TestPriceAll:
    def test_zero_duals_yield_nothing(self):
        inst = make_instance(3, [(0, 1)], [[0, 1]] * 3, weights={0: 1, 1: 3})
        part = partition_colors(inst)
        out = price_all(inst, part, duals_for(inst, [0, 0, 0]))
        assert all(col is None for col in out.per_class.values())

    def test_pair_of_isolated_vertices_beats_threshold(self):
        inst = make_instance(2, [], [[0], [0]], weights={0: 5})
        part = partition_colors(inst)
        out = price_all(inst, part, duals_for(inst, [3, 4]))
        col = out.per_class[0]
        assert col is not None
        assert col.mask == 0b11
        assert inst.weights[col.class_rep] == 5

    def test_shared_vertex_set_reuses_search(self):
        # four colors live on the same two isolated vertices, their weights
        # differ: thresholds 5, 3 + 2, 2 and 1 against a max stable weight of 4
        inst = make_instance(2, [], [[0, 1, 2, 3]] * 2, weights={0: 5, 1: 3, 2: 2, 3: 1})
        part = partition_colors(inst)
        duals = duals_for(inst, [1, 3], {1: 2.0})
        assert max_stable_weight(inst.graph.adj, 0b11, [1, 3]) == 4
        out = price_all(inst, part, duals)
        assert out.per_class[0] is None          # 4 <= 5, searched
        assert out.per_class[1] is None          # equal threshold: the proof is reused
        assert out.per_class[2].mask == 0b11     # 4 > 2, searched
        assert out.per_class[3].mask == 0b11     # the set found for 2 beats 1 too
        assert out.stats.cache_hits == 2

    def test_early_exit_mode_same_outcome(self):
        # the first set above the threshold decides each class as the exact
        # maximum (4) would
        inst = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 5, 1: 2})
        part = partition_colors(inst)
        assert max_stable_weight(inst.graph.adj, 0b11, [1, 3]) == 4
        out = price_all(inst, part, duals_for(inst, [1, 3]))
        assert out.per_class[0] is None
        assert out.per_class[1] is not None

    def test_columns_listed_in_class_order(self):
        inst = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 1, 1: 2})
        part = partition_colors(inst)
        out = price_all(inst, part, duals_for(inst, [5, 5]))
        cols = out.columns()
        assert [c.class_rep for c in cols] == [0, 1]


class TestMwssSearch:
    def test_clique_takes_single_heaviest(self):
        inst = make_instance(3, [(0, 1), (1, 2), (0, 2)], [[0]] * 3)
        # equal weights: the given numbering is already heaviest first
        mask, weight = mwss_search(inst.graph.adj, 0b111, [1.0, 1.0, 1.0], 0.5)
        assert weight == pytest.approx(1.0)
        assert mask.bit_count() == 1
        assert mwss_search(inst.graph.adj, 0b111, [1.0, 1.0, 1.0], 1.0) == (0, 0.0)

    def test_c5_independence_number(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        g = Graph.from_edges(5, edges)
        mask, weight = mwss_search(g.adj, 0b11111, [1.0] * 5, 1.5)
        assert weight == pytest.approx(2.0)
        assert mask.bit_count() == 2 and all(not g.adj[v] & mask for v in bits(mask))
        assert mwss_search(g.adj, 0b11111, [1.0] * 5, 2.0) == (0, 0.0)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for trial in range(60):
            n = int(rng.integers(2, 16))
            g = Graph.from_edges(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.4
                ],
            )
            pi = {v: float(np.round(rng.random() * 5, 3)) for v in range(n)}
            vmask = 0
            for v in range(n):
                if rng.random() < 0.8:
                    vmask |= 1 << v
            if not vmask:
                continue
            expect = max_stable_weight(g.adj, vmask, [pi.get(v, 0.0) for v in range(n)])
            # pi has 3 decimals, so a set above expect - 5e-4 weighs expect
            mask, weight = search(g, vmask, pi, expect - 5e-4)
            assert mask and not mask & ~vmask
            assert all(not g.adj[v] & mask for v in bits(mask))
            assert weight == pytest.approx(sum(pi[v] for v in bits(mask)))
            assert weight == pytest.approx(expect, abs=1e-9)
            assert search(g, vmask, pi, expect) == (0, 0.0)

    def test_early_exit_returns_sound_violator(self):
        rng = np.random.Generator(np.random.PCG64(23))
        for trial in range(40):
            n = int(rng.integers(3, 12))
            g = Graph.from_edges(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.5
                ],
            )
            pi = {v: float(np.round(rng.random() * 3, 3)) for v in range(n)}
            vmask = (1 << n) - 1
            threshold = float(rng.random() * 4)
            mask, weight = search(g, vmask, pi, threshold)
            exact = max_stable_weight(g.adj, vmask, [pi[v] for v in range(n)])
            if mask:
                assert weight > threshold + EPS
                assert weight == pytest.approx(
                    sum(pi[v] for v in range(n) if mask >> v & 1)
                )
                for v in range(n):
                    if mask >> v & 1:
                        assert not g.adj[v] & mask
            else:
                assert exact <= threshold + EPS


def recursive_mwss_search(graph, vertex_mask, pi, threshold, stats):
    """The recursive form of mwss_search, kept as the reference for its order."""
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
    found = False

    def dfs(cand, cur_w, cur_mask, rem):
        nonlocal best_w, best_mask, found
        stats.nodes += 1
        if cur_w + rem <= threshold + EPS:
            return
        if not cand:
            return
        i = (cand & -cand).bit_length() - 1
        bit = 1 << i
        w2 = cur_w + pl[i]
        m2 = cur_mask | bit
        if w2 > threshold + EPS:
            best_w, best_mask, found = w2, m2, True
            return
        removed = cand & (ladj[i] | bit)
        rem2 = rem
        rm = removed
        while rm:
            low = rm & -rm
            rem2 -= pl[low.bit_length() - 1]
            rm ^= low
        dfs(cand & ~removed, w2, m2, rem2)
        if found:
            return
        dfs(cand ^ bit, cur_w, cur_mask, rem - pl[i])

    if order:
        dfs((1 << len(order)) - 1, 0.0, 0, sum(pl))
    global_mask = 0
    for i in bits(best_mask):
        global_mask |= 1 << order[i]
    return global_mask, best_w


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_search_order_matches_recursive_reference(data):
    # Columns steer the duals and so the tree: the explicit stack over the
    # renumbered graph must visit exactly the nodes of the recursion over the
    # class's own sorted vertices, in the same order.
    n = data.draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if data.draw(st.booleans())])
    # few distinct values, so ties in pi decide the order too
    pi = {v: data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.125])) for v in range(n)}
    vmask = data.draw(st.integers(1, (1 << n) - 1))
    threshold = data.draw(st.floats(0.0, 20.0))
    got_stats, ref_stats = PricingStats(), PricingStats()
    got = search(g, vmask, pi, threshold, got_stats)
    ref = recursive_mwss_search(g, vmask, pi, threshold, ref_stats)
    assert got == ref
    assert got_stats.nodes == ref_stats.nodes


def per_class_extend_to_maximal(mask, vertex_mask, graph, pi):
    """extend_to_maximal in the original vertex ids, kept as the reference."""
    closed = mask
    for v in bits(mask):
        closed |= graph.adj[v]
    cand = vertex_mask & ~closed
    while cand:
        v = min(bits(cand), key=lambda x: (-pi.get(x, 0.0), x))
        mask |= 1 << v
        cand &= ~(graph.adj[v] | 1 << v)
    return mask


def per_class_price_all(inst, partition, duals):
    """price_all with each class's search sorting its own vertices, kept as the reference."""
    stats = PricingStats()
    graph = inst.graph
    thresholds = {k: inst.weights[k] + duals.gamma_of(k) for k in partition.reps}
    order = sorted(partition.reps, key=lambda k: (-thresholds[k], k))
    cache = {}
    per_class = {}
    for k in order:
        t = thresholds[k]
        vmask = partition.vertex_mask[k]
        pi = {v: duals.pi[v] for v in partition.vertices[k]}
        chosen = None
        entry = cache.get(vmask)
        resolved = False
        if entry is not None:
            w, mask, proved = entry
            if mask and w > t + EPS:
                chosen = mask
                resolved = True
                stats.cache_hits += 1
            elif proved is not None and proved <= t + EPS:
                per_class[k] = None
                resolved = True
                stats.cache_hits += 1
        if not resolved:
            mask, w = recursive_mwss_search(graph, vmask, pi, t, stats)
            if w > t + EPS:
                chosen = mask
                cache[vmask] = (w, mask, None)
            else:
                cache[vmask] = (w, mask, t + EPS)
        if chosen is not None:
            full = per_class_extend_to_maximal(chosen, vmask, graph, pi)
            per_class[k] = Column(full, k)
        elif k not in per_class:
            per_class[k] = None
    return PricingOutcome(per_class, stats)


def draw_priced_instance(data, pi_values):
    """An instance with 1-8 classes, twins among them, and duals with tied pi and random gamma."""
    n = data.draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if data.draw(st.booleans())]
    members = [data.draw(st.integers(1, (1 << n) - 1)) for _ in range(data.draw(st.integers(1, 4)))]
    for v in range(n):
        if not any(m >> v & 1 for m in members):
            members[0] |= 1 << v  # no vertex without a color
    # a twin shares its color's vertex set; a different weight makes it a separate class
    members += [m for m in members if data.draw(st.booleans())]
    weights = {j: data.draw(st.sampled_from([1, 2, 3, 5])) for j in range(len(members))}
    lists = [[j for j, m in enumerate(members) if m >> v & 1] for v in range(n)]
    inst = make_instance(n, edges, lists, weights=weights)
    part = partition_colors(inst)
    # few distinct values, so ties in pi decide the order too
    pi = [data.draw(st.sampled_from(pi_values)) for _ in range(n)]
    gamma = {k: data.draw(st.sampled_from([0.0, 0.5, 1.0, 1.25])) for k in part.reps}
    return inst, part, duals_for(inst, pi, gamma)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_price_all_matches_per_class_reference(data):
    # One heaviest-first numbering per round must reproduce every class's
    # own sort: the same columns, search nodes and cache decisions.
    inst, part, duals = draw_priced_instance(data, [0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
    got = price_all(inst, part, duals)
    ref = per_class_price_all(inst, part, duals)
    assert got.per_class == ref.per_class
    assert (got.stats.nodes, got.stats.cache_hits) == (ref.stats.nodes, ref.stats.cache_hits)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fruitless_round_certifies_every_class(data):
    # The solver ends column generation at the first round without a column,
    # so a class left without one must have no stable set above its
    # threshold, cache hits included; a column must beat its threshold.
    inst, part, duals = draw_priced_instance(data, [0.0, 0.1, 1 / 3, 0.5, 1.0, 1.5, 2.5])
    out = price_all(inst, part, duals)
    for k in part.reps:
        threshold = inst.weights[k] + duals.gamma_of(k)
        col = out.per_class[k]
        if col is None:
            best = max_stable_weight(inst.graph.adj, part.vertex_mask[k], duals.pi)
            assert best <= threshold + EPS
        else:
            assert not col.mask & ~part.vertex_mask[k]
            assert all(not inst.graph.adj[v] & col.mask for v in col.vertices())
            assert sum(duals.pi[v] for v in col.vertices()) > threshold + EPS


@pytest.mark.parametrize("found", [True, False])
def test_deep_search_within_default_recursion_limit(found):
    n = 1500
    assert n > sys.getrecursionlimit()
    stats = PricingStats()
    if found:
        # edgeless; only the whole vertex set beats the threshold, so the
        # include path is n deep
        mask, weight = mwss_search([0] * n, (1 << n) - 1, [1.0] * n, n - 0.5, stats)
        assert mask == (1 << n) - 1
        assert weight == n
        assert mwss_search([0] * n, (1 << n) - 1, [1.0] * n, n) == (0, 0.0)
    else:
        # one edge between the last two vertices: the bound stays n until the
        # include path reaches it n - 1 deep, where the set weighs only the
        # threshold n - 1, so the search proves there is nothing above it
        adj = [0] * n
        adj[n - 2], adj[n - 1] = 1 << (n - 1), 1 << (n - 2)
        assert mwss_search(adj, (1 << n) - 1, [1.0] * n, n - 1, stats) == (0, 0.0)
    assert stats.nodes >= n - 1


class TestExtendToMaximal:
    def test_fills_edgeless_graph(self):
        g = Graph.from_edges(3, [])
        assert extend_to_maximal(0b001, 0b111, g.adj) == 0b111

    def test_maximal_input_unchanged(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert extend_to_maximal(0b101, 0b111, g.adj) == 0b101

    def test_path_endpoint_gets_other_end(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert extend_to_maximal(0b001, 0b111, g.adj) == 0b101

    def test_respects_class_vertices(self):
        g = Graph.from_edges(3, [])
        assert extend_to_maximal(0b001, 0b011, g.adj) == 0b011


class TestReuseCorrectness:
    def test_cached_equals_fresh(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(30):
            n = int(rng.integers(2, 9))
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            # two colors on identical vertex sets, distinct weights
            inst = make_instance(
                n, edges, [[0, 1] for _ in range(n)], weights={0: 2, 1: 5}
            )
            part = partition_colors(inst)
            pi = [float(np.round(rng.random() * 4, 3)) for _ in range(n)]
            out = price_all(inst, part, duals_for(inst, pi))
            exact = max_stable_weight(inst.graph.adj, (1 << n) - 1, pi)
            for k in part.reps:
                threshold = inst.weights[k]
                col = out.per_class[k]
                if exact > threshold + EPS:
                    assert col is not None
                    got = sum(pi[v] for v in col.vertices())
                    assert got > threshold + EPS
                    # maximal in G^k: no outside vertex extends it
                    outside = part.vertex_mask[k] & ~col.mask
                    for v in range(n):
                        if outside >> v & 1:
                            assert inst.graph.adj[v] & col.mask
                else:
                    assert col is None
