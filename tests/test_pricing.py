import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listchroma.core import EPS, Graph, bits, partition_colors
from listchroma.master import DualSolution
from listchroma.pricing import (
    PricingStats,
    extend_to_maximal,
    mwss_search,
    price_all,
)

from conftest import make_instance, max_stable_weight


def duals_for(inst, pi, gamma=None):
    return DualSolution(tuple(float(x) for x in pi), gamma or {})


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
        assert col.cost == 5

    def test_shared_vertex_set_reuses_search(self):
        # colors 0 and 1 live on the same two isolated vertices but their
        # weights differ: thresholds 5 and 2 against a max stable weight of 4
        inst = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 5, 1: 2})
        part = partition_colors(inst)
        duals = duals_for(inst, [1, 3])
        assert max_stable_weight(inst.graph.adj, 0b11, [1, 3]) == 4
        out = price_all(inst, part, duals, early_exit=False)
        assert out.per_class[0] is None          # 4 <= 5
        assert out.per_class[1] is not None      # 4 > 2
        assert out.per_class[1].mask == 0b11
        assert out.stats.cache_hits == 1

    def test_early_exit_mode_same_outcome(self):
        inst = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 5, 1: 2})
        part = partition_colors(inst)
        out = price_all(inst, part, duals_for(inst, [1, 3]), early_exit=True)
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
        mask, weight = mwss_search(
            inst.graph, 0b111, {0: 1.0, 1: 1.0, 2: 1.0}, 10.0, early_exit=False
        )
        assert weight == pytest.approx(1.0)
        assert mask.bit_count() == 1

    def test_c5_independence_number(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        g = Graph.from_edges(5, edges)
        _, weight = mwss_search(g, 0b11111, {v: 1.0 for v in range(5)}, 10.0, early_exit=False)
        assert weight == pytest.approx(2.0)

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
            _, weight = mwss_search(g, vmask, pi, 0.0, early_exit=False)
            expect = max_stable_weight(g.adj, vmask, [pi.get(v, 0.0) for v in range(n)])
            assert weight == pytest.approx(expect, abs=1e-9)

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
            mask, weight = mwss_search(g, vmask, pi, threshold, early_exit=True)
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


def recursive_mwss_search(graph, vertex_mask, pi, threshold, early_exit, stats):
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
        if early_exit:
            if cur_w + rem <= threshold + EPS:
                return
        elif cur_w + rem <= best_w:
            return
        if not cand:
            return
        i = (cand & -cand).bit_length() - 1
        bit = 1 << i
        w2 = cur_w + pl[i]
        m2 = cur_mask | bit
        if early_exit:
            if w2 > threshold + EPS:
                best_w, best_mask, found = w2, m2, True
                return
        elif w2 > best_w:
            best_w, best_mask = w2, m2
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
    # Columns steer the duals and so the tree: the explicit stack must visit
    # exactly the nodes of the recursion, in the same order.
    n = data.draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if data.draw(st.booleans())])
    # few distinct values, so ties in pi decide the order too
    pi = {v: data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.125])) for v in range(n)}
    vmask = data.draw(st.integers(1, (1 << n) - 1))
    threshold = data.draw(st.floats(0.0, 20.0))
    early_exit = data.draw(st.booleans())
    got_stats, ref_stats = PricingStats(), PricingStats()
    got = mwss_search(g, vmask, pi, threshold, early_exit, got_stats)
    ref = recursive_mwss_search(g, vmask, pi, threshold, early_exit, ref_stats)
    assert got == ref
    assert got_stats.nodes == ref_stats.nodes


@pytest.mark.parametrize("early_exit", [True, False])
def test_deep_search_within_default_recursion_limit(early_exit):
    n = 1500
    assert n > sys.getrecursionlimit()
    g = Graph.from_edges(n, [])
    # only the whole vertex set beats the threshold, so the include path is n deep
    mask, weight = mwss_search(g, (1 << n) - 1, {v: 1.0 for v in range(n)}, n - 0.5, early_exit)
    assert mask == (1 << n) - 1
    assert weight == n


class TestExtendToMaximal:
    def test_fills_edgeless_graph(self):
        g = Graph.from_edges(3, [])
        assert extend_to_maximal(0b001, 0b111, g, {v: 0.0 for v in range(3)}) == 0b111

    def test_maximal_input_unchanged(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert extend_to_maximal(0b101, 0b111, g, {v: 1.0 for v in range(3)}) == 0b101

    def test_path_endpoint_gets_other_end(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert extend_to_maximal(0b001, 0b111, g, {v: 1.0 for v in range(3)}) == 0b101

    def test_respects_class_vertices(self):
        g = Graph.from_edges(3, [])
        assert extend_to_maximal(0b001, 0b011, g, {0: 1.0, 1: 1.0}) == 0b011


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
            out = price_all(inst, part, duals_for(inst, pi), early_exit=False)
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
