import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from listchroma.core import EPS, Deadline, Graph, SearchTimeout, bits, partition_colors
from listchroma.master import Column, DualSolution
from listchroma.pricing import (
    ONE_CLASS_SETS,
    SHARED_SEARCH_DENSITY,
    PricingOutcome,
    PricingStats,
    extend_to_maximal,
    heaviest_first,
    mwss_search,
    price_all,
)

from helpers import make_instance, max_stable_weight


def duals_for(inst, pi, gamma=None):
    return DualSolution(tuple(float(x) for x in pi), gamma or {})


def search_sets(graph, vertex_mask, pi, threshold, stats=None, limit=1):
    """A one-class mwss_search in the original vertex ids: renumber as price_all
    does, search, map back. Returns the (mask, weight) of each set found."""
    order, bit, weights, adj = heaviest_first(graph, [pi.get(v, 0.0) for v in range(graph.n)])
    masks = mwss_search(
        adj, [sum(bit[v] for v in bits(vertex_mask))], weights, [threshold], stats, limit=limit
    )
    # weights summed in index order, as the search adds a set up
    return [
        (sum(1 << order[i] for i in bits(mask)), sum(weights[i] for i in bits(mask)))
        for mask in masks
        if mask
    ]


def search(graph, vertex_mask, pi, threshold, stats=None):
    """The first set of search_sets, (0, 0) when nothing is found."""
    return (search_sets(graph, vertex_mask, pi, threshold, stats) or [(0, 0)])[0]


def is_dense(graph):
    """Whether price_all searches all classes of this node graph together."""
    return 2 * graph.m >= SHARED_SEARCH_DENSITY * graph.n * (graph.n - 1)


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
        assert out.per_class[0] is None          # 4 <= 5
        assert out.per_class[1] is None          # 4 <= 5
        assert out.per_class[2].mask == 0b11     # {1} weighs 3 > 2, grown to maximal
        assert out.per_class[3].mask == 0b11     # {1} weighs 3 > 1 too
        # an edgeless graph is sparse, so the classes of each vertex set share
        # a search: here all four, in one
        assert not is_dense(inst.graph)
        assert out.stats.cache_hits == 3

    @pytest.mark.parametrize("edges, searches", [(4, 1), (3, 2)])
    def test_density_cut_decides_the_groups(self, edges, searches):
        # five vertices: four edges are a density of exactly 0.4, where one
        # search serves both classes; three edges (0.3) give each vertex set
        # its own search
        path = [(0, 1), (1, 2), (2, 3), (3, 4)][:edges]
        inst = make_instance(5, path, [[0], [0], [0, 1], [1], [1]])
        part = partition_colors(inst)
        out = price_all(inst, part, duals_for(inst, [1.0] * 5))
        assert out.stats.cache_hits == len(part.reps) - searches == 2 - searches

    def test_first_set_above_threshold_decides_like_the_maximum(self):
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
        [mask] = mwss_search(inst.graph.adj, [0b111], [1.0, 1.0, 1.0], [0.5])
        assert mask.bit_count() == 1
        assert mwss_search(inst.graph.adj, [0b111], [1.0, 1.0, 1.0], [1.0]) == [0]

    def test_c5_independence_number(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        g = Graph.from_edges(5, edges)
        [mask] = mwss_search(g.adj, [0b11111], [1.0] * 5, [1.5])
        assert mask.bit_count() == 2 and all(not g.adj[v] & mask for v in bits(mask))
        assert mwss_search(g.adj, [0b11111], [1.0] * 5, [2.0]) == [0]

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
            assert search(g, vmask, pi, expect) == (0, 0)

    def test_first_set_found_is_a_sound_violator(self):
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


def recursive_mwss_search(graph, vertex_mask, pi, threshold, stats, limit=1):
    """The recursive form of mwss_search, kept as the reference for its order.

    Returns the (mask, weight) of the first limit sets above threshold + EPS,
    in the original ids. After each set the search goes on in the exclude
    branch of the set's last vertex.
    """
    order = sorted(bits(vertex_mask), key=lambda v: (-pi[v], v))
    loc = {v: i for i, v in enumerate(order)}
    pl = [pi[v] for v in order]
    ladj = []
    for v in order:
        m = 0
        for u in bits(graph.adj[v] & vertex_mask):
            m |= 1 << loc[u]
        ladj.append(m)

    found = []

    def dfs(cand, cur_w, cur_mask, rem):
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
            found.append((m2, w2))
            if len(found) < limit:
                dfs(cand ^ bit, cur_w, cur_mask, rem - pl[i])
            return
        removed = cand & (ladj[i] | bit)
        rem2 = rem
        rm = removed
        while rm:
            low = rm & -rm
            rem2 -= pl[low.bit_length() - 1]
            rm ^= low
        dfs(cand & ~removed, w2, m2, rem2)
        if len(found) == limit:
            return
        dfs(cand ^ bit, cur_w, cur_mask, rem - pl[i])

    if order:
        dfs((1 << len(order)) - 1, 0.0, 0, sum(pl))
    return [(sum(1 << order[i] for i in bits(mask)), w) for mask, w in found]


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
    got = search_sets(g, vmask, pi, threshold, got_stats)
    ref = recursive_mwss_search(g, vmask, pi, threshold, ref_stats)
    assert got == ref
    assert got_stats.nodes == ref_stats.nodes


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_limited_search_matches_recursive_reference(data):
    # With a limit, the search returns the first sets of the recursion that
    # goes on after each set, in its order, visiting the same nodes.
    n = data.draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if data.draw(st.booleans())])
    pi = {v: data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.125])) for v in range(n)}
    vmask = data.draw(st.integers(1, (1 << n) - 1))
    threshold = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0]))
    limit = data.draw(st.integers(1, 12))
    got_stats, ref_stats = PricingStats(), PricingStats()
    got = search_sets(g, vmask, pi, threshold, got_stats, limit)
    ref = recursive_mwss_search(g, vmask, pi, threshold, ref_stats, limit)
    assert got == ref
    assert got_stats.nodes == ref_stats.nodes
    assert len({mask for mask, _ in got}) == len(got) <= limit
    # each set is stable, inside the vertex set and above the threshold
    for mask, weight in got:
        assert not mask & ~vmask and all(not g.adj[v] & mask for v in bits(mask))
        assert weight > threshold + EPS


def test_limit_above_one_needs_a_group_of_one():
    # each vertex alone beats the threshold; after a set the search drops its
    # last vertex and goes on
    adj = Graph.from_edges(3, []).adj
    assert mwss_search(adj, [0b111], [1.0] * 3, [0.5], limit=5) == [0b001, 0b010, 0b100]
    assert mwss_search(adj, [0b111], [1.0] * 3, [0.5], limit=2) == [0b001, 0b010]
    with pytest.raises(ValueError, match="group of one class"):
        mwss_search(adj, [0b111, 0b011], [1.0] * 3, [0.5, 1.0], limit=2)


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
            sets = recursive_mwss_search(graph, vmask, pi, t, stats)
            mask, w = sets[0] if sets else (0, 0.0)
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


def draw_priced_instance(data, pi_values, max_n=9, dense=None, twins=True):
    """An instance with 1-8 classes and duals with tied pi and random gamma.

    dense picks the side of SHARED_SEARCH_DENSITY the graph lies on (None:
    either); twins lets classes share a vertex set, else no two do.
    """
    n = data.draw(st.integers(2 if dense is False else 1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if dense is None:
        edges = [e for e in pairs if data.draw(st.booleans())]
    else:
        # edge probability 0.7 or 0.2, then keep only graphs on the asked side
        edges = [e for e in pairs if data.draw(st.integers(0, 9)) < (7 if dense else 2)]
    members = [data.draw(st.integers(1, (1 << n) - 1)) for _ in range(data.draw(st.integers(1, 4)))]
    for v in range(n):
        if not any(m >> v & 1 for m in members):
            members[0] |= 1 << v  # no vertex without a color
    if twins:
        # a twin shares its color's vertex set; a different weight makes it a separate class
        members += [m for m in members if data.draw(st.booleans())]
    weights = {j: data.draw(st.sampled_from([1, 2, 3, 5])) for j in range(len(members))}
    lists = [[j for j, m in enumerate(members) if m >> v & 1] for v in range(n)]
    inst = make_instance(n, edges, lists, weights=weights)
    part = partition_colors(inst)
    assume(dense is None or is_dense(inst.graph) == dense)
    assume(twins or len(set(part.vertex_mask.values())) == len(part.reps))
    # few distinct values, so ties in pi decide the order too
    pi = [data.draw(st.sampled_from(pi_values)) for _ in range(n)]
    gamma = {k: data.draw(st.sampled_from([0.0, 0.5, 1.0, 1.25])) for k in part.reps}
    return inst, part, duals_for(inst, pi, gamma)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_price_all_matches_per_class_reference(data):
    # One heaviest-first numbering per round must reproduce every class's
    # own sort. The reference reuses a set found for a class on the same
    # vertex set with a higher threshold, where a shared search finds the
    # class's own first set; both find a column for the same classes.
    inst, part, duals = draw_priced_instance(data, [0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
    got = price_all(inst, part, duals)
    ref = per_class_price_all(inst, part, duals)
    if len(part.reps) > 1 or not got.columns():
        assert got.extra == ()
    assert got.per_class.keys() == ref.per_class.keys()
    masks = list(part.vertex_mask.values())
    for k, col in got.per_class.items():
        assert (col is None) == (ref.per_class[k] is None)
        if masks.count(part.vertex_mask[k]) == 1:
            assert col == ref.per_class[k]


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_price_all_matches_reference_without_shared_vertex_sets(dense, data):
    # With no two classes on one vertex set, the shared search of a dense
    # node graph and the one search per class of a sparse one both give
    # every class the column of its own search.
    inst, part, duals = draw_priced_instance(
        data, [0.0, 0.25, 0.5, 1.0, 1.5, 2.0], dense=dense, twins=False
    )
    got = price_all(inst, part, duals)
    assert got.per_class == per_class_price_all(inst, part, duals).per_class
    assert got.stats.cache_hits == (len(part.reps) - 1 if dense else 0)


def assert_certified(inst, part, duals, out):
    """A class without a column has no stable set above its threshold; every
    column, extra ones included, beats it. Only a one-class round that found
    a column has extra columns."""
    thresholds = {k: inst.weights[k] + duals.gamma_of(k) for k in part.reps}
    for k in part.reps:
        if out.per_class[k] is None:
            best = max_stable_weight(inst.graph.adj, part.vertex_mask[k], duals.pi)
            assert best <= thresholds[k] + EPS
    if len(part.reps) > 1 or not any(out.per_class.values()):
        assert out.extra == ()
    for col in out.columns():
        k = col.class_rep
        assert not col.mask & ~part.vertex_mask[k]
        assert all(not inst.graph.adj[v] & col.mask for v in col.vertices())
        assert sum(duals.pi[v] for v in col.vertices()) > thresholds[k] + EPS


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fruitless_round_certifies_every_class(data):
    # The solver ends column generation at the first round without a column,
    # so a class left without one must have no stable set above its
    # threshold, classes that shared a search included; a column must beat
    # its threshold.
    inst, part, duals = draw_priced_instance(data, [0.0, 0.1, 1 / 3, 0.5, 1.0, 1.5, 2.5])
    assert_certified(inst, part, duals, price_all(inst, part, duals))


def one_class_reference(inst, part, duals):
    """The columns of a one-class round: the first ONE_CLASS_SETS sets of the
    recursive search, each extended to a maximal set, repeats dropped."""
    [k] = part.reps
    vmask = part.vertex_mask[k]
    pi = {v: duals.pi[v] for v in part.vertices[k]}
    threshold = inst.weights[k] + duals.gamma_of(k)
    cols = []
    sets = recursive_mwss_search(inst.graph, vmask, pi, threshold, PricingStats(), ONE_CLASS_SETS)
    for mask, _ in sets:
        col = Column(per_class_extend_to_maximal(mask, vmask, inst.graph, pi), k)
        if col not in cols:
            cols.append(col)
    return cols


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_class_round_returns_up_to_ten_columns(data):
    # Equal lists and weights, as in graph coloring: one class. Its first
    # column is the one a round of one column per class finds; the later ones
    # come from the same search, each distinct and above the threshold.
    n = data.draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if data.draw(st.booleans())]
    inst = make_instance(n, edges, [list(range(data.draw(st.integers(1, 3))))] * n)
    part = partition_colors(inst)
    [k] = part.reps
    # dyadic duals: every sum is exact, in any order
    pi = [data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])) for _ in range(n)]
    duals = duals_for(inst, pi, {k: data.draw(st.sampled_from([0.0, 0.5, 1.0]))})
    out = price_all(inst, part, duals)
    cols = out.columns()
    assert cols == one_class_reference(inst, part, duals)
    assert len(set(cols)) == len(cols) <= ONE_CLASS_SETS
    assert cols[:1] == [col for col in out.per_class.values() if col is not None]
    assert out.per_class[k] == per_class_price_all(inst, part, duals).per_class[k]
    assert_certified(inst, part, duals, out)


@pytest.mark.parametrize(
    "edges, columns",
    [
        # the ten sets {0, 1}, ..., {0, 10} all grow to the whole vertex set
        ([], [list(range(12))]),
        # a perfect matching: the ten sets {0, 2}, ..., {0, 11}; {0, 2j} grows
        # to the first column, {0, 2j + 1} to one that swaps in 2j + 1
        (
            [(2 * i, 2 * i + 1) for i in range(6)],
            [[0, 2, 4, 6, 8, 10]]
            + [[2 * i + (i == j) for i in range(6)] for j in range(1, 6)],
        ),
    ],
    ids=["edgeless", "matching"],
)
def test_one_class_round_drops_repeated_extensions(edges, columns):
    # unit weights and duals: a set beats the threshold 1 from two vertices on
    n = 12
    inst = make_instance(n, edges, [[0]] * n)
    out = price_all(inst, partition_colors(inst), duals_for(inst, [1.0] * n))
    assert [col.vertices() for col in out.columns()] == columns
    assert len(out.extra) == len(columns) - 1


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_shared_search_certifies_every_class(dense, data):
    # The same brute-force check on up to 10 vertices, on each side of the
    # density cut, with classes on equal vertex sets.
    inst, part, duals = draw_priced_instance(
        data, [0.0, 0.1, 1 / 3, 0.5, 1.0, 1.5, 2.5], max_n=10, dense=dense
    )
    assert_certified(inst, part, duals, price_all(inst, part, duals))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_group_search_matches_one_class_searches(data):
    # A shared search hands each class the set its own search finds, for
    # any vertex sets, equal ones included, and any thresholds.
    n = data.draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    adj = Graph.from_edges(n, [e for e in pairs if data.draw(st.booleans())]).adj
    weights = sorted(
        (data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])) for _ in range(n)),
        reverse=True,
    )
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    masks += [m for m in masks if data.draw(st.booleans())]
    thresholds = sorted(data.draw(st.sampled_from([0.0, 0.5, 1.0, 1.75, 2.5, 4.0])) for _ in masks)
    got = mwss_search(adj, masks, weights, thresholds)
    assert got == [mwss_search(adj, [m], weights, [t])[0] for m, t in zip(masks, thresholds)]


@pytest.mark.parametrize("classes", [1, 3], ids=["one_class_loop", "shared_loop"])
def test_expired_deadline_stops_the_search(classes):
    # Ten disjoint triangles of unit weight: no stable set weighs more than
    # 10, and the bound proves that only after thousands of nodes. Classes on
    # one vertex set never settle here, so three stay open throughout and
    # only the loop over several open classes runs; one class runs only the
    # one-class loop.
    n = 30
    edges = [(3 * t + a, 3 * t + b) for t in range(10) for a, b in ((0, 1), (0, 2), (1, 2))]
    adj = Graph.from_edges(n, edges).adj
    full = (1 << n) - 1
    args = (adj, [full] * classes, [1.0] * n, [10.0] * classes)
    stats = PricingStats()
    assert mwss_search(*args, stats) == [0] * classes
    assert stats.nodes > 1000
    with pytest.raises(SearchTimeout):
        mwss_search(*args, PricingStats(), Deadline(0))


@pytest.mark.parametrize("found", [True, False])
def test_deep_search_within_default_recursion_limit(found):
    n = 1500
    assert n > sys.getrecursionlimit()
    stats = PricingStats()
    if found:
        # edgeless; only the whole vertex set beats the threshold, so the
        # include path is n deep
        assert mwss_search([0] * n, [(1 << n) - 1], [1.0] * n, [n - 0.5], stats) == [(1 << n) - 1]
        assert mwss_search([0] * n, [(1 << n) - 1], [1.0] * n, [n]) == [0]
    else:
        # one edge between the last two vertices: the bound stays n until the
        # include path reaches it n - 1 deep, where the set weighs only the
        # threshold n - 1, so the search proves there is nothing above it
        adj = [0] * n
        adj[n - 2], adj[n - 1] = 1 << (n - 1), 1 << (n - 2)
        assert mwss_search(adj, [(1 << n) - 1], [1.0] * n, [n - 1], stats) == [0]
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
    def test_shared_search_finds_every_violated_class(self):
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
