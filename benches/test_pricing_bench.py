"""Microbenches at the root of a dense-pricing instance: one pricing round,
its heaviest-first relabelling, and one master LP solve; one pricing round
at the root of a sparse n=70 instance, on the other side of
pricing.SHARED_SEARCH_DENSITY; and a whole solve of a one-class (graph
coloring) instance, whose rounds take up to pricing.ONE_CLASS_SETS columns.
"""

import pytest

from listchroma.bnp import INFEASIBLE, OPTIMAL, SolveReport, price_out, solve
from listchroma.core import Deadline, partition_colors, preprocess_singletons, root_state
from listchroma.instgen import GenConfig, generate
from listchroma.master import add_columns, init_with_dummies, solve_lp
from listchroma.pricing import SHARED_SEARCH_DENSITY, heaviest_first, price_all


def reach_root(cfg):
    """The root node, its final columns and duals, reached by bnp.price_out."""
    state = preprocess_singletons(root_state(generate(cfg)))
    partition = partition_colors(state.instance)
    mp = init_with_dummies(state, partition)
    res = price_out(mp, SolveReport(INFEASIBLE), Deadline(None))
    return state, partition, [col for col in mp.columns if not col.is_dummy], res


@pytest.fixture(scope="module")
def root():
    # node graph density about 0.75: all classes share one search
    return reach_root(GenConfig(n=60, p=0.75, c=1.5, q=0.5, seed=7000))


@pytest.fixture(scope="module")
def sparse_root():
    # node graph density about 0.25: each vertex set has its own search
    return reach_root(GenConfig(n=70, p=0.25, c=1.0, q=0.5, seed=7000))


def assert_priced_out(outcome, partition):
    # the duals are LP-optimal, so no class prices out
    assert outcome.columns() == []
    assert len(outcome.per_class) == len(partition.reps)


def is_dense(node):
    n = node.n
    return 2 * node.graph.m >= SHARED_SEARCH_DENSITY * n * (n - 1)


def test_price_all_at_root(benchmark, root):
    state, partition, _, res = root
    assert is_dense(state.instance)
    assert_priced_out(benchmark(price_all, state.instance, partition, res.duals), partition)


def test_price_all_at_sparse_root(benchmark, sparse_root):
    state, partition, _, res = sparse_root
    assert not is_dense(state.instance)
    assert_priced_out(benchmark(price_all, state.instance, partition, res.duals), partition)


def test_heaviest_first_at_root(benchmark, root):
    # as within one node's rounds, only the first call builds the graph's neighbor lists
    state, _, _, res = root
    order, _, weights, adj = benchmark(heaviest_first, state.instance.graph, res.duals.pi)
    assert weights == sorted(weights, reverse=True)
    assert len(order) == len(adj) == state.instance.n


def test_solve_lp_cold_at_root(benchmark, root):
    # one solve of a fresh model holding the root's final pool
    state, partition, cols, res = root

    def fresh_master():
        mp = init_with_dummies(state, partition)
        add_columns(mp, cols)
        return (mp,), {}

    got = benchmark.pedantic(solve_lp, setup=fresh_master, rounds=20)
    assert got.objective == pytest.approx(res.objective)


def test_solve_one_class_root(benchmark):
    # q = 1: every color is in one class; this seed is settled at the root
    inst = generate(GenConfig(n=50, p=0.5, c=1.0, q=1.0, seed=7001))
    report = benchmark(solve, inst)
    assert (report.status, report.weight) == (OPTIMAL, 9)
