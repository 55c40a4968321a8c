"""Microbenches at the root of a dense-pricing instance: one pricing round,
its heaviest-first relabelling, and one master LP solve.

Run with `python -m pytest benches --benchmark-only`; the tier-1 suite
(testpaths = tests) does not collect this directory.
"""

import pytest

from listchroma.core import partition_colors, preprocess_singletons, root_state
from listchroma.instgen import GenConfig, generate
from listchroma.master import add_columns, init_with_dummies, solve_lp
from listchroma.pricing import heaviest_first, price_all


@pytest.fixture(scope="module")
def root():
    """The root node, its final columns and duals, reached by the solver's own pricing loop."""
    inst = generate(GenConfig(n=60, p=0.75, c=1.5, q=0.5, seed=7000))
    state = preprocess_singletons(root_state(inst))
    node = state.instance
    partition = partition_colors(node)
    mp = init_with_dummies(state, partition)
    while True:
        res = solve_lp(mp)
        cols = price_all(node, partition, res.duals).columns()
        if not cols:
            real = [col for col in mp.columns if not col.is_dummy]
            return state, partition, real, res
        add_columns(mp, cols)


def test_price_all_at_root(benchmark, root):
    state, partition, _, res = root
    outcome = benchmark(price_all, state.instance, partition, res.duals)
    # the duals are LP-optimal, so no class prices out
    assert outcome.columns() == []
    assert len(outcome.per_class) == len(partition.reps)


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
