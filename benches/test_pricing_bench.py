"""Microbench of one pricing round at the root of a dense-pricing instance.

Run with `python -m pytest benches --benchmark-only`; the tier-1 suite
(testpaths = tests) does not collect this directory.
"""

import pytest

from listchroma.core import partition_colors, preprocess_singletons, root_state
from listchroma.instgen import GenConfig, generate
from listchroma.master import add_columns, init_with_dummies, solve_lp
from listchroma.pricing import price_all


@pytest.fixture(scope="module")
def root_duals():
    """The root node's final duals, reached by the solver's own pricing loop."""
    inst = generate(GenConfig(n=60, p=0.75, c=1.5, q=0.5, seed=7000))
    state = preprocess_singletons(root_state(inst))
    node = state.instance
    partition = partition_colors(node)
    mp = init_with_dummies(state, partition)
    while True:
        res = solve_lp(mp)
        cols = price_all(node, partition, res.duals, True).columns()
        cols = cols or price_all(node, partition, res.duals, False).columns()
        if not cols:
            return node, partition, res.duals
        add_columns(mp, cols)


@pytest.mark.parametrize("early_exit", [True, False])
def test_price_all_at_root(benchmark, root_duals, early_exit):
    node, partition, duals = root_duals
    outcome = benchmark(price_all, node, partition, duals, early_exit)
    # the duals are LP-optimal, so no class prices out
    assert outcome.columns() == []
    assert len(outcome.per_class) == len(partition.reps)
