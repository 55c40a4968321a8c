"""Microbenches at the root of a dense-pricing instance: one certifying and
one improving pricing round, its heaviest-first relabelling, and one master
LP solve; one pricing round at the root of a sparse n=70 instance, on the
other side of pricing.SHARED_SEARCH_DENSITY; and a whole solve of a
one-class (graph coloring) instance, whose rounds take up to
pricing.ONE_CLASS_SETS columns.
"""

from unittest.mock import patch

import pytest

from listchroma import bnp
from listchroma.bnp import INFEASIBLE, OPTIMAL, SolveReport, open_node, price_out, solve
from listchroma.core import Deadline, root_state
from listchroma.instgen import GenConfig, generate
from listchroma.master import MasterProblem, new_model, solve_lp
from listchroma.pricing import SHARED_SEARCH_DENSITY, heaviest_first, price_all


DENSE = GenConfig(n=60, p=0.75, c=1.5, q=0.5, seed=7000)
# the LP of price_out at the dense root whose duals test_price_all_improving_at_root prices
EARLY_LP = 4


def reach_root(cfg):
    """The root node holding its final columns, and its LP optimum, reached by bnp.price_out."""
    root = open_node(root_state(generate(cfg)))
    mp = MasterProblem(*root, new_model())
    res = price_out(mp, SolveReport(INFEASIBLE), Deadline(None))
    return root._replace(pool=mp.columns), res


@pytest.fixture(scope="module")
def root():
    # node graph density about 0.75: all classes share one search
    return reach_root(DENSE)


@pytest.fixture(scope="module")
def early_root():
    """The dense root, and the LP optimum numbered EARLY_LP (from 0) that price_out solves there."""
    root = open_node(root_state(generate(DENSE)))
    lps = []

    def recording(mp):
        lps.append(solve_lp(mp))
        return lps[-1]

    with patch.object(bnp, "solve_lp", recording):
        price_out(MasterProblem(*root, new_model()), SolveReport(INFEASIBLE), Deadline(None))
    return root, lps[EARLY_LP]


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
    (state, partition, _), res = root
    assert is_dense(state.instance)
    assert_priced_out(benchmark(price_all, state.instance, partition, res.duals), partition)


def test_price_all_improving_at_root(benchmark, early_root):
    # the fifth of the root's eleven LPs: 89 of the 90 classes price a
    # column, so the round also extends and maps back a set per class
    (state, partition, _), res = early_root
    outcome = benchmark(price_all, state.instance, partition, res.duals)
    assert len(outcome.columns()) > 0.9 * len(partition.reps)


def test_price_all_at_sparse_root(benchmark, sparse_root):
    (state, partition, _), res = sparse_root
    assert not is_dense(state.instance)
    assert_priced_out(benchmark(price_all, state.instance, partition, res.duals), partition)


def test_heaviest_first_at_root(benchmark, root):
    # as within one node's rounds, only the first call builds the graph's neighbor lists
    (state, _, _), res = root
    order, _, weights, adj = benchmark(heaviest_first, state.instance.graph, res.duals.pi)
    assert weights == sorted(weights, reverse=True)
    assert len(order) == len(adj) == state.instance.n


def test_solve_lp_cold_at_root(benchmark, root):
    # one solve of a fresh model holding the root's final pool, the root re-opened
    node, res = root
    got = benchmark.pedantic(solve_lp, setup=lambda: ((MasterProblem(*node, new_model()),), {}), rounds=20)
    assert got.objective == pytest.approx(res.objective)


def test_solve_one_class_root(benchmark):
    # q = 1: every color is in one class; this seed is settled at the root
    inst = generate(GenConfig(n=50, p=0.5, c=1.0, q=1.0, seed=7001))
    report = benchmark(solve, inst)
    assert (report.status, report.weight) == (OPTIMAL, 9)
