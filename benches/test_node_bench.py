"""Microbenches of the node layers outside column generation: singleton
preprocessing, the minimum cost matching that finishes leaves, and the dive
that looks for an incumbent before a node branches.
"""

from math import inf

from listchroma.assignment import min_cost_matching
from listchroma.bnp import INFEASIBLE, SolveReport, price_out
from listchroma.core import (
    Deadline,
    partition_colors,
    preprocess_singletons,
    root_state,
    validate_coloring,
)
from listchroma.instgen import GenConfig, generate
from listchroma.master import dive, init_with_dummies, node_lower_bound


def test_preprocess_singletons_cascade(benchmark):
    # 11 singleton lists whose fixing removes 11 of the 60 vertices
    state = root_state(generate(GenConfig(n=60, p=0.25, c=1.0, q=0.05, seed=7001)))
    out = benchmark(preprocess_singletons, state)
    assert out.instance.n == 49


def test_min_cost_matching_vertices_to_colors(benchmark):
    # each vertex of a dense-pricing instance to a distinct color of its list
    inst = generate(GenConfig(n=60, p=0.75, c=1.5, q=0.5, seed=7000))
    match = benchmark(min_cost_matching, inst.lists, inst.colors, inst.weights)
    assert len(set(match)) == inst.n


def test_dive_at_c7_root(benchmark):
    # c7 seed 7001: root LP 8.92, optimum 10, which the dive finds
    state = preprocess_singletons(root_state(generate(GenConfig(n=50, p=0.5, c=1.0, q=0.5, seed=7001))))
    node = state.instance

    def priced_out_root():
        mp = init_with_dummies(state, partition_colors(node))
        return mp, price_out(mp, SolveReport(INFEASIBLE), Deadline(None))

    mp, res = priced_out_root()
    assert node_lower_bound(res, mp.big_m) == 9
    # the dive changes its model's bounds, so every round gets a fresh root
    coloring = benchmark.pedantic(dive, setup=lambda: ((*priced_out_root(), inf), {}), rounds=5)
    assert validate_coloring(node, coloring) + state.fixed_weight == 10
