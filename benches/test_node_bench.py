"""Microbenches of the node layers outside column generation: singleton
preprocessing, the minimum cost matching that finishes leaves, the dive
that looks for an incumbent before a node branches, the translation of a
parent's pool into its child, the build of that child's master, and the
fixed cost of a node's small LP in a whole solve.
"""

from math import inf

from listchroma.assignment import min_cost_matching
from listchroma.bnp import (
    INFEASIBLE,
    OPTIMAL,
    SolveReport,
    dive,
    inherit_columns,
    open_node,
    price_out,
    select_branching_pair,
    solve,
)
from listchroma.core import (
    Deadline,
    branch_same,
    preprocess_singletons,
    root_state,
    validate_coloring,
)
from listchroma.instgen import GenConfig, generate
from listchroma.master import MasterProblem, new_model, node_lower_bound


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
    root = open_node(root_state(generate(GenConfig(n=50, p=0.5, c=1.0, q=0.5, seed=7001))))
    node = root.state.instance

    def priced_out_root():
        mp = MasterProblem(*root, new_model())
        return mp, price_out(mp, SolveReport(INFEASIBLE), Deadline(None))

    mp, res = priced_out_root()
    assert node_lower_bound(mp, res) == 9
    # the dive changes its model's bounds, so every round gets a fresh root
    coloring = benchmark.pedantic(dive, setup=lambda: ((*priced_out_root(), inf), {}), rounds=5)
    assert validate_coloring(node, coloring) + root.state.fixed_weight == 10


def test_inherit_columns_deep_child(benchmark):
    # c7 cell seed 3: the 465 columns of the priced-out root, translated
    # into its SAME child of 49 vertices, which keeps 399 of them
    root = open_node(root_state(generate(GenConfig(n=50, p=0.5, c=1.0, q=0.5, seed=3))))
    mp = MasterProblem(*root, new_model())
    res = price_out(mp, SolveReport(INFEASIBLE), Deadline(None))
    child = open_node(branch_same(root.state, *select_branching_pair(res)))
    kept = benchmark(inherit_columns, mp.columns, root.state.merge_map, child.state, child.partition)
    assert (len(mp.columns), child.state.instance.n, len(kept)) == (465, 49, 399)


def test_master_problem_deep_child(benchmark):
    # the master of that SAME child: its 49 dummies and the 399 inherited
    # columns, built on one lent model as the search builds every master
    root = open_node(root_state(generate(GenConfig(n=50, p=0.5, c=1.0, q=0.5, seed=3))))
    mp = MasterProblem(*root, new_model())
    res = price_out(mp, SolveReport(INFEASIBLE), Deadline(None))
    same = branch_same(root.state, *select_branching_pair(res))
    child = open_node(same, mp.columns, root.state.merge_map)
    lp = new_model()
    benchmark(MasterProblem, *child, lp)
    assert (child.state.instance.n, len(child.pool), lp.getNumCol()) == (49, 399, 448)


def test_grid_solve_of_five_nodes(benchmark):
    # an acceptance-grid instance: five nodes of about 18 LP rows each, so
    # the per-node cost of building and first solving a master dominates
    inst = generate(GenConfig(n=10, p=0.5, c=1.5, q=0.5, seed=20179, weight_range=(1, 10)))
    report = benchmark(solve, inst)
    assert (report.status, report.nodes) == (OPTIMAL, 5)
