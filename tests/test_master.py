import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from listchroma import master
from listchroma.bnp import INFEASIBLE, SolveReport, dive, open_node, price_out, select_branching_pair
from listchroma.core import (
    EPS,
    Deadline,
    branch_differ,
    partition_colors,
    preprocess_singletons,
    root_state,
    validate_coloring,
)
from listchroma.instgen import GenConfig, generate
from listchroma.master import (
    Column,
    DualSolution,
    DuplicateColumnError,
    LPResult,
    MasterProblem,
    NumericalFailure,
    add_columns,
    column_fault,
    extract_integer_solution,
    node_lower_bound,
    solve_lp,
)
from listchroma.pricing import price_all

from helpers import cold_linprog_objective, make_instance, master_for, stable_sets


def brute_force_selection_cost(mp, columns):
    """Cheapest 0/1 selection of pool columns satisfying cover and class capacities."""
    best = None
    part = mp.partition
    n = mp.instance.n
    for picks in itertools.product([0, 1], repeat=len(columns)):
        covered = 0
        used = {}
        cost = 0
        for x, col in zip(picks, columns):
            if not x:
                continue
            covered |= col.mask
            cost += mp.cost(col)
            if col.class_rep in part.bounded:
                used[col.class_rep] = used.get(col.class_rep, 0) + 1
        if covered != (1 << n) - 1:
            continue
        if any(used.get(k, 0) > len(part.class_members[k]) for k in part.bounded):
            continue
        if best is None or cost < best:
            best = cost
    return best


def assert_duals_certify(mp, res):
    """Dual feasibility plus complementary slackness of an optimal LP point."""
    tol = EPS * max(1.0, mp.big_m)
    for col, x in zip(res.columns, res.values):
        gamma = res.duals.gamma_of(col.class_rep)
        reduced = sum(res.duals.pi[v] for v in col.vertices()) - (mp.cost(col) + gamma)
        assert reduced <= tol
        if x > EPS:
            assert abs(reduced) <= tol
    # vertex v's big-M dummy is LP column v of the model, outside the pool
    dummies = mp._lp.getSolution().col_value[: mp.instance.n]
    for v, x in enumerate(dummies):
        assert res.duals.pi[v] <= mp.big_m + tol
        if x > EPS:
            assert abs(res.duals.pi[v] - mp.big_m) <= tol
    # primal feasibility and row-side complementary slackness
    for v in range(mp.instance.n):
        cover = dummies[v] + sum(
            x for col, x in zip(res.columns, res.values) if col.mask >> v & 1
        )
        assert cover >= 1 - EPS
        if cover > 1 + EPS:
            assert res.duals.pi[v] <= tol
    for k in mp.partition.bounded:
        used = sum(
            x
            for col, x in zip(res.columns, res.values)
            if col.class_rep == k
        )
        assert used <= len(mp.partition.class_members[k]) + EPS
        if used < len(mp.partition.class_members[k]) - EPS:
            assert res.duals.gamma_of(k) <= tol


class TestMasterProblem:
    def test_three_vertices_weight_sum_five(self):
        inst = make_instance(
            3, [(0, 1)], [[0, 1]] * 3, weights={0: 2, 1: 3}
        )
        mp = master_for(inst)
        assert mp.big_m == 6
        assert mp.columns == []
        # the three dummies live in the model: cost 6, a unit entry in their own cover row
        lp = mp._lp.getLp()
        assert list(lp.col_cost_) == [6.0] * 3
        assert list(lp.a_matrix_.start_) == [0, 1, 2, 3] and list(lp.a_matrix_.index_) == [0, 1, 2]
        assert list(lp.a_matrix_.value_) == [1.0] * 3
        res = solve_lp(mp)
        assert res.objective == pytest.approx(18.0)
        assert res.values == ()

    def test_single_vertex(self):
        inst = make_instance(1, [], [[0]], weights={0: 4})
        mp = master_for(inst)
        res = solve_lp(mp)
        assert res.objective == pytest.approx(mp.big_m)

    def test_dummy_duals_hit_big_m(self):
        inst = make_instance(2, [], [[0], [0]], weights={0: 3})
        mp = master_for(inst)
        assert mp.big_m == 4
        status = master._highs.HighsBasisStatus
        basis = mp._lp.getBasis()
        assert basis.valid and basis.col_status == [status.kBasic] * 2
        assert basis.row_status == [status.kLower] * 2 + [status.kBasic]
        res = solve_lp(mp)
        # the all-dummy basis is optimal at the root: no presolve, no simplex iteration
        assert mp._lp.getModelPresolveStatus() == master._highs.HighsPresolveStatus.kNotPresolved
        assert mp._lp.getInfo().simplex_iteration_count == 0
        assert res.objective == pytest.approx(8.0)
        assert res.duals.pi == (4.0, 4.0)
        assert res.duals.gamma_of(0) == pytest.approx(0.0)

    def test_refusals_leave_the_lent_model_as_it_was(self):
        inst = make_instance(3, [(0, 1)], [[0, 1]] * 3, weights={0: 2, 1: 3})
        lp = master.new_model()
        mp = MasterProblem(root_state(inst), partition_colors(inst), (), lp)
        objective = solve_lp(mp).objective
        shape = lp.getNumCol(), lp.getNumRow()
        refused = [
            # the one vertex is fixed to its one color: a node with no vertex
            (preprocess_singletons(root_state(make_instance(1, [], [[0]]))), ValueError, "empty instance"),
            (root_state(make_instance(1, [], [[0]], weights={0: 2**53})), NumericalFailure, "big-M"),
        ]
        for state, error, message in refused:
            with pytest.raises(error, match=message):
                MasterProblem(state, partition_colors(state.instance), (), lp)
            assert (lp.getNumCol(), lp.getNumRow()) == shape
            assert solve_lp(mp).objective == objective


class TestSolveLP:
    def test_single_real_column_wins(self):
        inst = make_instance(2, [], [[0], [0]], weights={0: 1})
        mp = master_for(inst)
        add_columns(mp, [Column(0b11, 0)])
        res = solve_lp(mp)
        expected = brute_force_selection_cost(mp, mp.columns)
        assert expected == 1
        assert res.objective == pytest.approx(expected)
        assert res.values == pytest.approx((1.0,))

    def test_singleton_cover_of_triangle(self):
        inst = make_instance(3, [(0, 1), (1, 2), (0, 2)], [[0, 1, 2]] * 3, weights={0: 2, 1: 2, 2: 2})
        mp = master_for(inst)
        add_columns(mp, [Column(1 << v, 0) for v in range(3)])
        res = solve_lp(mp)
        expected = brute_force_selection_cost(mp, mp.columns)
        assert expected == 6
        assert res.objective == pytest.approx(expected)

    def test_pool_dual_feasibility_and_slackness(self):
        inst = make_instance(4, [(0, 1), (1, 2), (2, 3)], [[0, 1]] * 4, weights={0: 2, 1: 5})
        mp = master_for(inst)
        add_columns(
            mp,
            [
                Column(0b0101, 0),
                Column(0b1010, 0),
                Column(0b0101, 1),
                Column(0b1001, 0),
            ],
        )
        assert_duals_certify(mp, solve_lp(mp))

    def test_objective_never_increases_with_columns(self):
        inst = make_instance(3, [(0, 1), (1, 2)], [[0, 1]] * 3, weights={0: 1, 1: 2})
        mp = master_for(inst)
        prev = solve_lp(mp).objective
        for col in [Column(0b101, 0), Column(0b010, 0), Column(0b101, 1)]:
            add_columns(mp, [col])
            cur = solve_lp(mp).objective
            assert cur <= prev + EPS
            prev = cur

    def test_big_m_dominance(self):
        inst = make_instance(2, [(0, 1)], [[0, 1]] * 2, weights={0: 1, 1: 2})
        mp = master_for(inst)
        add_columns(mp, [Column(0b01, 0), Column(0b10, 0), Column(0b01, 1), Column(0b10, 1)])
        res = solve_lp(mp)
        assert res.objective < mp.big_m
        assert all(x <= EPS for x in mp._lp.getSolution().col_value[:2])

    def test_deterministic_given_pool(self):
        inst = make_instance(3, [(0, 1)], [[0, 1]] * 3)
        mp = master_for(inst)
        add_columns(mp, [Column(0b101, 0), Column(0b010, 0)])
        a = solve_lp(mp)
        b = solve_lp(mp)
        assert a == b


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_warm_resolves_match_cold_linprog(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    ncolors = data.draw(st.integers(min_value=1, max_value=4))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if data.draw(st.booleans(), label=f"edge{u},{v}")
    ]
    lists = [
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=ncolors - 1),
                min_size=1,
                max_size=ncolors,
                unique=True,
            ),
            label=f"list{v}",
        )
        for v in range(n)
    ]
    used = sorted({j for lst in lists for j in lst})
    weights = {j: data.draw(st.integers(min_value=0, max_value=6), label=f"w{j}") for j in used}
    inst = make_instance(n, edges, lists, weights=weights)
    mp = master_for(inst)
    part = mp.partition
    pool = [
        Column(mask, k)
        for k in part.reps
        for mask in stable_sets(inst.graph.adj, part.vertex_mask[k])
        if mask
    ]
    pool = data.draw(st.permutations(pool), label="order")
    batches = data.draw(st.integers(min_value=1, max_value=4), label="batches")
    cuts = sorted(
        data.draw(st.integers(min_value=0, max_value=len(pool)), label=f"cut{i}")
        for i in range(batches - 1)
    )
    res = solve_lp(mp)
    for lo, hi in zip([0] + cuts, cuts + [len(pool)]):
        add_columns(mp, pool[lo:hi])
        res = solve_lp(mp)
        assert res.columns == tuple(mp.columns)
        ref = cold_linprog_objective(mp)
        assert res.objective == pytest.approx(ref, rel=1e-9, abs=1e-9)
        assert_duals_certify(mp, res)


class TestAddColumns:
    def test_grows_pool(self):
        inst = make_instance(2, [], [[0], [0, 1]])
        mp = master_for(inst)
        add_columns(mp, [Column(0b11, 0)])
        assert mp.columns == [Column(0b11, 0)]
        assert mp._lp.getNumCol() == 3

    def test_one_column_per_class(self):
        inst = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 1, 1: 2})
        mp = master_for(inst)
        part = partition_colors(inst)
        cols = [Column(0b11, k) for k in part.reps]
        add_columns(mp, cols)
        assert mp.columns == cols and len(cols) == len(part.reps)

    def test_duplicate_rejected(self):
        inst = make_instance(2, [], [[0], [0, 1]])
        mp = master_for(inst)
        add_columns(mp, [Column(0b11, 0)])
        with pytest.raises(DuplicateColumnError):
            add_columns(mp, [Column(0b11, 0)])
        with pytest.raises(DuplicateColumnError):
            add_columns(mp, [Column(0b01, 0), Column(0b01, 0)])
        # a rejected batch leaves the pool and its LP untouched
        assert len(mp.columns) == 1 and mp._lp.getNumCol() == 3
        assert len(solve_lp(mp).values) == 1

    # colors 0 and 1 form the class of representative 0 on V = {0, 1};
    # color 2 lives on {1, 2}; vertices 0 and 1 are adjacent
    @pytest.mark.parametrize(
        "col, message",
        [
            (Column(0, 0), "empty column"),
            (Column(0b001, None), "column class None is not a representative"),
            (Column(0b001, 1), "column class 1 is not a representative"),
            (Column(0b100, 0), "column leaves V_k of class 0"),
            (Column(0b011, 0), "column is not a stable set"),
        ],
        ids=["empty", "dummy", "not_rep", "outside_vk", "unstable"],
    )
    def test_unstable_column_rejected(self, col, message):
        inst = make_instance(3, [(0, 1)], [[0, 1], [0, 1, 2], [2]])
        mp = master_for(inst)
        assert partition_colors(inst).class_members == {0: (0, 1), 2: (2,)}
        assert column_fault(col, inst, mp.partition) == message
        with pytest.raises(ValueError, match=message):
            add_columns(mp, [Column(0b001, 0), col])
        # the valid column in front of it was not appended either
        assert mp.columns == [] and mp._lp.getNumCol() == 3


def fake_result(columns, values, objective=0.0):
    n = max(max(c.vertices()) for c in columns) + 1
    return LPResult(
        objective=objective,
        values=tuple(values),
        columns=tuple(columns),
        duals=DualSolution(tuple([0.0] * n), {}),
    )


class TestIntegralPointIsALeaf:
    def test_integral(self):
        cols = [Column(0b011, 0), Column(0b100, 0), Column(0b001, 0)]
        res = fake_result(cols, [1.0, 1.0, 0.0])
        assert select_branching_pair(res) is None

    def test_fractional_big_set(self):
        cols = [Column(0b011, 0), Column(0b101, 0), Column(0b010, 0)]
        res = fake_result(cols, [0.5, 0.5, 0.5])
        assert select_branching_pair(res) is not None

    def test_singleton_fractional_only(self):
        cols = [Column(0b011, 0), Column(0b100, 0), Column(0b100, 1)]
        res = fake_result(cols, [1.0, 0.5, 0.5])
        assert select_branching_pair(res) is None


class TestExtractIntegerSolution:
    def test_degenerate_singleton_split(self):
        # big column covers {0,1}; vertex 2 splits 0.5/0.5 over two
        # equal-cost singleton columns of distinct classes
        inst = make_instance(
            3, [], [[0, 2], [0], [1, 2]], weights={0: 1, 1: 2, 2: 2}
        )
        mp = master_for(inst)
        add_columns(mp, [Column(0b011, 0), Column(0b100, 1), Column(0b100, 2)])
        res = LPResult(
            objective=3.0,
            values=(1.0, 0.5, 0.5),
            columns=tuple(mp.columns),
            duals=DualSolution((1.0, 0.0, 2.0), {}),
        )
        coloring = extract_integer_solution(mp, res)
        assert coloring[0] == coloring[1] == 0
        assert coloring[2] in (1, 2)
        assert validate_coloring(inst, coloring) == 3
        assert brute_force_selection_cost(mp, mp.columns) == 3

    def test_class_capacity_respected(self):
        # two isolated vertices; class 0 (cost 2) capped at one stable set,
        # class 1 (cost 3) takes the other vertex: optimum 5, fractional LP
        # point 0.5 everywhere has the same value
        inst = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 2, 1: 3})
        mp = master_for(inst)
        assert mp.partition.bounded == frozenset({0, 1})
        cols = [
            Column(0b01, 0),
            Column(0b10, 0),
            Column(0b01, 1),
            Column(0b10, 1),
        ]
        add_columns(mp, cols)
        res = LPResult(
            objective=5.0,
            values=(0.5, 0.5, 0.5, 0.5),
            columns=tuple(mp.columns),
            duals=DualSolution((2.5, 2.5), {0: 0.5}),
        )
        coloring = extract_integer_solution(mp, res)
        assert sorted(coloring.values()) == [0, 1]
        assert validate_coloring(inst, coloring) == 5
        # independent enumeration of every 0/1 selection
        assert brute_force_selection_cost(mp, mp.columns) == 5

    def test_empty_residual_keeps_big_columns(self):
        inst = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 1, 1: 1})
        mp = master_for(inst)
        add_columns(mp, [Column(0b11, 0)])
        res = LPResult(
            objective=1.0,
            values=(1.0,),
            columns=tuple(mp.columns),
            duals=DualSolution((1.0, 0.0), {}),
        )
        assert extract_integer_solution(mp, res) == {0: 0, 1: 0}

    def test_changed_objective_fails(self):
        # the read-off costs 1, but the LP point claims 2
        inst = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 1, 1: 1})
        mp = master_for(inst)
        add_columns(mp, [Column(0b11, 0)])
        res = LPResult(
            objective=2.0,
            values=(1.0,),
            columns=tuple(mp.columns),
            duals=DualSolution((1.0, 1.0), {}),
        )
        with pytest.raises(NumericalFailure, match="extraction changed the objective"):
            extract_integer_solution(mp, res)


def residual_linprog(mp, at_one, residual, singles):
    """The residual LP of a leaf read-off, cold by linprog (the reference).

    Covers every vertex of `residual` by the singleton columns `singles` at
    minimum cost, each bounded class capped at |C^k| minus its columns in
    `at_one`. Returns (objective, values), or None when it is infeasible.
    """
    if not singles:
        return None if residual else (0.0, [])
    part = mp.partition
    bounded = sorted(part.bounded)
    a_ub = np.zeros((len(residual) + len(bounded), len(singles)))
    for j, col in enumerate(singles):
        a_ub[residual.index(col.vertices()[0]), j] = -1.0
        if col.class_rep in part.bounded:
            a_ub[len(residual) + bounded.index(col.class_rep), j] = 1.0
    caps = [
        len(part.class_members[k]) - sum(col.class_rep == k for col in at_one) for k in bounded
    ]
    cost = [mp.cost(col) for col in singles]
    ref = linprog(cost, A_ub=a_ub, b_ub=[-1.0] * len(residual) + caps, bounds=(0, None), method="highs")
    if ref.status == 2:
        return None
    assert ref.status == 0
    return ref.fun, list(ref.x)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_extraction_matches_residual_linprog(data):
    n = data.draw(st.integers(min_value=1, max_value=7), label="n")
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if data.draw(st.booleans(), label=f"edge{u},{v}")
    ]
    # every base color comes in 1-3 copies of equal weight and equal lists,
    # so classes hold several colors and their caps bind
    copies = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="copies")
    groups = [range(sum(copies[:b]), sum(copies[: b + 1])) for b in range(len(copies))]
    base_weight = [data.draw(st.integers(0, 5), label=f"w{b}") for b in range(len(groups))]
    weights = {j: base_weight[b] for b, group in enumerate(groups) for j in group}
    lists = []
    for v in range(n):
        bases = data.draw(
            st.lists(st.integers(0, len(groups) - 1), min_size=1, unique=True),
            label=f"list{v}",
        )
        lists.append([j for b in bases for j in groups[b]])
    inst = make_instance(n, edges, lists, weights=weights)
    mp = master_for(inst)
    part = mp.partition

    # big columns at one: pairwise disjoint and within their class caps
    big = [
        Column(mask, k)
        for k in part.reps
        for mask in stable_sets(inst.graph.adj, part.vertex_mask[k])
        if mask.bit_count() >= 2
    ]
    at_one, covered, used = [], 0, {}
    for col in data.draw(st.permutations(big), label="big order"):
        k = col.class_rep
        if col.mask & covered or used.get(k, 0) == len(part.class_members[k]):
            continue
        if data.draw(st.booleans(), label="at one"):
            at_one.append(col)
            covered |= col.mask
            used[k] = used.get(k, 0) + 1
    singles = [Column(1 << v, k) for k in part.reps for v in part.vertices[k]]
    dropped = data.draw(st.lists(st.sampled_from(singles), unique=True, max_size=3), label="drop")
    add_columns(mp, at_one + [col for col in singles if col not in dropped])

    cols = mp.columns
    residual = [v for v in range(n) if not covered >> v & 1]
    cand = [i for i, col in enumerate(cols) if col.size == 1 and col.mask & ~covered]
    fixed = sum(mp.cost(col) for col in at_one)
    values = [0.0] * len(cols)
    for col in at_one:
        values[cols.index(col)] = 1.0
    # the point is optimal over the pool only; the read-off matches over every list color
    ref = residual_linprog(mp, at_one, residual, [cols[i] for i in cand])
    best = residual_linprog(mp, at_one, residual, [col for col in singles if col.mask & ~covered])
    if ref is None:
        # only the big-M dummies, outside the pool, cover what the singletons cannot
        objective = mp.big_m * len(residual)
    else:
        objective, x = ref
        for i, xi in zip(cand, x):
            values[i] = xi
    res = LPResult(fixed + objective, tuple(values), tuple(cols), DualSolution((0.0,) * n, {}))
    if best is None:
        # no list coloring completes the point
        with pytest.raises(NumericalFailure, match="no matching colors"):
            extract_integer_solution(mp, res)
        return
    if best[0] < objective - 1e-9:
        # a color outside the pool beats the point
        with pytest.raises(NumericalFailure, match="extraction changed the objective"):
            extract_integer_solution(mp, res)
        return
    coloring = extract_integer_solution(mp, res)
    assert validate_coloring(inst, coloring) == pytest.approx(fixed + objective, abs=1e-9)
    for col in at_one:
        assert {part.rep_of[coloring[v]] for v in col.vertices()} == {col.class_rep}


def test_color_without_pool_singleton_beats_point():
    # vertex 2 sits on the pool singleton of color 2 (weight 4), but color 1
    # (weight 2) is on its list too: the point is optimal over the pool only
    inst = make_instance(3, [], [[0], [0], [1, 2]], weights={0: 1, 1: 2, 2: 4})
    mp = master_for(inst)
    add_columns(mp, [Column(0b011, 0), Column(0b100, 2)])
    res = LPResult(
        objective=5.0,
        values=(1.0, 1.0),
        columns=tuple(mp.columns),
        duals=DualSolution((1.0, 0.0, 4.0), {}),
    )
    with pytest.raises(NumericalFailure, match="extraction changed the objective"):
        extract_integer_solution(mp, res)


class TestModelHandOff:
    INST = generate(GenConfig(n=20, p=0.5, c=1.0, q=0.5, seed=3))

    def test_next_master_after_a_dive_starts_primal_from_zero_bounds(self):
        lp = master.new_model()
        root = open_node(root_state(self.INST))
        mp = MasterProblem(*root, lp)
        res = price_out(mp, SolveReport(INFEASIBLE), Deadline(None))
        u, v = select_branching_pair(res)
        dive(mp, res, math.inf)
        assert lp.getOptionValue("simplex_strategy")[1] == master._DUAL_SIMPLEX
        assert max(lp.getLp().col_lower_) == 1.0

        child = open_node(branch_differ(root.state, u, v), mp.columns, root.state.merge_map)
        assert child.pool
        handed = MasterProblem(*child, lp)
        assert lp.getOptionValue("simplex_strategy")[1] == master._PRIMAL_SIMPLEX
        assert lp.getNumCol() == child.state.instance.n + len(handed.columns)
        assert lp.getLp().col_lower_ == [0.0] * lp.getNumCol()
        assert solve_lp(handed) == solve_lp(MasterProblem(*child, master.new_model()))

    def test_masters_on_their_own_models_do_not_interfere(self):
        insts = [generate(GenConfig(n=15, p=0.5, c=1.0, q=0.5, seed=seed)) for seed in (3, 4)]

        def rounds(inst):
            """Every LP optimum of the root's column generation, on a model of its own."""
            mp = master_for(inst)
            while True:
                res = solve_lp(mp)
                yield res
                cols = price_all(mp.instance, mp.partition, res.duals).columns()
                if not cols:
                    return
                add_columns(mp, cols)

        alone = [list(rounds(inst)) for inst in insts]
        interleaved = [[], []]
        for step in itertools.zip_longest(*map(rounds, insts)):
            for out, res in zip(interleaved, step):
                if res is not None:
                    out.append(res)
        assert min(map(len, alone)) > 1
        assert interleaved == alone


def scalar_fractional_scan(res):
    """fractional_big_columns as the per-column comprehension it replaced."""
    pool = enumerate(zip(res.columns, res.values))
    return [(i, col, x) for i, (col, x) in pool if col.size >= 2 and abs(x - round(x)) > EPS]


_values = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5]),
    st.builds(
        lambda k, d: k + d,
        st.integers(0, 3),
        st.one_of(
            st.floats(-EPS / 2, EPS / 2),
            st.sampled_from([-EPS, EPS]),
            st.floats(-3 * EPS, 3 * EPS),
        ),
    ),
    st.floats(0.0, 3.0),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=63), st.sampled_from([0, 1]), _values),
        max_size=30,
    ),
    st.booleans(),
)
def test_fractional_scan_matches_scalar_comprehension(pool, as_array):
    """The numpy scan keeps the scalar test's verdicts, order and float values."""
    columns = tuple(Column(mask, k) for mask, k, _ in pool)
    values = [x for _, _, x in pool]
    res = LPResult(
        objective=0.0,
        values=np.array(values) if as_array else tuple(values),
        columns=columns,
        duals=DualSolution((), {}),
    )
    scan = master.fractional_big_columns(res)
    assert scan == scalar_fractional_scan(res)
    assert all(type(x) is float for _, _, x in scan)


class TestNodeLowerBound:
    # one vertex whose one color weighs 99: big-M 100
    MP = master_for(make_instance(1, [], [[0]], weights={0: 99}))

    def test_rounds_up_within_eps(self):
        res = fake_result([Column(0b1, 0)], [1.0], objective=2.000001)
        assert node_lower_bound(self.MP, res) == 2

    def test_fractional_rounds_up(self):
        res = fake_result([Column(0b1, 0)], [1.0], objective=2.5)
        assert node_lower_bound(self.MP, res) == 3

    def test_big_m_means_infeasible(self):
        assert self.MP.big_m == 100
        res = fake_result([Column(0b1, 0)], [1.0], objective=100.0)
        assert node_lower_bound(self.MP, res) == math.inf
