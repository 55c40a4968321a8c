import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

from listchroma import bnp, master
from listchroma.bnp import INFEASIBLE, SolveReport, dive, open_node, price_out, select_branching_pair
from listchroma.core import EPS, Deadline, branch_differ, partition_colors, root_state, validate_coloring
from listchroma.instgen import GenConfig, generate
from listchroma.master import (
    Column,
    DualSolution,
    DuplicateColumnError,
    LPResult,
    NumericalFailure,
    add_columns,
    column_fault,
    extract_integer_solution,
    init_with_dummies,
    node_lower_bound,
    solve_lp,
)
from listchroma.pricing import price_all

from helpers import make_instance, stable_sets


def master_for(inst):
    state = root_state(inst)
    return init_with_dummies(state, partition_colors(inst))


def brute_force_selection_cost(mp, columns):
    """Cheapest 0/1 column selection satisfying cover and class capacities."""
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
        gamma = 0.0 if col.is_dummy else res.duals.gamma_of(col.class_rep)
        reduced = sum(res.duals.pi[v] for v in col.vertices()) - (mp.cost(col) + gamma)
        assert reduced <= tol
        if x > EPS:
            assert abs(reduced) <= tol
    # primal feasibility and row-side complementary slackness
    for v in range(mp.instance.n):
        cover = sum(
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


def cold_linprog_objective(mp, lower=None):
    """The pool's LP optimum from a fresh scipy linprog solve (the reference).

    lower gives each column's lower bound; None means all zero.
    """
    n = mp.instance.n
    bounded = sorted(mp.partition.bounded)
    class_row = {k: n + i for i, k in enumerate(bounded)}
    a_ub = np.zeros((n + len(bounded), len(mp.columns)))
    for j, col in enumerate(mp.columns):
        for v in col.vertices():
            a_ub[v, j] = -1.0
        if col.class_rep in class_row:
            a_ub[class_row[col.class_rep], j] = 1.0
    b_ub = [-1.0] * n + [float(len(mp.partition.class_members[k])) for k in bounded]
    cost = [mp.cost(col) for col in mp.columns]
    bounds = (0, None) if lower is None else [(lo, None) for lo in lower]
    ref = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert ref.status == 0
    return ref.fun


class TestInitWithDummies:
    def test_three_vertices_weight_sum_five(self):
        inst = make_instance(
            3, [(0, 1)], [[0, 1]] * 3, weights={0: 2, 1: 3}
        )
        mp = master_for(inst)
        assert mp.big_m == 6
        assert len(mp.columns) == 3
        assert all(c.is_dummy and mp.cost(c) == 6 for c in mp.columns)
        res = solve_lp(mp)
        assert res.objective == pytest.approx(18.0)

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


class TestSolveLP:
    def test_single_real_column_wins(self):
        inst = make_instance(2, [], [[0], [0]], weights={0: 1})
        mp = master_for(inst)
        add_columns(mp, [Column(0b11, 0)])
        res = solve_lp(mp)
        expected = brute_force_selection_cost(mp, mp.columns)
        assert expected == 1
        assert res.objective == pytest.approx(expected)
        assert res.values[2] == pytest.approx(1.0)

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
        assert all(
            x <= EPS for col, x in zip(res.columns, res.values) if col.is_dummy
        )

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
        assert len(mp.columns) == 3

    def test_one_column_per_class(self):
        inst = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 1, 1: 2})
        mp = master_for(inst)
        part = partition_colors(inst)
        cols = [Column(0b11, k) for k in part.reps]
        add_columns(mp, cols)
        assert len(mp.columns) == 2 + len(part.reps)

    def test_duplicate_rejected(self):
        inst = make_instance(2, [], [[0], [0, 1]])
        mp = master_for(inst)
        add_columns(mp, [Column(0b11, 0)])
        with pytest.raises(DuplicateColumnError):
            add_columns(mp, [Column(0b11, 0)])
        with pytest.raises(DuplicateColumnError):
            add_columns(mp, [Column(0b01, 0), Column(0b01, 0)])
        # a rejected batch leaves the pool and its LP untouched
        assert len(mp.columns) == 3
        assert len(solve_lp(mp).values) == 3

    # colors 0 and 1 form the class of representative 0 on V = {0, 1};
    # color 2 lives on {1, 2}; vertices 0 and 1 are adjacent
    @pytest.mark.parametrize(
        "col, message",
        [
            (Column(0, 0), "empty column"),
            (Column(0b001, None), "dummy columns are created only at initialization"),
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
        assert len(mp.columns) == 3


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
        cols = [Column(0b011, 0), Column(0b100, 0), Column(0b001, None)]
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
            values=(0.0, 0.0, 0.0, 1.0, 0.5, 0.5),
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
            values=(0.0, 0.0, 0.5, 0.5, 0.5, 0.5),
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
            values=(0.0, 0.0, 1.0),
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
            values=(0.0, 0.0, 1.0),
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
    cand = [
        i for i, col in enumerate(cols) if col.size == 1 and not col.is_dummy and col.mask & ~covered
    ]
    fixed = sum(mp.cost(col) for col in at_one)
    values = [0.0] * len(cols)
    for col in at_one:
        values[cols.index(col)] = 1.0
    # the point is optimal over the pool only; the read-off matches over every list color
    ref = residual_linprog(mp, at_one, residual, [cols[i] for i in cand])
    best = residual_linprog(mp, at_one, residual, [col for col in singles if col.mask & ~covered])
    if ref is None:
        # only the big-M dummies cover what the singletons cannot
        for v in residual:
            values[v] = 1.0
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
        values=(0.0, 0.0, 0.0, 1.0, 1.0),
        columns=tuple(mp.columns),
        duals=DualSolution((1.0, 0.0, 4.0), {}),
    )
    with pytest.raises(NumericalFailure, match="extraction changed the objective"):
        extract_integer_solution(mp, res)


def root_optimum(inst):
    """The root master of inst and its LP optimum, priced out by bnp.price_out."""
    mp = master_for(inst)
    return mp, price_out(mp, SolveReport(INFEASIBLE), Deadline(None))


class TestDive:
    # root LP 5.67, with a fractional big column to branch on
    INST = generate(GenConfig(n=20, p=0.5, c=1.0, q=0.5, seed=3))

    def test_coloring_no_lighter_than_the_bound(self):
        mp, res = root_optimum(self.INST)
        assert select_branching_pair(res) is not None
        coloring = dive(mp, res, math.inf)
        assert coloring is not None
        assert validate_coloring(self.INST, coloring) >= node_lower_bound(res, mp.big_m)

    @pytest.mark.parametrize("above", [0, -1])
    def test_cutoff_at_or_below_the_bound_gives_up(self, above):
        mp, res = root_optimum(self.INST)
        assert dive(mp, res, node_lower_bound(res, mp.big_m) + above) is None

    def test_cutoff_above_the_coloring_keeps_it(self):
        mp, res = root_optimum(self.INST)
        free = dive(mp, res, math.inf)
        mp, res = root_optimum(self.INST)
        assert dive(mp, res, validate_coloring(self.INST, free) + 1) == free

    def test_pool_unchanged(self):
        mp, res = root_optimum(self.INST)
        pool = list(mp.columns)
        dive(mp, res, math.inf)
        assert mp.columns == pool == list(res.columns)

    def test_deterministic(self):
        first = dive(*root_optimum(self.INST), math.inf)
        assert dive(*root_optimum(self.INST), math.inf) == first

    def test_positive_dummy_gives_up(self):
        # no pool column covers vertex 1, so its dummy stays at one
        inst = make_instance(2, [(0, 1)], [[0], [0, 1]])
        mp = master_for(inst)
        add_columns(mp, [Column(0b01, 0)])
        res = solve_lp(mp)
        assert res.values[1] == pytest.approx(1.0)
        assert dive(mp, res, math.inf) is None


class TestModelHandOff:
    INST = TestDive.INST

    def test_next_master_after_a_dive_starts_primal_from_zero_bounds(self):
        lp = master.new_model()
        root = open_node(root_state(self.INST))
        mp = init_with_dummies(*root, lp)
        res = price_out(mp, SolveReport(INFEASIBLE), Deadline(None))
        u, v = select_branching_pair(res)
        dive(mp, res, math.inf)
        assert lp.getOptionValue("simplex_strategy")[1] == master._DUAL_SIMPLEX
        assert max(lp.getLp().col_lower_) == 1.0

        pool = [col for col in mp.columns if not col.is_dummy]
        child = open_node(branch_differ(root.state, u, v), pool, root.state.merge_map)
        assert child.pool
        handed = init_with_dummies(*child, lp)
        assert lp.getOptionValue("simplex_strategy")[1] == master._PRIMAL_SIMPLEX
        assert lp.getLp().col_lower_ == [0.0] * len(handed.columns)
        assert solve_lp(handed) == solve_lp(init_with_dummies(*child))

    def test_masters_on_their_own_models_do_not_interfere(self):
        insts = [generate(GenConfig(n=15, p=0.5, c=1.0, q=0.5, seed=seed)) for seed in (3, 4)]

        def rounds(inst):
            """Every LP optimum of the root's column generation."""
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


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=12, max_value=18),
    st.integers(min_value=0, max_value=10**6),
)
def test_dive_resolves_match_cold_linprog(n, seed):
    """After each fixing, the dive's warm dual simplex optimum is the cold optimum."""
    mp, res = root_optimum(generate(GenConfig(n=n, p=0.5, c=1.0, q=0.5, seed=seed)))
    assume(select_branching_pair(res) is not None)
    lower = [0.0] * len(mp.columns)
    points = [res]

    def checked(mp):
        after = mp._lp.getLp().col_lower_
        raised = [i for i, (a, b) in enumerate(zip(lower, after)) if a != b]
        # one more column fixed at one, fractional in the point before
        assert len(raised) == 1 and after[raised[0]] == 1.0
        assert raised[0] in [i for i, _, _ in master.fractional_big_columns(points[-1])]
        lower[:] = after
        res = solve_lp(mp)
        assert res.objective == pytest.approx(cold_linprog_objective(mp, lower), rel=1e-9, abs=1e-9)
        points.append(res)
        return res

    with pytest.MonkeyPatch.context() as m:
        m.setattr(bnp, "solve_lp", checked)
        dive(mp, res, math.inf)
    assert len(points) > 1


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
        st.tuples(st.integers(min_value=1, max_value=63), st.sampled_from([None, 0, 1]), _values),
        max_size=30,
    ),
    st.booleans(),
)
def test_fractional_scan_matches_scalar_comprehension(pool, as_array):
    """The numpy scan keeps the scalar test's verdicts, order and float values."""
    # None on a singleton is a dummy; on a bigger mask it still counts by size
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


class TestSharedFractionalRule:
    """Branching and the dive call the same big columns fractional."""

    # edgeless, one class of two colors: three dummies, then {0,1} and {1,2}
    INST = make_instance(3, [], [[0, 1]] * 3)

    def lp_at(self, x01, x12):
        mp = master_for(self.INST)
        add_columns(mp, [Column(0b011, 0), Column(0b110, 0)])
        res = LPResult(
            objective=x01 + x12,
            values=(0.0, 0.0, 0.0, x01, x12),
            columns=tuple(mp.columns),
            duals=DualSolution((0.0,) * 3, {}),
        )
        return mp, res

    def test_within_eps_of_an_integer_is_integral(self, monkeypatch):
        mp, res = self.lp_at(1 - EPS / 2, EPS / 2)
        assert select_branching_pair(res) is None

        def no_solve(mp):
            raise AssertionError("the dive re-solved an integral point")

        monkeypatch.setattr(bnp, "solve_lp", no_solve)
        coloring = dive(mp, res, math.inf)
        validate_coloring(self.INST, coloring)
        assert coloring[0] == coloring[1]  # read off as one column

    def test_half_is_fractional(self, monkeypatch):
        mp, res = self.lp_at(0.5, 0.5)
        assert select_branching_pair(res) is not None
        solves = []

        def counting(mp):
            solves.append(mp)
            return solve_lp(mp)

        monkeypatch.setattr(bnp, "solve_lp", counting)
        coloring = dive(mp, res, math.inf)
        # fixing {0,1} leaves {1,2} at 1 as the only cover of vertex 2
        assert len(solves) == 1
        validate_coloring(self.INST, coloring)


class TestNodeLowerBound:
    def test_rounds_up_within_eps(self):
        res = fake_result([Column(0b1, 0)], [1.0], objective=2.000001)
        assert node_lower_bound(res, big_m=100) == 2

    def test_fractional_rounds_up(self):
        res = fake_result([Column(0b1, 0)], [1.0], objective=2.5)
        assert node_lower_bound(res, big_m=100) == 3

    def test_big_m_means_infeasible(self):
        res = fake_result([Column(0b1, 0)], [1.0], objective=100.0)
        assert node_lower_bound(res, big_m=100) == math.inf
