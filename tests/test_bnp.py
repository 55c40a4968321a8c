import math
import sys
from concurrent.futures import ThreadPoolExecutor
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from listchroma import assignment as asg, bnp, master
from listchroma.bnp import (
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    TIME_LIMIT,
    SolveReport,
    dive,
    open_node,
    price_out,
    select_branching_pair,
    solve,
    update_incumbent,
)
from listchroma.core import (
    EPS,
    Deadline,
    SearchTimeout,
    bits,
    branch_differ,
    branch_same,
    build_instance,
    list_coloring,
    partition_colors,
    preprocess_singletons,
    root_state,
    validate_coloring,
)
from listchroma.instgen import GenConfig, generate
from listchroma.master import (
    Column,
    DualSolution,
    LPResult,
    MasterProblem,
    add_columns,
    column_fault,
    new_model,
    node_lower_bound,
    solve_lp,
)
from listchroma.oracle import oracle_solve
from listchroma.pricing import SHARED_SEARCH_DENSITY, price_all

from helpers import (
    cold_linprog_objective,
    k33_mirrored,
    make_instance,
    master_for,
    petersen,
    recorded_events,
)

# a grid instance of five nodes; the root dives, then branches
GRID_5 = GenConfig(n=10, p=0.5, c=1.5, q=0.5, seed=20179, weight_range=(1, 10))


class TestSolveBasic:
    def test_k33_mirrored_infeasible(self):
        report = solve(k33_mirrored())
        assert report.status == INFEASIBLE
        assert report.coloring is None

    def test_petersen_chromatic_number(self):
        report = solve(petersen())
        assert report.status == OPTIMAL
        assert report.weight == 3
        assert oracle_solve(petersen()).optimum == 3

    def test_single_vertex(self):
        inst = make_instance(1, [], [[0]], weights={0: 7})
        report = solve(inst)
        assert report.status == OPTIMAL
        assert report.weight == 7
        assert report.nodes == 1

    def test_zero_time_limit(self):
        report = solve(petersen(), time_limit=0.0)
        assert report.status == TIME_LIMIT
        assert report.coloring is None
        assert report.nodes == 0

    @pytest.mark.parametrize("time_limit, status", [(None, OPTIMAL), (0.0, TIME_LIMIT)])
    def test_recursion_limit_untouched(self, time_limit, status, monkeypatch):
        def refuse(limit):
            pytest.fail("solve changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        # Edgeless, one shared color against a private one per vertex, more
        # vertices than the default limit. Its two pricing rounds stop at the
        # root of every search (the first on a single vertex, the second on
        # the bound), so search depth is covered by
        # test_pricing.py::test_deep_search_within_default_recursion_limit.
        n = 1500
        weights = {0: n - 1, **{1 + v: 1 for v in range(n)}}
        inst = make_instance(n, [], [[0, 1 + v] for v in range(n)], weights=weights)
        report = solve(inst, time_limit=time_limit)
        assert report.status == status
        if status == OPTIMAL:
            assert report.weight == n - 1

    def test_mwss_nodes_sums_every_pricing_round(self, monkeypatch):
        seen = []
        price_all = bnp.price_all

        def counting(*args, **kwargs):
            outcome = price_all(*args, **kwargs)
            seen.append(outcome.stats.nodes)
            return outcome

        monkeypatch.setattr(bnp, "price_all", counting)
        report = solve(generate(GenConfig(n=20, p=0.5, c=1.0, q=0.5, seed=3)))
        assert report.status == OPTIMAL
        assert len(seen) == report.pricing_rounds > 0
        assert report.mwss_nodes == sum(seen) > 0

    def test_cache_hits_count_classes_that_share_a_search(self, monkeypatch):
        rounds = []
        price_all = bnp.price_all

        def counting(inst, partition, *args, **kwargs):
            outcome = price_all(inst, partition, *args, **kwargs)
            n, classes = inst.n, len(partition.reps)
            if 2 * inst.graph.m >= SHARED_SEARCH_DENSITY * n * (n - 1):
                searches = 1
            else:
                searches = len(set(partition.vertex_mask.values()))
            rounds.append((outcome.stats.cache_hits, classes - searches))
            return outcome

        monkeypatch.setattr(bnp, "price_all", counting)
        # q=0.9, weights 1-10: colors with equal lists but different weights are
        # separate classes on one vertex set, so even a sparse node graph has
        # classes that share a search
        report = solve(generate(GenConfig(n=12, p=0.5, c=1.0, q=0.9, seed=1, weight_range=(1, 10))))
        assert report.status == OPTIMAL
        assert len(rounds) == report.pricing_rounds > 0
        assert all(got == expected for got, expected in rounds)
        assert sum(got for got, _ in rounds) > 0

    @pytest.mark.parametrize("time_limit", [float("nan"), -1.0])
    def test_invalid_time_limit_raises_before_searching(self, time_limit, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched with an invalid time limit")

        monkeypatch.setattr(bnp, "root_state", no_search)
        with pytest.raises(ValueError, match="time limit must be a number >= 0"):
            solve(petersen(), time_limit=time_limit)

    def test_assignment_module_can_be_disabled(self, monkeypatch):
        inst = make_instance(2, [(0, 1)], [[0, 1], [0, 1]], weights={0: 5, 1: 3})
        with_asg = solve(inst)
        # bnp reaches all_complete through the module, so column generation
        # then finishes the all-complete root
        monkeypatch.setattr(asg, "all_complete", lambda partition, graph: not partition.reps)
        without = solve(inst)
        assert with_asg.weight == without.weight == 8
        assert without.columns_generated > 0

    def test_node_without_vertex_is_matched_through_all_complete(self, monkeypatch):
        # every list is one color: preprocessing fixes the whole root, whose
        # empty partition all_complete accepts before the matching reads it off
        calls = []
        all_complete, solve_assignment = asg.all_complete, asg.solve_assignment

        def recording_all_complete(partition, graph):
            calls.append("all_complete")
            return all_complete(partition, graph)

        def recording_solve_assignment(*args):
            calls.append("solve_assignment")
            return solve_assignment(*args)

        monkeypatch.setattr(asg, "all_complete", recording_all_complete)
        monkeypatch.setattr(asg, "solve_assignment", recording_solve_assignment)
        report = solve(make_instance(3, [(0, 1)], [[0], [1], [0]], weights={0: 2, 1: 3}))
        assert (report.status, report.weight, report.nodes) == (OPTIMAL, 5, 1)
        assert calls == ["all_complete", "solve_assignment"]

    @pytest.mark.parametrize("seed, incumbent", [(30, 150000000006), (24, None)])
    def test_float_noise_duplicate_ends_in_numerical_failure(self, seed, incumbent):
        # weights of 10^10 put reduced costs of pooled columns inside float
        # noise, so pricing hands one back; the solve keeps its incumbent
        # (for seed 30 the oracle optimum) instead of raising
        base = generate(GenConfig(n=10, p=0.5, c=1.0, q=0.5, seed=seed, weight_range=(1, 9)))
        weights = {j: base.weights[j] * 10**10 + j % 3 for j in base.colors}
        report = solve(build_instance(base.graph, base.colors, weights, base.lists))
        assert report.status == NUMERICAL_FAILURE
        assert report.weight == incumbent

    @pytest.mark.parametrize(
        "scale, status, weight",
        [(10**15, OPTIMAL, 2 * 10**15 + 1), (10**16, NUMERICAL_FAILURE, None)],
    )
    def test_big_m_beyond_float64_ends_in_numerical_failure(self, scale, status, weight):
        # big-M = 1 + the weight of all colors; from 2**53 on float64 cannot
        # tell a coloring from a dummy, which once made this solve infeasible
        inst = make_instance(3, [(0, 1)], [[0, 1]] * 3, weights={0: scale + 1, 1: scale})
        assert oracle_solve(inst).optimum == 2 * scale + 1
        report = solve(inst)
        assert report.status == status
        assert report.weight == weight

    def test_matching_beyond_float64_ends_in_numerical_failure(self):
        # K_10 is all-complete; its weights sum below 2**53, but the costs
        # of a matching with its forbidden-pair penalty do not
        n = 10
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        weights = {j: 10**14 * (j + 1) for j in range(n)}
        inst = make_instance(n, edges, [range(n)] * n, weights=weights)
        assert sum(weights.values()) < 2**53
        report = solve(inst)
        assert report.status == NUMERICAL_FAILURE
        assert report.coloring is None

    @pytest.mark.parametrize("option", ["_PRIMAL_SIMPLEX", "_DUAL_SIMPLEX"])
    def test_rejected_simplex_strategy_ends_in_numerical_failure(self, option, monkeypatch):
        # HiGHS rejects the value and keeps its old one: a solve that went on
        # would run on the wrong simplex
        monkeypatch.setattr(master, option, 99)
        assert solve(generate(GRID_5)).status == NUMERICAL_FAILURE


def fake_lp(inst, columns, values):
    return LPResult(
        objective=sum(inst.weights[c.class_rep] * x for c, x in zip(columns, values)),
        values=tuple(values),
        columns=tuple(columns),
        duals=DualSolution(tuple([0.0] * inst.n), {}),
    )


class TestSelectBranchingPair:
    def test_two_overlapping_halves(self):
        inst = make_instance(3, [], [[0]] * 3)
        cols = [Column(0b011, 0), Column(0b101, 0)]
        res = fake_lp(inst, cols, [0.5, 0.5])
        assert select_branching_pair(res) == (0, 2)

    def test_fallback_inside_s1(self):
        inst = make_instance(3, [], [[0]] * 3)
        cols = [Column(0b011, 0), Column(0b100, 0)]
        res = fake_lp(inst, cols, [0.5, 1.0])
        assert select_branching_pair(res) == (0, 1)

    def test_most_fractional_wins(self):
        inst = make_instance(4, [], [[0]] * 4)
        cols = [Column(0b0011, 0), Column(0b1100, 0), Column(0b0101, 0)]
        res = fake_lp(inst, cols, [0.9, 0.3, 0.4])
        u, v = select_branching_pair(res)
        # S1 is the 0.4 column {0,2}; first other positive column through 0
        assert (u, v) == (0, 1)

    def test_requires_fractional_big_column(self):
        inst = make_instance(2, [], [[0]] * 2)
        cols = [Column(0b01, 0), Column(0b10, 0)]
        res = fake_lp(inst, cols, [1.0, 1.0])
        assert select_branching_pair(res) is None


class TestInheritColumns:
    def test_differ_drops_joined_pair(self):
        state = root_state(make_instance(3, [], [[0, 1]] * 3))
        cols = [Column(0b011, 0), Column(0b101, 0)]
        child = open_node(branch_differ(state, 0, 1), cols, state.merge_map)
        assert [c.mask for c in child.pool] == [0b101]

    def test_same_rewrites_merged_vertex(self):
        # merge vertex 2 into 0; column {2,1} becomes {0,1}
        state = root_state(make_instance(3, [], [[0, 1]] * 3))
        child = open_node(branch_same(state, 0, 2), [Column(0b110, 0)], state.merge_map)
        assert [c.mask for c in child.pool] == [0b11]

    def test_same_drops_newly_unstable(self):
        # 1 adjacent to 0: after merging 2 into 0, {2,1} hits the edge (0,1)
        state = root_state(make_instance(3, [(0, 1)], [[0, 1]] * 3))
        child = open_node(branch_same(state, 0, 2), [Column(0b110, 0)], state.merge_map)
        assert child.pool == []

    def test_same_deduplicates_rewrites(self):
        state = root_state(make_instance(3, [], [[0, 1]] * 3))
        cols = [Column(0b110, 0), Column(0b011, 0)]
        child = open_node(branch_same(state, 0, 2), cols, state.merge_map)
        assert [c.mask for c in child.pool] == [0b11]

    def test_classes_that_merge_keep_one_column(self):
        # SAME(2,3) leaves the merged vertex the list {2}, so preprocessing
        # fixes it; colors 0 and 1 then share the list of vertices 0 and 1
        # and become one class, where the two class columns {0,1} coincide
        state = root_state(make_instance(4, [], [[0, 1], [0, 1], [0, 2], [1, 2]]))
        cols = [Column(0b11, 0), Column(0b11, 1), Column(0b101, 0)]
        child = open_node(branch_same(state, 2, 3), cols, state.merge_map)
        assert child.pool == [Column(0b11, 0)]

    def test_class_that_lost_u_is_dropped(self):
        # color 1 is not shared by both endpoints: after SAME(0,2) the merged
        # list is {0}, so class-1 columns through the merged vertex die
        state = root_state(make_instance(3, [], [[0, 1], [0, 1], [0]]))
        child = open_node(branch_same(state, 0, 2), [Column(0b011, 1)], state.merge_map)
        assert child.pool == []

    def test_fixing_after_same_renumbers_past_both(self):
        # the parent is itself a SAME child (root 1 merged into 0), so its ids
        # are not root ids; SAME(2,3) there leaves the merged vertex the list
        # {0}, so preprocessing fixes it: columns through parent vertex 2 or 3
        # die, and parent vertex 4 shifts down past both of them
        inst = make_instance(6, [], [[0, 1, 2]] * 3 + [[0, 1], [0, 2], [0, 1, 2]])
        parent = open_node(branch_same(root_state(inst), 0, 1)).state
        assert parent.merge_map == {0: 0, 1: 0, 2: 1, 3: 2, 4: 3, 5: 4}
        cols = [Column(0b10100, 1), Column(0b10010, 1), Column(0b00011, 1)]
        child = open_node(branch_same(parent, 2, 3), cols, parent.merge_map)
        assert child.state.fixed == ((3, 0), (4, 0))
        assert [c.mask for c in child.pool] == [0b110, 0b011]

    def test_inherited_column_charged_child_weight(self):
        # SAME(0,1) leaves the merged vertex the list {0}: preprocessing fixes
        # color 0 there, so color 0 costs nothing more in the child, and the
        # class-0 column {2,3} outside the fixed vertex survives
        inst = make_instance(4, [], [[0, 1], [0, 2], [0, 1], [0, 1]], weights={0: 5, 1: 1, 2: 1})
        state = root_state(inst)
        child = open_node(branch_same(state, 0, 1), [Column(0b1100, 0)], state.merge_map)
        assert child.state.fixed == ((0, 0), (1, 0)) and child.state.instance.weights[0] == 0
        assert child.pool == [Column(0b11, 0)]
        mp = MasterProblem(*child, new_model())
        assert mp.cost(child.pool[0]) == 0
        res = solve_lp(mp)
        assert res.values == pytest.approx((1.0,))
        assert res.objective == pytest.approx(0.0)

    def test_child_master_is_its_inherited_pool(self, monkeypatch):
        kept_lists, seeded = {}, []
        inherit, init = bnp.inherit_columns, bnp.MasterProblem

        def recording_inherit(*args):
            kept = inherit(*args)
            kept_lists[id(kept)] = kept
            return kept

        def recording_init(state, partition, inherited, lp):
            mp = init(state, partition, inherited, lp)
            seeded.append((state.instance.n, list(mp.columns), inherited, mp._lp.getNumCol()))
            return mp

        monkeypatch.setattr(bnp, "inherit_columns", recording_inherit)
        monkeypatch.setattr(bnp, "MasterProblem", recording_init)
        # both branch at the root; in GRID_5 both children of a node inherit
        # before either is evaluated
        for cfg in [GenConfig(n=18, p=0.5, c=1.0, q=0.5, seed=11), GRID_5]:
            seeded.clear()
            solve(generate(cfg))
            (root_n, root_cols, _, root_lp_cols), *children = seeded
            assert root_cols == [] and root_lp_cols == root_n  # the root's model: dummies only
            assert children
            for n, cols, inherited, lp_cols in children:
                assert kept_lists[id(inherited)] is inherited  # paired by identity, not call order
                assert cols == inherited and lp_cols == n + len(inherited)
        assert any(kept_lists.values())


def root_set_inherit(parent_cols, parent_merge_map, state, partition):
    """inherit_columns through root vertices: a parent vertex stands for the roots sent to it."""
    roots = {}
    for r, v in parent_merge_map.items():
        roots.setdefault(v, set()).add(r)
    out, seen = [], set()
    for col in parent_cols:
        col_roots = set().union(*(roots[v] for v in bits(col.mask)))
        rep = partition.rep_of.get(col.class_rep)
        if not col_roots <= state.merge_map.keys() or rep is None:
            continue
        new = Column(sum(1 << v for v in {state.merge_map[r] for r in col_roots}), rep)
        if new in seen:
            continue
        seen.add(new)
        if column_fault(new, state.instance, partition) is None:
            out.append(new)
    return out


def branch_pair(data, state):
    """A non-adjacent pair with a common color, or None."""
    inst = state.instance
    pairs = [
        (u, v)
        for u in range(inst.n)
        for v in range(u + 1, inst.n)
        if not inst.graph.has_edge(u, v) and inst.lists[u] & inst.lists[v]
    ]
    return data.draw(st.sampled_from(pairs), label="pair") if pairs else None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inherit_matches_root_set_reference(data):
    """inherit_columns keeps the columns of the translation through root vertex sets, in order."""
    n = data.draw(st.integers(min_value=9, max_value=20), label="n")
    seed = data.draw(st.integers(min_value=0, max_value=10**6), label="seed")
    parent = root_state(generate(GenConfig(n=n, p=0.3, c=1.0, q=0.5, seed=seed)))
    # a SAME step first, so that parent ids are not root ids
    pair = branch_pair(data, parent)
    assume(pair is not None)
    parent = preprocess_singletons(branch_same(parent, *pair))
    assume(parent is not None and parent.instance.n > 1)
    inst, part = parent.instance, partition_colors(parent.instance)
    pool = []
    for k in part.reps:
        for _ in range(data.draw(st.integers(0, 6), label="sets")):
            mask = 0
            for v in data.draw(st.permutations(part.vertices[k]), label="order"):
                if not inst.graph.adj[v] & mask:
                    mask |= 1 << v
            pool.append(Column(mask, k))
    pair = branch_pair(data, parent)
    assume(pair is not None)
    branch = data.draw(st.sampled_from([branch_same, branch_differ]), label="branch")
    child = open_node(branch(parent, *pair), pool, parent.merge_map)
    assume(child is not None and child.state.instance.n > 0)
    assert child.pool == root_set_inherit(pool, parent.merge_map, child.state, child.partition)


def root_optimum(inst):
    """The root master of inst and its LP optimum, priced out by bnp.price_out."""
    mp = master_for(inst)
    return mp, price_out(mp, SolveReport(INFEASIBLE), Deadline(None))


class TestDive:
    # root LP 5.67, with a fractional big column to branch on
    INST = generate(GenConfig(n=20, p=0.5, c=1.0, q=0.5, seed=3))

    def test_optimum_arrives_at_the_root(self):
        # c7 seed 7001: without the dive its optimum first appeared at node
        # 24 of a 37-node tree
        report = solve(generate(GenConfig(n=50, p=0.5, c=1.0, q=0.5, seed=7001)))
        assert (report.status, report.weight, report.incumbent_node) == (OPTIMAL, 10, 1)
        assert report.nodes < 37

    def test_incumbent_node_is_where_the_coloring_was_offered(self, monkeypatch):
        nodes, offers = [], []
        price_out, update = bnp.price_out, bnp.update_incumbent

        def counting(mp, *args):
            nodes.append(mp)
            return price_out(mp, *args)

        def recording(current, candidate):
            offers.append((len(nodes), candidate))
            return update(current, candidate)

        monkeypatch.setattr(bnp, "price_out", counting)
        monkeypatch.setattr(bnp, "update_incumbent", recording)
        # the root's dive offers weight 4, its SAME child the optimum 3
        report = solve(generate(GenConfig(n=10, p=0.5, c=1.0, q=0.5, seed=69)))
        assert [(node, c.weight) for node, c in offers] == [(1, 4), (2, 3)]
        assert (report.weight, report.incumbent_node) == (3, 2)
        assert offers[-1][1] is report.coloring

    def test_no_incumbent_no_node(self):
        report = solve(k33_mirrored())
        assert report.coloring is None and report.incumbent_node is None

    def test_coloring_no_lighter_than_the_bound(self):
        mp, res = root_optimum(self.INST)
        assert select_branching_pair(res) is not None
        coloring = dive(mp, res, math.inf)
        assert coloring is not None
        assert validate_coloring(self.INST, coloring) >= node_lower_bound(mp, res)

    @pytest.mark.parametrize("above", [0, -1])
    def test_cutoff_at_or_below_the_bound_gives_up(self, above):
        mp, res = root_optimum(self.INST)
        assert dive(mp, res, node_lower_bound(mp, res) + above) is None

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
        # no pool column covers vertex 1, so its dummy (LP column 1) stays at one
        inst = make_instance(2, [(0, 1)], [[0], [0, 1]])
        mp = master_for(inst)
        add_columns(mp, [Column(0b01, 0)])
        res = solve_lp(mp)
        assert mp._lp.getSolution().col_value[1] == pytest.approx(1.0)
        assert dive(mp, res, math.inf) is None


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
        # LP column n + i is pool column i; the dummies in front are never fixed
        model_lower = mp._lp.getLp().col_lower_
        assert model_lower[: mp.instance.n] == [0.0] * mp.instance.n
        after = model_lower[mp.instance.n :]
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


class TestSharedFractionalRule:
    """Branching and the dive call the same big columns fractional."""

    # edgeless, one class of two colors: the pool is {0,1} and {1,2}
    INST = make_instance(3, [], [[0, 1]] * 3)

    def lp_at(self, x01, x12):
        mp = master_for(self.INST)
        add_columns(mp, [Column(0b011, 0), Column(0b110, 0)])
        res = LPResult(
            objective=x01 + x12,
            values=(x01, x12),
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


class TestModelHandOff:
    INST = generate(GRID_5)

    def test_every_master_of_a_solve_shares_one_model_reset_for_it(self, monkeypatch):
        dives, seen = [], []
        init, real_dive = bnp.MasterProblem, bnp.dive

        def recording_init(state, partition, inherited, lp):
            mp = init(state, partition, inherited, lp)
            lower = mp._lp.getLp().col_lower_
            seen.append((len(dives), mp._lp, mp._lp.getOptionValue("simplex_strategy")[1], lower))
            return mp

        def recording_dive(*args):
            dives.append(args[0]._lp)
            return real_dive(*args)

        monkeypatch.setattr(bnp, "MasterProblem", recording_init)
        monkeypatch.setattr(bnp, "dive", recording_dive)
        assert solve(self.INST).nodes == 5
        models = {id(lp) for _, lp, _, _ in seen} | {id(lp) for lp in dives}
        assert len(models) == 1 and any(after for after, _, _, _ in seen)
        for _, _, strategy, lower in seen:
            assert strategy == master._PRIMAL_SIMPLEX
            assert set(lower) == {0.0}

    def test_solves_in_threads_match_solves_in_turn(self):
        # two instances, each solved twice, in more threads than cores
        insts = [self.INST, generate(GenConfig(n=18, p=0.5, c=1.0, q=0.5, seed=11))] * 2
        fields = attrgetter(
            "status", "coloring", "nodes", "pricing_rounds", "columns_generated",
            "mwss_nodes", "incumbent_node",
        )
        in_turn = [fields(solve(inst)) for inst in insts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter over as often as it can
        try:
            with ThreadPoolExecutor(max_workers=len(insts)) as pool:
                threaded = [fields(report) for report in pool.map(solve, insts, timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == in_turn


class TestPriceOut:
    INST = generate(GenConfig(n=15, p=0.5, c=1.0, q=0.5, seed=3))

    def root_master(self):
        return MasterProblem(*open_node(root_state(self.INST)), new_model())

    def test_counts_what_solve_reports_and_proves_the_optimum(self):
        solved = solve(self.INST)
        assert (solved.status, solved.nodes, solved.pricing_rounds) == (OPTIMAL, 1, 8)
        mp, report = self.root_master(), SolveReport(INFEASIBLE)
        res = bnp.price_out(mp, report, Deadline(None))
        counters = attrgetter("pricing_rounds", "mwss_nodes", "columns_generated")
        assert counters(report) == counters(solved)
        assert report.mwss_nodes > 0 and report.columns_generated == len(mp.columns)
        assert price_all(mp.instance, mp.partition, res.duals).columns() == []

    def test_expired_deadline_raises_before_solving(self, monkeypatch):
        monkeypatch.delattr(bnp, "solve_lp")  # a solve would raise NameError
        with pytest.raises(SearchTimeout):
            bnp.price_out(self.root_master(), SolveReport(INFEASIBLE), Deadline(0))


class TestUpdateIncumbent:
    def setup_method(self):
        self.inst = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 5, 1: 3})

    def test_first_candidate_kept(self):
        cand = list_coloring(self.inst, {0: 0, 1: 0})
        assert update_incumbent(None, cand) is cand

    def test_tie_keeps_current(self):
        first = list_coloring(self.inst, {0: 0, 1: 0})
        second = list_coloring(self.inst, {0: 0, 1: 0})
        assert update_incumbent(first, second) is first

    def test_strict_improvement_replaces(self):
        worse = list_coloring(self.inst, {0: 0, 1: 0})
        better = list_coloring(self.inst, {0: 1, 1: 1})
        assert update_incumbent(worse, better) is better


class TestExactness:
    def test_matches_oracle_on_random_instances(self):
        mismatches = []
        for seed in range(80):
            cfg = GenConfig(
                n=5 + seed % 8,
                p=[0.25, 0.5, 0.75][seed % 3],
                c=[0.5, 1.0, 1.5][(seed // 3) % 3],
                q=[0.25, 0.5, 0.75][(seed // 9) % 3],
                seed=900 + seed,
                weight_range=None if seed % 2 == 0 else (1, 9),
            )
            inst = generate(cfg)
            expect = oracle_solve(inst)
            report = solve(inst)
            assert report.nodes < 10000  # tree stays finite and small
            if expect.feasible:
                if report.status != OPTIMAL or report.weight != expect.optimum:
                    mismatches.append((seed, expect.optimum, report.status, report.weight))
            elif report.status != INFEASIBLE:
                mismatches.append((seed, None, report.status, report.weight))
        assert mismatches == []

    def test_duplicated_colors_exercise_class_capacities(self):
        # clone colors (same lists, same weight) so classes carry real
        # multiplicities and the capacity rows bind
        for seed in range(40):
            rng = np.random.Generator(np.random.PCG64(777000 + seed))
            base = generate(
                GenConfig(
                    n=5 + seed % 7,
                    p=[0.3, 0.5, 0.7][seed % 3],
                    c=0.6,
                    q=[0.4, 0.7][(seed // 3) % 2],
                    seed=778000 + seed,
                    weight_range=(1, 4),
                )
            )
            next_id = max(base.colors) + 1
            weights = dict(base.weights)
            lists = [set(l) for l in base.lists]
            for j in list(base.colors):
                for _ in range(int(rng.integers(0, 3))):
                    weights[next_id] = base.weights[j]
                    for v in range(base.n):
                        if j in base.lists[v]:
                            lists[v].add(next_id)
                    next_id += 1
            inst = build_instance(
                base.graph, weights.keys(), weights, [sorted(l) for l in lists]
            )
            expect = oracle_solve(inst)
            report = solve(inst)
            if expect.feasible:
                assert report.status == OPTIMAL and report.weight == expect.optimum
            else:
                assert report.status == INFEASIBLE

    def test_deterministic_reports(self):
        cfg = GenConfig(n=10, p=0.5, c=1.0, q=0.5, seed=42)
        inst = generate(cfg)
        a = solve(inst)
        b = solve(inst)
        assert (a.status, a.weight, a.nodes, a.columns_generated, a.pricing_rounds) == (
            b.status,
            b.weight,
            b.nodes,
            b.columns_generated,
            b.pricing_rounds,
        )
        assert a.coloring == b.coloring

    def test_child_bounds_never_regress(self):
        compared = 0
        for seed in range(25):
            cfg = GenConfig(n=10, p=0.5, c=1.5, q=0.5, seed=3000 + seed, weight_range=(1, 10))
            with recorded_events() as events:
                solve(generate(cfg))
            compared += len(events.bound_pairs)
            assert events.bound_regressions() == []
        assert compared > 0

    def test_incumbent_coloring_is_valid(self):
        rng = np.random.Generator(np.random.PCG64(99))
        for _ in range(20):
            cfg = GenConfig(
                n=int(rng.integers(5, 12)),
                p=0.5,
                c=1.0,
                q=0.5,
                seed=int(rng.integers(0, 10**6)),
                weight_range=(1, 7),
            )
            inst = generate(cfg)
            report = solve(inst)
            if report.coloring is not None:
                # list_coloring construction re-validates
                rebuilt = list_coloring(inst, report.coloring.as_dict())
                assert rebuilt.weight == report.weight
