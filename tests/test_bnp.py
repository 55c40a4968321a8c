import sys
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from listchroma import assignment as asg, bnp
from listchroma.bnp import (
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    TIME_LIMIT,
    SolveReport,
    inherit_columns,
    select_branching_pair,
    solve,
    update_incumbent,
)
from listchroma.core import (
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
)
from listchroma.instgen import GenConfig, generate
from listchroma.master import (
    Column,
    DualSolution,
    LPResult,
    add_columns,
    column_fault,
    init_with_dummies,
    solve_lp,
)
from listchroma.oracle import oracle_solve
from listchroma.pricing import SHARED_SEARCH_DENSITY, price_all

from conftest import k33_mirrored, make_instance, petersen, recorded_events


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
        monkeypatch.setattr(asg, "all_complete", lambda *a: False)
        without = solve(inst)
        assert with_asg.weight == without.weight == 8
        assert without.columns_generated > 0

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
        inst = make_instance(3, [], [[0, 1]] * 3)
        state = root_state(inst)
        child = preprocess_singletons(branch_differ(state, 0, 1))
        part = partition_colors(child.instance)
        cols = [Column(0b011, 0), Column(0b101, 0)]
        kept = inherit_columns(cols, state.merge_map, child, part)
        assert [c.mask for c in kept] == [0b101]

    def test_same_rewrites_merged_vertex(self):
        # merge vertex 2 into 0; column {2,1} becomes {0,1}
        inst = make_instance(3, [], [[0, 1]] * 3)
        state = root_state(inst)
        child = preprocess_singletons(branch_same(state, 0, 2))
        part = partition_colors(child.instance)
        kept = inherit_columns([Column(0b110, 0)], state.merge_map, child, part)
        assert [c.mask for c in kept] == [0b11]

    def test_same_drops_newly_unstable(self):
        # 1 adjacent to 0: after merging 2 into 0, {2,1} hits the edge (0,1)
        inst = make_instance(3, [(0, 1)], [[0, 1]] * 3)
        state = root_state(inst)
        child = preprocess_singletons(branch_same(state, 0, 2))
        part = partition_colors(child.instance)
        assert inherit_columns([Column(0b110, 0)], state.merge_map, child, part) == []

    def test_same_deduplicates_rewrites(self):
        inst = make_instance(3, [], [[0, 1]] * 3)
        state = root_state(inst)
        child = preprocess_singletons(branch_same(state, 0, 2))
        part = partition_colors(child.instance)
        kept = inherit_columns(
            [Column(0b110, 0), Column(0b011, 0)], state.merge_map, child, part
        )
        assert [c.mask for c in kept] == [0b11]

    def test_class_that_lost_u_is_dropped(self):
        # color 1 is not shared by both endpoints: after SAME(0,2) the merged
        # list is {0}, so class-1 columns through the merged vertex die
        inst = make_instance(3, [], [[0, 1], [0, 1], [0]])
        state = root_state(inst)
        child = preprocess_singletons(branch_same(state, 0, 2))
        part = partition_colors(child.instance)
        kept = inherit_columns([Column(0b011, 1)], state.merge_map, child, part)
        assert kept == []

    def test_fixing_after_same_renumbers_past_both(self):
        # the parent is itself a SAME child (root 1 merged into 0), so its ids
        # are not root ids; SAME(2,3) there leaves the merged vertex the list
        # {0}, so preprocessing fixes it: columns through parent vertex 2 or 3
        # die, and parent vertex 4 shifts down past both of them
        inst = make_instance(6, [], [[0, 1, 2]] * 3 + [[0, 1], [0, 2], [0, 1, 2]])
        parent = preprocess_singletons(branch_same(root_state(inst), 0, 1))
        assert parent.merge_map == {0: 0, 1: 0, 2: 1, 3: 2, 4: 3, 5: 4}
        child = preprocess_singletons(branch_same(parent, 2, 3))
        assert child.fixed == ((3, 0), (4, 0))
        part = partition_colors(child.instance)
        cols = [Column(0b10100, 1), Column(0b10010, 1), Column(0b00011, 1)]
        kept = inherit_columns(cols, parent.merge_map, child, part)
        assert [c.mask for c in kept] == [0b110, 0b011]

    def test_inherited_column_charged_child_weight(self):
        # SAME(0,1) leaves the merged vertex the list {0}: preprocessing fixes
        # color 0 there, so color 0 costs nothing more in the child, and the
        # class-0 column {2,3} outside the fixed vertex survives
        inst = make_instance(4, [], [[0, 1], [0, 2], [0, 1], [0, 1]], weights={0: 5, 1: 1, 2: 1})
        state = root_state(inst)
        child = preprocess_singletons(branch_same(state, 0, 1))
        assert child.fixed == ((0, 0), (1, 0)) and child.instance.weights[0] == 0
        part = partition_colors(child.instance)
        kept = inherit_columns([Column(0b1100, 0)], state.merge_map, child, part)
        assert kept == [Column(0b11, 0)]
        mp = init_with_dummies(child, part)
        add_columns(mp, kept)
        assert mp.cost(kept[0]) == 0
        res = solve_lp(mp)
        assert res.values[-1] == pytest.approx(1.0)
        assert res.objective == pytest.approx(0.0)


    def test_child_master_is_dummies_then_inherited(self, monkeypatch):
        kept_lists, seeded = [], []
        inherit, init = bnp.inherit_columns, bnp.init_with_dummies

        def recording_inherit(*args):
            kept_lists.append(inherit(*args))
            return kept_lists[-1]

        def recording_init(state, partition, inherited=()):
            mp = init(state, partition, inherited)
            seeded.append((state.instance.n, list(mp.columns)))
            return mp

        monkeypatch.setattr(bnp, "inherit_columns", recording_inherit)
        monkeypatch.setattr(bnp, "init_with_dummies", recording_init)
        # branches at the root, so children inherit columns
        solve(generate(GenConfig(n=18, p=0.5, c=1.0, q=0.5, seed=11)))
        (root_n, root_cols), *children = seeded
        assert root_cols == [Column(1 << v, None) for v in range(root_n)]
        assert len(children) == len(kept_lists) > 0 and any(kept_lists)
        for (n, cols), kept in zip(children, kept_lists):
            assert cols == [Column(1 << v, None) for v in range(n)] + kept


def per_bit_inherit(parent_cols, parent_merge_map, state, partition):
    """inherit_columns as it was: each column through the set of its translated vertices."""
    vmap = {parent_merge_map[r]: cur for r, cur in state.merge_map.items()}
    out, seen = [], set()
    for col in parent_cols:
        moved = {vmap.get(v) for v in bits(col.mask)}
        rep = partition.rep_of.get(col.class_rep)
        if None in moved or rep is None:
            continue
        new = Column(sum(1 << nv for nv in moved), rep)
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
def test_inherit_matches_per_bit_reference(data):
    """The chunk-table translation keeps the per-bit translation's columns and order."""
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
    child = preprocess_singletons(branch(parent, *pair))
    assume(child is not None and child.instance.n > 0)
    child_part = partition_colors(child.instance)
    assert inherit_columns(pool, parent.merge_map, child, child_part) == per_bit_inherit(
        pool, parent.merge_map, child, child_part
    )


class TestDive:
    def test_optimum_arrives_at_the_root(self):
        # c7 seed 7001: without the dive its optimum first appeared at node
        # 24 of a 37-node tree
        report = solve(generate(GenConfig(n=50, p=0.5, c=1.0, q=0.5, seed=7001)))
        assert (report.status, report.weight, report.incumbent_node) == (OPTIMAL, 10, 1)
        assert report.nodes < 37

    def test_incumbent_node_is_where_the_coloring_was_offered(self, monkeypatch):
        nodes, offers = [], []
        preprocess, update = bnp.preprocess_singletons, bnp.update_incumbent

        def counting(pre_state):
            nodes.append(pre_state)
            return preprocess(pre_state)

        def recording(current, candidate):
            offers.append((len(nodes), candidate))
            return update(current, candidate)

        monkeypatch.setattr(bnp, "preprocess_singletons", counting)
        monkeypatch.setattr(bnp, "update_incumbent", recording)
        # the root's dive offers weight 4, its SAME child the optimum 3
        report = solve(generate(GenConfig(n=10, p=0.5, c=1.0, q=0.5, seed=69)))
        assert [(node, c.weight) for node, c in offers] == [(1, 4), (2, 3)]
        assert (report.weight, report.incumbent_node) == (3, 2)
        assert offers[-1][1] is report.coloring

    def test_no_incumbent_no_node(self):
        report = solve(k33_mirrored())
        assert report.coloring is None and report.incumbent_node is None


class TestPriceOut:
    INST = generate(GenConfig(n=15, p=0.5, c=1.0, q=0.5, seed=3))

    def root_master(self):
        state = preprocess_singletons(root_state(self.INST))
        return init_with_dummies(state, partition_colors(state.instance))

    def test_counts_what_solve_reports_and_proves_the_optimum(self):
        solved = solve(self.INST)
        assert (solved.status, solved.nodes, solved.pricing_rounds) == (OPTIMAL, 1, 8)
        mp, report = self.root_master(), SolveReport(INFEASIBLE)
        res = bnp.price_out(mp, report, Deadline(None))
        counters = attrgetter("pricing_rounds", "mwss_nodes", "columns_generated")
        assert counters(report) == counters(solved)
        assert report.mwss_nodes > 0 and report.columns_generated == len(mp.columns) - mp.instance.n
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
