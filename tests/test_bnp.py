import sys

import numpy as np
import pytest

from listchroma import bnp
from listchroma.bnp import (
    INFEASIBLE,
    OPTIMAL,
    TIME_LIMIT,
    SolveTrace,
    inherit_columns,
    select_branching_pair,
    solve,
    update_incumbent,
)
from listchroma.core import (
    branch_differ,
    branch_same,
    list_coloring,
    partition_colors,
    preprocess_singletons,
    root_state,
)
from listchroma.instgen import GenConfig, generate
from listchroma.master import Column, DualSolution, LPResult
from listchroma.oracle import oracle_solve

from conftest import k33_mirrored, make_instance, petersen


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
        # Edgeless, one shared color against a private one per vertex: the LP
        # spreads pi over all vertices, so the exact pricing of the shared
        # class includes n vertices in a row, more than the default limit.
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

    def test_assignment_module_can_be_disabled(self):
        inst = make_instance(2, [(0, 1)], [[0, 1], [0, 1]], weights={0: 5, 1: 3})
        with_asg = solve(inst, use_assignment=True)
        without = solve(inst, use_assignment=False)
        assert with_asg.weight == without.weight == 8


def fake_lp(inst, columns, values):
    return LPResult(
        objective=sum(c.cost * x for c, x in zip(columns, values)),
        values=tuple(values),
        columns=tuple(columns),
        duals=DualSolution(tuple([0.0] * inst.n), {}),
    )


class TestSelectBranchingPair:
    def test_two_overlapping_halves(self):
        inst = make_instance(3, [], [[0]] * 3)
        cols = [Column(0b011, 0, 1), Column(0b101, 0, 1)]
        res = fake_lp(inst, cols, [0.5, 0.5])
        assert select_branching_pair(res) == (0, 2)

    def test_fallback_inside_s1(self):
        inst = make_instance(3, [], [[0]] * 3)
        cols = [Column(0b011, 0, 1), Column(0b100, 0, 1)]
        res = fake_lp(inst, cols, [0.5, 1.0])
        assert select_branching_pair(res) == (0, 1)

    def test_most_fractional_wins(self):
        inst = make_instance(4, [], [[0]] * 4)
        cols = [Column(0b0011, 0, 1), Column(0b1100, 0, 1), Column(0b0101, 0, 1)]
        res = fake_lp(inst, cols, [0.9, 0.3, 0.4])
        u, v = select_branching_pair(res)
        # S1 is the 0.4 column {0,2}; first other positive column through 0
        assert (u, v) == (0, 1)

    def test_requires_fractional_big_column(self):
        inst = make_instance(2, [], [[0]] * 2)
        cols = [Column(0b01, 0, 1), Column(0b10, 0, 1)]
        res = fake_lp(inst, cols, [1.0, 1.0])
        with pytest.raises(ValueError):
            select_branching_pair(res)


class TestInheritColumns:
    def test_differ_drops_joined_pair(self):
        inst = make_instance(3, [], [[0, 1]] * 3)
        state = root_state(inst)
        child = preprocess_singletons(branch_differ(state, 0, 1))
        part = partition_colors(child.instance)
        cols = [Column(0b011, 0, 1), Column(0b101, 0, 1)]
        kept = inherit_columns(cols, child, part)
        assert [c.mask for c in kept] == [0b101]

    def test_same_rewrites_merged_vertex(self):
        # merge vertex 2 into 0; column {2,1} becomes {0,1}
        inst = make_instance(3, [], [[0, 1]] * 3)
        child = preprocess_singletons(branch_same(root_state(inst), 0, 2))
        part = partition_colors(child.instance)
        kept = inherit_columns([Column(0b110, 0, 1)], child, part)
        assert [c.mask for c in kept] == [0b11]

    def test_same_drops_newly_unstable(self):
        # 1 adjacent to 0: after merging 2 into 0, {2,1} hits the edge (0,1)
        inst = make_instance(3, [(0, 1)], [[0, 1]] * 3)
        child = preprocess_singletons(branch_same(root_state(inst), 0, 2))
        part = partition_colors(child.instance)
        assert inherit_columns([Column(0b110, 0, 1)], child, part) == []

    def test_same_deduplicates_rewrites(self):
        inst = make_instance(3, [], [[0, 1]] * 3)
        child = preprocess_singletons(branch_same(root_state(inst), 0, 2))
        part = partition_colors(child.instance)
        kept = inherit_columns(
            [Column(0b110, 0, 1), Column(0b011, 0, 1)], child, part
        )
        assert [c.mask for c in kept] == [0b11]

    def test_class_that_lost_u_is_dropped(self):
        # color 1 is not shared by both endpoints: after SAME(0,2) the merged
        # list is {0}, so class-1 columns through the merged vertex die
        inst = make_instance(3, [], [[0, 1], [0, 1], [0]])
        child = preprocess_singletons(branch_same(root_state(inst), 0, 2))
        part = partition_colors(child.instance)
        kept = inherit_columns([Column(0b011, 1, 1)], child, part)
        assert kept == []


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
            from listchroma.core import build_instance

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
        for seed in range(25):
            cfg = GenConfig(n=9, p=0.5, c=1.0, q=0.5, seed=3000 + seed)
            inst = generate(cfg)
            trace = SolveTrace()
            solve(inst, trace=trace)
            assert trace.bound_violations == []

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
