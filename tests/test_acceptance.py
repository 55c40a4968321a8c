"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

The shared fixture solves a 324-instance random grid (n in 6..12, p and q in
{0.25, 0.5, 0.75}, c in {0.5, 1.0, 1.5}, unit and uniform(1,10) weights) with
its audit events recorded, alongside the brute-force oracle on every instance.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from listchroma import assignment as asg
from listchroma.assignment import all_complete, solve_assignment
from listchroma.bnp import INFEASIBLE, OPTIMAL, solve
from listchroma.cli import main, write_instance
from listchroma.core import (
    EPS,
    branch_differ,
    branch_same,
    partition_colors,
    preprocess_singletons,
    root_state,
    validate_coloring,
)
from listchroma.instgen import GenConfig, generate
from listchroma.master import Column, DualSolution, LPResult, add_columns, extract_integer_solution
from listchroma.oracle import oracle_solve

from helpers import (
    SolveEvents,
    k33_mirrored,
    make_instance,
    master_for,
    max_stable_weight,
    petersen,
    random_all_complete,
    recorded_events,
)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({description}): PASS")


def grid_configs() -> list[GenConfig]:
    combos = []
    idx = 0
    for p in (0.25, 0.5, 0.75):
        for q in (0.25, 0.5, 0.75):
            for c in (0.5, 1.0, 1.5):
                for weight_range in (None, (1, 10)):
                    for _rep in range(6):
                        combos.append(
                            GenConfig(
                                n=6 + idx % 7,
                                p=p,
                                c=c,
                                q=q,
                                seed=20000 + idx,
                                weight_range=weight_range,
                            )
                        )
                        idx += 1
    return combos


@dataclass
class SuiteEntry:
    cfg: GenConfig
    inst: object
    report: object
    events: SolveEvents
    oracle: object


@pytest.fixture(scope="module")
def suite() -> list[SuiteEntry]:
    entries = []
    for cfg in grid_configs():
        inst = generate(cfg)
        with recorded_events() as events:
            report = solve(inst)
        entries.append(SuiteEntry(cfg, inst, report, events, oracle_solve(inst)))
    return entries


def test_criterion_1_oracle_equivalence(suite):
    with criterion(1, "oracle equivalence on the random grid"):
        assert len(suite) >= 300
        for e in suite:
            if e.oracle.feasible:
                assert e.report.status == OPTIMAL, e.cfg
                assert e.report.weight == e.oracle.optimum, e.cfg
            else:
                assert e.report.status == INFEASIBLE, e.cfg


def test_criterion_2_infeasibility(suite):
    with criterion(2, "infeasibility certificates"):
        report = solve(k33_mirrored())
        assert report.status == INFEASIBLE
        assert not oracle_solve(k33_mirrored()).feasible

        # instances whose lists conflict to emptiness under the singleton
        # fixpoint must come out infeasible, both paths agreeing
        conflicted = 0
        for seed in range(600):
            cfg = GenConfig(n=6 + seed % 4, p=0.6, c=0.5, q=0.25, seed=60000 + seed)
            inst = generate(cfg)
            if preprocess_singletons(root_state(inst)) is None:
                conflicted += 1
                assert solve(inst).status == INFEASIBLE
                assert not oracle_solve(inst).feasible
            if conflicted >= 15:
                break
        assert conflicted >= 15
        # plus every infeasible instance of the shared suite
        for e in suite:
            if not e.oracle.feasible:
                assert e.report.status == INFEASIBLE


def test_criterion_3_gcp_specialization():
    with criterion(3, "GCP specialization, q=1"):
        for n in range(6, 13):
            for p in (0.25, 0.5, 0.75):
                cfg = GenConfig(n=n, p=p, c=1.0, q=1.0, seed=71000 + 31 * n + int(p * 100))
                inst = generate(cfg)
                part = partition_colors(inst)
                assert len(part.reps) == 1
                chromatic = oracle_solve(inst).optimum
                report = solve(inst)
                assert report.status == OPTIMAL
                assert report.weight == chromatic
        pet = petersen()
        assert solve(pet).weight == 3
        assert oracle_solve(pet).optimum == 3


def test_criterion_4_pricing_certification(suite):
    with criterion(4, "pricing certificates are exhaustive optima"):
        # LP duality: column (S, k) has negative reduced cost iff
        # pi(S) > w_k + gamma_k, where gamma_k is the dual of class k's
        # capacity row (0 for a class without one) and S is a stable set of
        # the vertices whose lists hold color k
        checked = 0
        for e in suite:
            for inst, part, duals in e.events.certifications:
                for rep in part.reps:
                    vmask = sum(1 << v for v, lst in enumerate(inst.lists) if rep in lst)
                    if vmask.bit_count() > 15:
                        continue
                    threshold = inst.weights[rep] + duals.gamma.get(rep, 0.0)
                    assert max_stable_weight(inst.graph.adj, vmask, duals.pi) <= threshold + EPS
                    checked += 1
        assert checked > 1000


def enumerate_residual_optimum(columns, residual_vertices, capacities, weights):
    """Exhaustive min-cost cover of the residual vertices by singleton columns.

    A column costs the weight of its class in the node instance, weights.
    """
    per_vertex = {
        v: [c for c in columns if c.mask == 1 << v] for v in residual_vertices
    }
    best = [None]

    def rec(idx, cost, used):
        if best[0] is not None and cost >= best[0]:
            return
        if idx == len(residual_vertices):
            best[0] = cost
            return
        v = residual_vertices[idx]
        for col in per_vertex[v]:
            k = col.class_rep
            if k in capacities and used.get(k, 0) >= capacities[k]:
                continue
            used[k] = used.get(k, 0) + 1
            rec(idx + 1, cost + weights[k], used)
            used[k] -= 1

    rec(0, 0, {})
    return best[0]


def assert_leaf_read_off(node_inst, res, coloring):
    """The coloring read off a leaf's LP point weighs what the point costs.

    The residual problem is derived from res alone: big columns at one, the
    vertices they leave uncovered, the pool singletons on those vertices,
    and each bounded class's capacity left over by the big columns.
    """
    assert abs(validate_coloring(node_inst, coloring) - res.objective) <= 1e-6
    part = partition_colors(node_inst)
    big = [col for col, x in zip(res.columns, res.values) if col.size >= 2 and x > 0.5]
    covered = 0
    for col in big:
        covered |= col.mask
    residual = [v for v in range(node_inst.n) if not covered >> v & 1]
    singles = [col for col in res.columns if col.size == 1 and col.mask & ~covered]
    capacities = {
        k: len(part.class_members[k]) - sum(col.class_rep == k for col in big)
        for k in part.bounded
    }
    fixed_cost = sum(node_inst.weights[col.class_rep] for col in big)
    residual_best = enumerate_residual_optimum(singles, residual, capacities, node_inst.weights)
    assert residual_best is not None
    assert abs(res.objective - fixed_cost - residual_best) <= 1e-6


def test_criterion_5_singleton_extraction(suite):
    with criterion(5, "integer extraction matches LP objective and enumeration"):
        # every LP leaf of the suite's search trees is read off by extraction
        extractions = 0
        for e in suite:
            for node_inst, res, coloring in e.events.extractions:
                extractions += 1
                assert_leaf_read_off(node_inst, res, coloring)
        assert extractions >= 100

        # direct exercise of the path on optimal degenerate LP points
        inst = make_instance(3, [], [[0, 2], [0], [1, 2]], weights={0: 1, 1: 2, 2: 2})
        mp = master_for(inst)
        add_columns(mp, [Column(0b011, 0), Column(0b100, 1), Column(0b100, 2)])
        res = LPResult(
            objective=3.0,
            values=(1.0, 0.5, 0.5),
            columns=tuple(mp.columns),
            duals=DualSolution((1.0, 0.0, 2.0), {}),
        )
        assert_leaf_read_off(inst, res, extract_integer_solution(mp, res))

        inst2 = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 2, 1: 3})
        mp2 = master_for(inst2)
        add_columns(
            mp2,
            [Column(0b01, 0), Column(0b10, 0), Column(0b01, 1), Column(0b10, 1)],
        )
        res2 = LPResult(
            objective=5.0,
            values=(0.5, 0.5, 0.5, 0.5),
            columns=tuple(mp2.columns),
            duals=DualSolution((2.5, 2.5), {0: 0.5}),
        )
        assert_leaf_read_off(inst2, res2, extract_integer_solution(mp2, res2))


def test_criterion_6_all_complete_cross_check(monkeypatch):
    with criterion(6, "matching vs column generation vs oracle on all-complete"):
        for seed in range(100):
            inst = random_all_complete(seed)
            part = partition_colors(inst)
            assert all_complete(part, inst.graph)
            expect = oracle_solve(inst)
            direct, _ = solve_assignment(inst, part) or (None, None)
            via_matching = solve(inst)
            # bnp reaches all_complete through the module: column generation
            # then has to finish every all-complete node that has a vertex
            with monkeypatch.context() as m:
                m.setattr(asg, "all_complete", lambda partition, graph: not partition.reps)
                via_colgen = solve(inst)
            if expect.feasible:
                assert direct is not None
                assert validate_coloring(inst, direct) == expect.optimum
                assert via_matching.weight == expect.optimum
                assert via_colgen.weight == expect.optimum
            else:
                assert direct is None
                assert via_matching.status == INFEASIBLE
                assert via_colgen.status == INFEASIBLE


def test_criterion_7_desk_scale_cell():
    with criterion(7, "n=50 p=0.5 c=1.0 q=0.5 cell within budget"):
        for i in range(5):
            cfg = GenConfig(n=50, p=0.5, c=1.0, q=0.5, seed=7000 + i)
            inst = generate(cfg)
            start = time.perf_counter()
            report = solve(inst, time_limit=120.0)
            elapsed = time.perf_counter() - start
            assert report.status == OPTIMAL, (i, report.status)
            assert elapsed < 120.0, (i, elapsed)
            if not 10 <= report.nodes <= 10000:
                print(f"warning: node count {report.nodes} outside [10, 10000] band")


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "identical records across repeated runs"):
        inst = generate(GenConfig(n=12, p=0.5, c=1.0, q=0.5, seed=88, weight_range=(1, 6)))
        path = str(tmp_path / "det.col")
        write_instance(path, inst)
        outs = []
        for run in range(2):
            out = str(tmp_path / f"det{run}.sol")
            assert main(["solve", path, "--out", out]) == 0
            with open(out, "r", encoding="utf-8") as fh:
                outs.append(
                    [l for l in fh.read().splitlines() if not l.startswith("time_sec=")]
                )
        assert outs[0] == outs[1]


def test_criterion_9_branching_partitions_optimum(suite):
    with criterion(9, "min over SAME/DIFFER children equals the parent optimum"):
        cases = []
        for e in suite:
            if e.inst.n <= 8 and e.events.root_pair is not None:
                cases.append((e.inst, e.events.root_pair))
        extra_seed = 90000
        while len(cases) < 10 and extra_seed < 90600:
            cfg = GenConfig(n=6 + extra_seed % 3, p=0.5, c=1.0, q=0.75, seed=extra_seed)
            inst = generate(cfg)
            with recorded_events() as events:
                solve(inst)
            if events.root_pair is not None:
                cases.append((inst, events.root_pair))
            extra_seed += 1
        assert len(cases) >= 10
        for inst, (u, v) in cases:
            state = preprocess_singletons(root_state(inst))
            assert state is not None
            same = oracle_solve(branch_same(state, u, v).instance)
            differ = oracle_solve(branch_differ(state, u, v).instance)
            children = [
                x.optimum + state.fixed_weight for x in (same, differ) if x.feasible
            ]
            parent = oracle_solve(inst)
            if parent.feasible:
                assert children and min(children) == parent.optimum
            else:
                assert not children
