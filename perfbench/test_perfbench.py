"""Checks on the benchmark itself: run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

import calibrate
import run
import spans
from workloads import ORACLE_WORKLOADS, WORKLOADS, instance_key, load_references

sys.path.insert(0, run.SRC)
import listchroma as lc  # noqa: E402

REFS = load_references()
SPEC = json.load(open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"), encoding="utf-8"))
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def small_slice(name: str) -> list[dict]:
    """A few seconds of each workload: its cheapest large instance, or the grid's n <= 8."""
    cfgs = WORKLOADS[name]
    if name == "grid-oracle":
        return [cfg for cfg in cfgs if cfg["n"] <= 8]
    return [cfg for cfg in cfgs if cfg["seed"] == 7002]


def traced_pass(name: str, seed: int, full: bool = False):
    cfgs = WORKLOADS[name] if full else small_slice(name)
    instances = [(instance_key(cfg), lc.generate(lc.GenConfig(**cfg))) for cfg in cfgs]
    order = list(range(len(instances)))
    random.Random(seed).shuffle(order)
    clock = {"stop": float("inf"), "deadline": perf_counter() + 120, "expected": {}}
    calib = calibrate.Calibration(run.CHECKPOINT_EVERY_S)
    record = run.run_pass(lc, name, instances, REFS, order, clock, calib, spans.Tracer())
    assert record["failed"] == 0 and record["complete"]
    assert record["plain"].keys() == record["times"].keys() == record["raw"].keys()
    return spans.layer_metrics(record["tracer"], sum(record["raw"].values()))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_fire_where_the_layer_runs(name):
    m = traced_pass(name, seed=1)
    for metric in ("master.solve_lp.calls", "pricing.price_all.calls",
                   "pricing.mwss_search.calls", "pricing.mwss_nodes", "bnp.nodes",
                   "core.preprocess_singletons.calls", "assignment.all_complete.calls"):
        assert m[metric] > 0, metric
    if name in ORACLE_WORKLOADS:
        assert m["assignment.solve_assignment.calls"] > 0
        assert m["oracle.assignments_explored"] > 0
        assert m["share.oracle"] > 0
    else:
        assert m["oracle.assignments_explored"] == 0


def test_traced_shares_match_the_workload_profile():
    """The profile each workload was chosen for; the grid's small slice has cheap oracle runs."""
    gcp, dense = (traced_pass(name, seed=2) for name in ("gcp-lp", "dense-pricing"))
    assert gcp["share.lp"] > gcp["share.pricing"]
    assert dense["share.pricing"] > dense["share.lp"]
    grid = traced_pass("grid-oracle", seed=2, full=True)
    assert grid["share.oracle"] > 1 - grid["share.oracle"]


def test_traced_run_past_its_deadline_still_reports():
    """The first pass stops at the deadline: the run fails but prints every per-layer metric."""
    cfgs = small_slice("grid-oracle")
    instances = [(instance_key(cfg), lc.generate(lc.GenConfig(**cfg))) for cfg in cfgs]
    clock = {"stop": float("inf"), "deadline": perf_counter() + 0.5, "expected": {}}
    calib = calibrate.Calibration(run.CHECKPOINT_EVERY_S)
    record = run.run_pass(lc, "grid-oracle", instances, REFS, list(range(len(instances))),
                          clock, calib, spans.Tracer())
    assert not record["complete"] and record["failed"] == 1
    units = run.load_metric_units(trace=True)
    values, counts = run.per_layer([record], 0.1, calib, units)
    assert set(values) == set(units) and counts["complete_passes"] == 0


def test_calibration_scales_by_the_samples_around_each_time(monkeypatch):
    samples = iter([0.5 * calibrate.REFERENCE_S, 1.5 * calibrate.REFERENCE_S])
    monkeypatch.setattr(calibrate, "sample", lambda: next(samples))
    calib = calibrate.Calibration(every_s=0.0)
    into = {}
    calib.add(into, "a", 2.0)
    assert into == {}
    calib.checkpoint()
    assert into == {"a": pytest.approx(2.0)}
    assert calib.speed() == pytest.approx(1.0)


def test_wrappers_are_removed_after_the_block():
    import listchroma.bnp as bnp
    import listchroma.pricing as pricing

    before = (bnp.solve_lp, bnp.price_all, pricing.mwss_search)
    with spans.instrumented(spans.Tracer()):
        assert bnp.solve_lp is not before[0]
    assert (bnp.solve_lp, bnp.price_all, pricing.mwss_search) == before


@pytest.mark.parametrize("name", ["dense-pricing", "grid-oracle"])
def test_counts_repeat_exactly(name):
    first = traced_pass(name, seed=3)
    second = traced_pass(name, seed=3)
    shuffled = traced_pass(name, seed=4)
    for metric in COUNTS:
        assert first[metric] == second[metric] == shuffled[metric], metric


def test_metric_names_match_benchmark_json():
    layer = set(spans.layer_metrics(spans.Tracer(), 1.0)) | {
        "instgen.generate.s", "trace.overhead_frac"}
    assert layer == set(run.load_metric_units(trace=True))
    record = {"times": {"a": 0.5}, "walls": {"a": 0.6}, "failed": 0}
    values, _ = run.end_to_end([record], setup_s=1.0)
    assert set(values) == set(run.load_metric_units(trace=False))


def test_references_cover_every_instance():
    for name, cfgs in WORKLOADS.items():
        for cfg in cfgs:
            ref = REFS[instance_key(cfg)]
            assert ref["status"] in (lc.OPTIMAL, lc.INFEASIBLE)
            assert (ref["weight"] is None) == (ref["status"] == lc.INFEASIBLE)
            if name in ORACLE_WORKLOADS:
                assert ref["source"] == "oracle_solve"
            else:
                assert "validate_coloring" in ref["source"]


def test_exits_nonzero_without_sources(tmp_path):
    root = os.path.dirname(run.HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gcp-lp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
