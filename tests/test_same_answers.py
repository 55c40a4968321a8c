"""tools/same_answers.py, on the grid workload and a stand-in hard panel: it must keep working."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_answers.py"


def same_answers(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, timeout=300
    )


def test_checkout_agrees_with_itself():
    run = same_answers(ROOT, ROOT, "grid-oracle")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[:2] == [
        "grid-oracle: 324 of 324 configs identical",
        "  status and weight equal on 324 of 324",
    ]
    totals = re.fullmatch(r"  nodes (\d+) vs (\d+), pricing rounds (\d+) vs (\d+)", lines[2])
    assert totals and totals[1] == totals[2] and totals[3] == totals[4]


def load_tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("same_answers", TOOL)
    tool = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tool)  # dataclasses look their module up
    monkeypatch.setattr(sys, "path", sys.path[:])  # the tool puts perfbench/ on it
    spec.loader.exec_module(tool)
    return tool


def test_tally_counts_answers_and_tree_sizes(monkeypatch):
    tool = load_tool(monkeypatch)

    def answer(**fields):
        return {**dict.fromkeys(tool.FIELDS, 0), "status": "optimal", "weight": 9, **fields}

    answers_a = [
        ["w", "k1", answer(nodes=5, pricing_rounds=232)],
        ["w", "k2", answer(nodes=1, pricing_rounds=155)],
    ]
    answers_b = [
        ["w", "k1", answer(nodes=3, pricing_rounds=36)],
        ["w", "k2", answer(nodes=1, pricing_rounds=155, weight=10)],
    ]
    counts, first = tool.compare(answers_a, answers_b)
    assert counts["w"].lines("w") == [
        "w: 0 of 2 configs identical",
        "  status and weight equal on 1 of 2",
        "  nodes 6 vs 4, pricing rounds 387 vs 191",
    ]
    assert first == "w k1: nodes 5 vs 3"


def test_a_changed_tree_is_reported(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    bnp = tmp_path / "src" / "listchroma" / "bnp.py"
    bnp.write_text(bnp.read_text().replace('OPTIMAL = "optimal"', 'OPTIMAL = "solved"'))
    run = same_answers(ROOT, tmp_path, "grid-oracle")
    assert run.returncode == 1, run.stderr
    # the grid's first config is feasible
    assert run.stdout.splitlines()[-1].endswith(": status optimal vs solved")


def test_hard_panel_is_named_and_not_run_by_default(monkeypatch, capsys):
    tool = load_tool(monkeypatch)
    assert [tool.instance_key(cfg) for cfg in tool.HARD] == [
        "n50_p0.5_c1.0_q0.5_s3",
        "n50_p0.5_c1.0_q0.5_s7004_w1-10",
        "n70_p0.75_c1.0_q0.5_s7001",
    ]
    # a one-config stand-in, so that this test does not solve the panel
    grid_config = tool.WORKLOADS["grid-oracle"][0]
    monkeypatch.setitem(tool.PANELS, "hard", [grid_config])
    assert tool.main([str(ROOT), str(ROOT), "hard"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["hard: 1 of 1 configs identical", "  status and weight equal on 1 of 1"]
    assert "hard" not in tool.WORKLOADS


def test_unknown_workload_is_a_usage_error():
    run = same_answers(ROOT, ROOT, "no-such-workload")
    assert run.returncode == 2
    assert "no-such-workload" in run.stderr
