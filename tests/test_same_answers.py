"""tools/same_answers.py, run on the grid workload: it must keep working."""

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
    assert run.stdout.splitlines()[0] == "grid-oracle: 324 of 324 configs identical"


def test_a_changed_tree_is_reported(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    bnp = tmp_path / "src" / "listchroma" / "bnp.py"
    bnp.write_text(bnp.read_text().replace('OPTIMAL = "optimal"', 'OPTIMAL = "solved"'))
    run = same_answers(ROOT, tmp_path, "grid-oracle")
    assert run.returncode == 1, run.stderr
    # the grid's first config is feasible
    assert run.stdout.splitlines()[-1].endswith(": status optimal vs solved")


def test_unknown_workload_is_a_usage_error():
    run = same_answers(ROOT, ROOT, "no-such-workload")
    assert run.returncode == 2
    assert "no-such-workload" in run.stderr
