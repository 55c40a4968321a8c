"""tools/code_lines.py on a sample file: what counts as a code line."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""A docstring."""

# a comment
def f(x):
    return x
'''


def code_lines(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, timeout=60
    )


def test_sample_counts_non_blank_and_code_lines(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    run = code_lines(tmp_path)
    assert run.returncode == 0, run.stderr
    # four non-blank lines, of which the docstring and the comment are no code
    assert run.stdout.splitlines()[1:] == [
        f"        4      2  {tmp_path / 'sample.py'}",
        "        4      2  total",
    ]


def test_each_directory_totals_before_the_overall_total(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    for d in (one, two):
        d.mkdir()
    (one / "sample.py").write_text(SAMPLE)
    (two / "a.py").write_text("x = 1\n")
    (two / "b.py").write_text(SAMPLE)
    run = code_lines(two, one)
    assert run.returncode == 0, run.stderr
    # the directories in the order given, each file under its own
    assert run.stdout.splitlines()[1:] == [
        f"        1      1  {two / 'a.py'}",
        f"        4      2  {two / 'b.py'}",
        f"        5      3  total {two}",
        f"        4      2  {one / 'sample.py'}",
        f"        4      2  total {one}",
        "        9      5  total",
    ]


def test_missing_directory_is_a_usage_error(tmp_path):
    run = code_lines(tmp_path / "absent")
    assert run.returncode == 2
    assert "absent" in run.stderr
