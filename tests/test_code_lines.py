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


def test_missing_directory_is_a_usage_error(tmp_path):
    run = code_lines(tmp_path / "absent")
    assert run.returncode == 2
    assert "absent" in run.stderr
