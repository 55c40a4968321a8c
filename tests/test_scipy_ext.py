"""scipy's compiled modules, loaded from their files without scipy.optimize's init.

Import order matters only in a fresh interpreter, so those tests run one.
"""

import importlib.machinery
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

from listchroma import GenConfig, generate, oracle_solve
from listchroma.scipy_ext import load_extension

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIG = dict(n=12, p=0.5, c=1.0, q=0.5, seed=3)

PRELUDE = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
SOLVE = f"""
from listchroma import GenConfig, generate, solve
report = solve(generate(GenConfig(**{CONFIG!r})))
print(report.status, report.weight)
"""
LINPROG = """
res = linprog([1, 1], A_ub=[[-1, -2]], b_ub=[-2])
print(res.status, res.fun)
"""
SCIPY_IMPORT = "from scipy.optimize import linprog, linear_sum_assignment\n"
# the binding as the first import left it; the second must reuse it
FIRST_CORE = 'core = sys.modules["scipy.optimize._highspy._core"]\n'
SCIPY_FIRST = SCIPY_IMPORT + FIRST_CORE + "import listchroma\n"
SCIPY_LAST = "import listchroma\n" + FIRST_CORE + SCIPY_IMPORT
SAME_MODULES = """
import scipy.optimize
from listchroma import assignment, master
assert master._highs is core is sys.modules["scipy.optimize._highspy._core"]
assert assignment.linear_sum_assignment is scipy.optimize.linear_sum_assignment
"""


def run_fresh(code: str) -> list[str]:
    """stdout lines of code run in a fresh interpreter with src on its path."""
    run = subprocess.run(
        [sys.executable, "-c", PRELUDE + code], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def expected_solve_line() -> str:
    optimum = oracle_solve(generate(GenConfig(**CONFIG))).optimum
    return f"optimal {optimum}"


def test_import_skips_scipy_optimize_and_still_solves():
    lines = run_fresh("import listchroma\nprint('scipy.optimize' in sys.modules)\n" + SOLVE)
    assert lines == ["False", expected_solve_line()]


@pytest.mark.parametrize("order", [SCIPY_FIRST, SCIPY_LAST], ids=["scipy_first", "scipy_last"])
def test_either_import_order_shares_one_copy_of_each_module(order):
    lines = run_fresh(order + SAME_MODULES + LINPROG + SOLVE)
    assert lines == ["0 1.0", expected_solve_line()]


def test_missing_module_names_the_directory_and_version():
    name = "scipy.optimize._no_such_module"
    with pytest.raises(ImportError) as info:
        load_extension(name)
    message = str(info.value)
    assert str(Path(scipy.__path__[0], "optimize")) in message
    assert scipy.__version__ in message
    assert name not in sys.modules


def test_failed_load_leaves_no_module_behind(monkeypatch):
    # a module left registered would be returned, empty, by the next call
    name = "scipy.optimize._lsap"
    monkeypatch.delitem(sys.modules, name)

    def failing(self, module):
        raise ImportError("initialisation failed")

    monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module", failing)
    for _ in range(2):
        with pytest.raises(ImportError, match="initialisation failed"):
            load_extension(name)
        assert name not in sys.modules
