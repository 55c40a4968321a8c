"""The microbenches of the solver's layers, and the machine speed they ran at.

Run with `python -m pytest benches --benchmark-only`; the tier-1 suite
(testpaths = tests) does not collect this directory. When benchmarks are
timed, perfbench/calibrate.py's kernel runs at the start and at the end of
the session, and the terminal summary prints the machine speed at each,
relative to calibrate.REFERENCE_S: 1.0 is the reference machine, 0.5 one
that takes twice as long. The timings are not scaled by it.
"""

import importlib.util
from pathlib import Path

import pytest

CALIBRATE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "calibrate.py"
_START = pytest.StashKey[tuple]()


def pytest_sessionstart(session):
    if session.config.getoption("benchmark_disable"):
        return
    spec = importlib.util.spec_from_file_location("perfbench_calibrate", CALIBRATE_PATH)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    calibrate.kernel()  # the first LP solve pays one-time costs
    session.config.stash[_START] = calibrate, calibrate.sample()


@pytest.hookimpl(trylast=True)  # below pytest-benchmark's table
def pytest_terminal_summary(terminalreporter, config):
    if _START in config.stash:
        calibrate, start = config.stash[_START]
        speeds = [calibrate.REFERENCE_S / s for s in (start, calibrate.sample())]
        terminalreporter.write_sep("-", "machine speed %.2f at start, %.2f at end" % tuple(speeds))
