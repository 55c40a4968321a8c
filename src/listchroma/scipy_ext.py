"""scipy's compiled modules that the solver calls, loaded from their files.

The solver calls two extension modules of scipy: the HiGHS binding
scipy.optimize._highspy._core (master) and scipy.optimize._lsap, whose
linear_sum_assignment is scipy.optimize's (assignment). Importing either by
name first runs scipy/optimize/__init__.py, which pulls in scipy.linalg,
scipy.special, scipy.fft and the rest of scipy.optimize: about three
quarters of the time importing listchroma would take, for code the solver
never runs.

load_extension loads such a module straight from its file under scipy's
install directory, scipy/optimize/_highspy/_core.<suffix> and
scipy/optimize/_lsap.<suffix>. This module is the only code that relies on
that private layout, which the scipy>=1.17 floor pins. The module is
registered in sys.modules under its dotted name, and one already there is
returned as it is, so a later `import scipy.optimize` reuses the same module
object: the pybind11 binding is initialised once, and
scipy.optimize.linear_sum_assignment is the function the solver calls.
Python binds a submodule to its package only when it loads it, so after
that later import the package has no _lsap or _highspy._core attribute;
`from ... import` and `import ... as` still find both in sys.modules.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path
from types import ModuleType

import scipy


def load_extension(name: str) -> ModuleType:
    """The compiled module with dotted name scipy.<...>, loaded from its file.

    Raises ImportError naming the directory searched and scipy's version
    when no file with an extension suffix exists for name.
    """
    if name in sys.modules:
        return sys.modules[name]
    base = Path(scipy.__path__[0], *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = base.with_name(base.name + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(
            f"no compiled module {name} in {base.parent} (scipy {scipy.__version__})",
            name=name,
        )
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]  # as importlib does: a failed load leaves no module behind
        raise
    return module
