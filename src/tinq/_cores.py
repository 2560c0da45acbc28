"""scipy's compiled solver cores, loaded without scipy.optimize's package init.

``scipy/optimize/__init__.py`` imports all of scipy.optimize, which is most of
a cold CLI start and most of a drop run's memory, while tinq's matching and
GP layers need only two compiled extensions: ``_lsap`` (the assignment
solver behind ``linear_sum_assignment``) and ``_lbfgsb`` (L-BFGS-B's step
``setulb``).
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder


def scipy_core(name: str):
    """The compiled extension ``scipy.optimize.<name>``, loaded from scipy's
    install directory without running ``scipy/optimize/__init__.py``.

    The module is registered in ``sys.modules`` under its real name, so a
    later ``import scipy.optimize`` reuses it, and a module already imported
    (with or without the package) is returned as it is.
    """
    full = f"scipy.optimize.{name}"
    if full in sys.modules:
        return sys.modules[full]
    # find_spec of a top-level package locates it without importing it
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    finder = FileFinder(os.path.join(scipy_dir, "optimize"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(full)
    if spec is None:
        raise ModuleNotFoundError(f"no compiled module {full} in {scipy_dir}", name=full)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module
