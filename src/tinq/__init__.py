"""TIN GDoF regions, assignment-based minimal power control, weighted
sum-GDoF solvers, and distributed D2D link scheduling.

Each submodule declares its public names in its own ``__all__``; the package
re-exports exactly those, and ``tinq.__all__`` is their union.
"""

__version__ = "0.1.0"

from . import exceptions, fixtures, matching, model, optimize, power, region, schedule, sim
from .exceptions import *  # noqa: F403
from .fixtures import *  # noqa: F403
from .matching import *  # noqa: F403
from .model import *  # noqa: F403
from .optimize import *  # noqa: F403
from .power import *  # noqa: F403
from .region import *  # noqa: F403
from .schedule import *  # noqa: F403
from .sim import *  # noqa: F403

__all__ = [name for module in (exceptions, fixtures, matching, model, optimize, power,
                               region, schedule, sim)
           for name in module.__all__]
