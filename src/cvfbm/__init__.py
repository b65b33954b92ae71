"""Complex-valued fractional Brownian fields: synthesis, subsampling, and
reconstruction by local averaging, thin-plate splines, and compressive
sampling, with a benchmark harness for comparing the three.

Each module's ``__all__`` lists its public names; the package exports their
union."""

from . import baselines, cs, fileio, grid, harness, metrics, psf, sampling, synthesis
from .baselines import *  # noqa: F403
from .cs import *  # noqa: F403
from .fileio import *  # noqa: F403
from .grid import *  # noqa: F403
from .harness import *  # noqa: F403
from .metrics import *  # noqa: F403
from .psf import *  # noqa: F403
from .sampling import *  # noqa: F403
from .synthesis import *  # noqa: F403

__version__ = "1.0.0"

_MODULES = (baselines, cs, fileio, grid, harness, metrics, psf, sampling, synthesis)
__all__ = sorted({name for module in _MODULES for name in module.__all__})
