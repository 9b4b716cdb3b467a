"""Dynamics harmonic analysis toolkit.

Finite-group harmonic analysis (isotypic decompositions, commutant
calculus), simulators for symmetric stochastic linear systems, and
symmetry-aware global linear (Koopman) model fitting and analysis.
"""

# Each module's ``__all__`` is its public API; the package re-exports all of them.
from .groups import *  # noqa: F401,F403
from .isotypic import *  # noqa: F401,F403
from .commutant import *  # noqa: F401,F403
from .nets import *  # noqa: F401,F403
from .systems import *  # noqa: F401,F403
from .koopman import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
