"""Lower bounds on the absorption of a planar-slab beam splitter.

Evaluates complex slab optics under a single-resonance Drude-Lorentz
dielectric, minimizes absorption subject to a splitting-ratio constraint,
and chains the result through a spontaneous-decay line-width bound to a
closed-form minimal absorption probability.
"""

from . import dielectric, linewidth, optimizer, slab
from .dielectric import *  # noqa: F401,F403
from .linewidth import *  # noqa: F401,F403
from .optimizer import *  # noqa: F401,F403
from .slab import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *dielectric.__all__,
    *slab.__all__,
    *optimizer.__all__,
    *linewidth.__all__,
]
