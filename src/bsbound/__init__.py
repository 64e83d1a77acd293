"""Lower bounds on the absorption of a planar-slab beam splitter.

Evaluates complex slab optics under a single-resonance Drude-Lorentz
dielectric, minimizes absorption subject to a splitting-ratio constraint,
and chains the result through a spontaneous-decay line-width bound to a
closed-form minimal absorption probability.
"""

from .dielectric import (
    ComplexIndex,
    DrudeLorentzModel,
    QuadratureError,
    Resonance,
    low_frequency_approx,
    refractive_index,
    superconvergence_residual,
    susceptibility,
)
from .linewidth import (
    DecayContext,
    dipole_sq_from_static_index,
    free_space_decay_rate,
    local_field_factor,
    min_absorption_probability,
    scaled_linewidth_bound,
)
from .optimizer import (
    AlphaExtraction,
    MinimizeConfig,
    MinimizeResult,
    SweepRow,
    extract_alpha,
    minimize_absorption,
    solve_thickness_for_ratio,
    sweep,
)
from .slab import (
    ScaledSlabParams,
    SlabResponse,
    evaluate,
    reflection,
    transmission,
    working_index,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Resonance",
    "DrudeLorentzModel",
    "ComplexIndex",
    "QuadratureError",
    "susceptibility",
    "refractive_index",
    "low_frequency_approx",
    "superconvergence_residual",
    "ScaledSlabParams",
    "SlabResponse",
    "transmission",
    "reflection",
    "working_index",
    "evaluate",
    "MinimizeConfig",
    "MinimizeResult",
    "AlphaExtraction",
    "SweepRow",
    "solve_thickness_for_ratio",
    "minimize_absorption",
    "extract_alpha",
    "sweep",
    "DecayContext",
    "free_space_decay_rate",
    "dipole_sq_from_static_index",
    "local_field_factor",
    "scaled_linewidth_bound",
    "min_absorption_probability",
]
