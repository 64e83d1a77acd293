"""Spontaneous-decay lower bound on the slab line width and the final
minimal absorption probability.

The scaled pipeline (scaled_linewidth_bound, min_absorption_probability)
is constant-free by construction; only the unscaled dipole operations use
the physical constants below.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .dielectric import _Checked

__all__ = [
    "HBAR",
    "EPSILON_0",
    "SPEED_OF_LIGHT",
    "DecayContext",
    "free_space_decay_rate",
    "dipole_sq_from_static_index",
    "local_field_factor",
    "scaled_linewidth_bound",
    "min_absorption_probability",
]

# CODATA 2018; c and hbar = h/2pi are exact by SI definition
HBAR = 1.054571817e-34  # J s
EPSILON_0 = 8.8541878128e-12  # F / m
SPEED_OF_LIGHT = 299792458.0  # m / s
# 3 pi hbar eps0 c^3, the denominator of the free-space decay rate
_RATE_DENOMINATOR = 3.0 * math.pi * HBAR * EPSILON_0 * SPEED_OF_LIGHT**3


class DecayContext(_Checked, namedtuple("DecayContext", "n_vt eta")):
    """Scaled inputs of the line-width bound.

    n_vt is the number of radiating dipoles in a cube of side one
    transition wavelength (lambda_t = 2 pi c / omega_t); eta is the static
    refractive index, which must come from the constrained minimization.
    """

    __slots__ = ()

    def _check(self) -> None:
        n_vt, eta = self
        if not n_vt > 0:
            raise ValueError(f"n_vt must be positive, got {n_vt}")
        if not eta > 1:
            raise ValueError(f"eta must exceed 1, got {eta}")


def _require_finite(**values: float) -> None:
    """ValueError naming every argument that is nan, inf or -inf."""
    bad = [f"{name}={value!r}" for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(f"arguments must be finite, got {', '.join(bad)}")


def _product(
    what: str,
    factors: tuple[float, ...],
    divisors: tuple[float, ...] = (),
    nonzero: bool = False,
    **inputs: float,
) -> float:
    """prod(factors) / prod(divisors), or ValueError naming `what` and inputs.

    Multiplies the frexp mantissas and sums the exponents, so no intermediate
    overflows or underflows and, wherever the result is normal, each step
    rounds as * does.  Only the final ldexp can leave float range: its
    OverflowError becomes "overflows"; with nonzero, a result of 0.0
    "underflows to zero".
    """
    mantissa, exponent = 1.0, 0
    for value in factors:
        m, e = math.frexp(value)
        mantissa, exponent = mantissa * m, exponent + e
    for value in divisors:
        m, e = math.frexp(value)
        mantissa, exponent = mantissa / m, exponent - e
    try:
        value = math.ldexp(mantissa, exponent)
        if not (nonzero and value == 0.0):
            return value
        problem = "underflows to zero"
    except OverflowError:
        problem = "overflows"
    at = ", ".join(f"{name}={v!r}" for name, v in inputs.items())
    raise ValueError(f"{what} {problem} at {at}")


def free_space_decay_rate(omega: float, dipole_sq: float) -> float:
    """Free-space rate omega^3 d^2 / (3 pi hbar eps0 c^3) in s^-1."""
    _require_finite(omega=omega, dipole_sq=dipole_sq)
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if dipole_sq < 0:
        raise ValueError(f"dipole_sq must be non-negative, got {dipole_sq}")
    return _product(
        "free-space decay rate", (omega, omega, omega, dipole_sq), (_RATE_DENOMINATOR,),
        omega=omega, dipole_sq=dipole_sq,
    )


def dipole_sq_from_static_index(
    eta: float, omega_t: float, number_density: float
) -> float:
    """Squared dipole matrix element from the static index.

    Inverts the zero-frequency susceptibility of an isotropic two-level
    ensemble: d^2 = 3 hbar omega_t eps0 (eta^2 - 1) / (2 n).  eta = 1 is
    the vacuum limit with d^2 = 0.
    """
    _require_finite(eta=eta, omega_t=omega_t, number_density=number_density)
    if eta < 1:
        raise ValueError(f"eta must be at least 1, got {eta}")
    if omega_t <= 0 or number_density <= 0:
        raise ValueError("omega_t and number_density must be positive")
    return _product(
        "squared dipole",
        (3.0, HBAR, omega_t, EPSILON_0, eta - 1.0, eta + 1.0), (2.0, number_density),
        eta=eta, omega_t=omega_t, number_density=number_density,
    )


def local_field_factor(eta: float) -> float:
    """Real-cavity correction eta * (3 eta^2 / (2 eta^2 + 1))^2.

    Multiplies the free-space decay rate to give the in-medium rate;
    equals 1 in vacuum and increases monotonically with eta.
    """
    _require_finite(eta=eta)
    if eta < 1:
        raise ValueError(f"eta must be at least 1, got {eta}")
    # 3 / (2 + eta**-2) rather than 3 eta^2 / (2 eta^2 + 1): eta**2
    # overflows at eta > 1.3e154, where the factor is still in range
    return _product("local-field factor", (eta, (3.0 / (2.0 + eta**-2)) ** 2), eta=eta)


def scaled_linewidth_bound(ctx: DecayContext, omega_tilde: float) -> float:
    """Lower bound on the scaled line width gamma/omega_t.

    (4 pi^2 / n_vt) * omega_tilde^3 * eta (eta^2 - 1) (3 eta^2/(2 eta^2+1))^2,
    the product of the chain's factors: the free-space rate's omega^3, the
    dipole relation's (eta - 1)(eta + 1) and local_field_factor(eta), with
    the physical constants cancelled.  Raises ValueError when the bound or
    its local-field factor overflows, or the bound underflows to zero.
    """
    _require_finite(omega_tilde=omega_tilde)
    if omega_tilde <= 0:
        raise ValueError(f"omega_tilde must be positive, got {omega_tilde}")
    n_vt, eta = ctx
    return _product(
        "line-width bound",
        (4.0 * math.pi**2, omega_tilde, omega_tilde, omega_tilde,
         eta - 1.0, eta + 1.0, local_field_factor(eta)),
        (n_vt,),
        nonzero=True, omega_tilde=omega_tilde, n_vt=n_vt, eta=eta,
    )


def min_absorption_probability(
    alpha: float, ctx: DecayContext, omega_tilde: float
) -> float:
    """Minimal absorption probability with the line width at its bound.

    Equals alpha * omega_tilde * scaled_linewidth_bound(ctx, omega_tilde),
    hence scales exactly as omega_tilde^4.  alpha and ctx.eta must come
    from the same minimization (eta = sqrt(eps_s_star)).  Raises ValueError
    when the probability overflows, underflows to zero or reaches 1, where
    the first-order chain is out of its regime.
    """
    _require_finite(alpha=alpha, omega_tilde=omega_tilde)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    bound = scaled_linewidth_bound(ctx, omega_tilde)
    p_min = _product(
        "minimal absorption probability", (alpha, omega_tilde, bound),
        nonzero=True, alpha=alpha, omega_tilde=omega_tilde,
    )
    if p_min >= 1.0:
        raise ValueError(
            f"minimal absorption probability {p_min!r} is not below 1 at "
            f"alpha={alpha!r}, omega_tilde={omega_tilde!r}, n_vt={ctx.n_vt!r}: "
            f"the first-order chain holds only for p_min << 1, so lower "
            f"omega_tilde or raise n_vt"
        )
    return p_min
