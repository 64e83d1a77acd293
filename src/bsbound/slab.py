"""Complex transmission and reflection of a single planar slab in vacuum.

Normal incidence, one linear polarization.  All quantities are expressed
in the scaled working coordinates: frequency and line width in units of
the resonance frequency, thickness as d = omega_t * l / c.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from typing import NamedTuple, Optional

from .dielectric import (
    ComplexIndex, DrudeLorentzModel, Resonance, _Checked, refractive_index,
)

__all__ = [
    "ScaledSlabParams",
    "SlabResponse",
    "DegenerateDenominatorError",
    "transmission",
    "reflection",
    "working_index",
    "evaluate",
]

# bound once: the kernel calls it four times per phase
_exp = cmath.exp


class DegenerateDenominatorError(ArithmeticError):
    """Interference denominator evaluated to exactly zero.

    Its exact value is nonzero, but at |n| >~ 4e16 and a small phase the
    difference (1+n)^2 - (1-n)^2 exp(2in*phase) cancels to 0 in floating point.
    """


class ScaledSlabParams(
    _Checked, namedtuple("ScaledSlabParams", "omega_tilde gamma_tilde d eps_s")
):
    """Dimensionless working point of a single-resonance slab.

    gamma_tilde = 0 is accepted as the lossless test hook and d = 0 as the
    no-slab identity; the physical pipeline uses strictly positive values.
    """

    __slots__ = ()

    def __new__(
        cls, omega_tilde: float, gamma_tilde: float, d: float, eps_s: float
    ) -> "ScaledSlabParams":
        self = tuple.__new__(cls, (omega_tilde, gamma_tilde, d, eps_s))
        if not all(map(math.isfinite, self)):
            raise ValueError(f"values must be finite, got {self}")
        if not omega_tilde > 0:
            raise ValueError(f"omega_tilde must be positive, got {omega_tilde}")
        if gamma_tilde < 0:
            raise ValueError(f"gamma_tilde must be non-negative, got {gamma_tilde}")
        if d < 0:
            raise ValueError(f"d must be non-negative, got {d}")
        if not eps_s > 1:
            raise ValueError(f"eps_s must exceed 1, got {eps_s}")
        return self


class SlabResponse(NamedTuple):
    """Amplitudes and scalar figures at one working point.

    p = 1 - |t|^2 - |r|^2 by construction; x = |t|^2 / |r|^2, infinite
    when the reflection vanishes exactly.
    """

    t: complex
    r: complex
    p: float
    x: float


def _airy_factors(n: ComplexIndex) -> tuple[complex, ...]:
    """Index-only factors of the Airy formulas in _kernel.

    Returns (n, (1+n)^2, (1-n)^2, 2i*n, 4n, i*(n-1), (n-1)/(n+1), i*(n+1))
    with n as a complex number.
    """
    nc = n.as_complex
    return (
        nc, (1 + nc) ** 2, (1 - nc) ** 2, 2j * nc, 4 * nc, 1j * (nc - 1),
        (nc - 1) / (nc + 1), 1j * (nc + 1),
    )


def _kernel(
    factors: tuple[complex, ...], phase_arg: float, t: Optional[complex] = None
) -> tuple[complex, complex, float, float]:
    """(t, r, p, x) of the slab at vacuum phase phase_arg = omega*l/c.

    factors are _airy_factors of the index and phase_arg must be
    non-negative.  A given t is taken as the transmission amplitude and
    only the reflection is computed from it.  The bracket of r carries
    phase (n+1)*phase_arg: the unique choice for which |t|^2 + |r|^2 = 1
    holds exactly at kappa = 0 (verified against the transfer-matrix
    oracle in the tests).
    """
    nc, plus_sq, minus_sq, two_i_n, four_n, i_n_minus_1, interface, i_n_plus_1 = factors
    if t is None:
        if phase_arg == 0.0:
            # zero thickness transmits exactly; the formula only reaches 1 to roundoff
            t = complex(1.0, 0.0)
        else:
            den = plus_sq - minus_sq * _exp(two_i_n * phase_arg)
            if abs(den) == 0.0:
                raise DegenerateDenominatorError(
                    f"interference denominator vanished at n={nc}, phase={phase_arg}"
                )
            t = four_n * _exp(i_n_minus_1 * phase_arg) / den
    r = interface * _exp(-1j * phase_arg) * (1 - t * _exp(i_n_plus_1 * phase_arg))
    t_sq = abs(t) ** 2
    r_sq = abs(r) ** 2
    return t, r, 1.0 - t_sq - r_sq, t_sq / r_sq if r_sq > 0.0 else math.inf


def transmission(n: ComplexIndex, phase_arg: float) -> complex:
    """Transmission amplitude for vacuum phase phase_arg = omega*l/c."""
    if phase_arg < 0:
        raise ValueError(f"phase_arg must be non-negative, got {phase_arg}")
    return _kernel(_airy_factors(n), phase_arg)[0]


def reflection(n: ComplexIndex, phase_arg: float, t: complex) -> complex:
    """Reflection amplitude given the matching transmission t."""
    return _kernel(_airy_factors(n), phase_arg, t)[1]


def working_index(eps_s: float, gamma_tilde: float, omega_tilde: float) -> ComplexIndex:
    """Index of the single-resonance slab at the scaled working point."""
    model = DrudeLorentzModel(
        [Resonance(omega_t=1.0, omega_p=math.sqrt(eps_s - 1.0), gamma=gamma_tilde)]
    )
    return refractive_index(model, omega_tilde)


def evaluate(params: ScaledSlabParams) -> SlabResponse:
    """Full response at one working point.

    Builds the single-resonance model with omega_p^2 = eps_s - 1 in scaled
    units, evaluates the index at omega_tilde, and applies the slab
    formulas at vacuum phase omega_tilde * d.
    """
    n = working_index(params.eps_s, params.gamma_tilde, params.omega_tilde)
    t, r, p, x = _kernel(_airy_factors(n), params.omega_tilde * params.d)
    return SlabResponse(t=t, r=r, p=p, x=x)
