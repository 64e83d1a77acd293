"""Drude-Lorentz dielectric response.

Susceptibility as a sum of damped-oscillator resonances, the complex
refractive index on its physical branch, the low-frequency expansions of
both index components, and a numerical check of the index sum rule
(integral of eta - 1 over all frequencies vanishes).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from typing import Sequence

__all__ = [
    "Resonance",
    "DrudeLorentzModel",
    "ComplexIndex",
    "QuadratureError",
    "susceptibility",
    "refractive_index",
    "low_frequency_approx",
    "superconvergence_residual",
]

class QuadratureError(RuntimeError):
    """Raised when sum-rule refinements fail to settle within tolerance."""


class _Checked:
    """Base of a namedtuple record whose fields are checked on every build.

    Put first among the bases.  __new__ builds the tuple with the
    namedtuple's own __new__, so keywords and defaults bind as usual; it
    then raises ValueError if any field is not finite (nan, inf or -inf),
    and last calls the record's _check, which raises ValueError on the
    record's own rules.  _make, and so _replace, goes through __new__ too,
    as do pickling and copying, so every way of building a record runs
    the checks.  A record with a field that is not a float defines its
    own __new__ instead.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(map(math.isfinite, self)):
            *head, last = self._fields
            raise ValueError(f"{', '.join(head)} and {last} must be finite, got {self!r}")
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make calls tuple.__new__ and skips the checks
        return cls(*iterable)


class Resonance(_Checked, namedtuple("Resonance", "omega_t omega_p gamma")):
    """One damped-oscillator resonance.

    Frequencies are in whatever unit the caller chose; the optimization
    pipeline uses the scaled convention omega_t = 1.  A physical resonance
    has omega_p > 0 and gamma > 0; zero values are accepted as the exact
    vacuum / lossless limits used by the test hooks.  omega_t**2 and
    omega_p**2, which every Drude-Lorentz sum takes, must not overflow.
    """

    __slots__ = ()

    def _check(self) -> None:
        omega_t, omega_p, gamma = self
        if not omega_t > 0:
            raise ValueError(f"omega_t must be positive, got {omega_t}")
        if omega_p < 0:
            raise ValueError(f"omega_p must be non-negative, got {omega_p}")
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        for name, value in (("omega_t", omega_t), ("omega_p", omega_p)):
            try:
                value**2  # float ** raises OverflowError where * gives inf
            except OverflowError:
                raise ValueError(f"{name}**2 overflows, got {name}={value}") from None


class DrudeLorentzModel(_Checked, namedtuple("DrudeLorentzModel", "resonances")):
    """Ordered collection of resonances defining chi(omega).

    resonances may be any sequence; it is stored as a tuple.
    """

    __slots__ = ()

    def __new__(cls, resonances: Sequence[Resonance]) -> "DrudeLorentzModel":
        resonances = tuple(resonances)
        if not resonances:
            raise ValueError("model needs at least one resonance")
        return tuple.__new__(cls, (resonances,))

    def static_permittivity(self) -> float:
        """1 + chi(0), always real and > 1 for a physical model."""
        return 1.0 + sum(r.omega_p**2 / r.omega_t**2 for r in self.resonances)


class ComplexIndex(_Checked, namedtuple("ComplexIndex", "eta kappa")):
    """Refractive index n = eta + i*kappa on the physical branch."""

    __slots__ = ()

    def _check(self) -> None:
        eta, kappa = self
        if not eta > 0:
            raise ValueError(f"eta must be positive, got {eta}")
        if kappa < 0:
            raise ValueError(f"kappa must be non-negative, got {kappa}")

    @property
    def as_complex(self) -> complex:
        return complex(self.eta, self.kappa)


def _chi(terms, omega: float) -> complex:
    """Drude-Lorentz sum over (omega_t^2, omega_p^2, gamma) terms.

    A gamma = 0 term exactly on resonance raises ZeroDivisionError.
    """
    chi = 0j
    for wt2, wp2, gamma in terms:
        chi += wp2 / complex(wt2 - omega * omega, -gamma * omega)
    return chi


def susceptibility(model: DrudeLorentzModel, omega: float) -> complex:
    """Sum of Drude-Lorentz terms omega_p^2 / (omega_t^2 - omega^2 - i*gamma*omega).

    The imaginary part is strictly positive for omega > 0 whenever every
    gamma > 0, and exactly zero at omega = 0, where the real part is the
    static sum of omega_p^2 / omega_t^2.
    """
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    if omega < 0:
        raise ValueError(f"omega must be non-negative, got {omega}")
    try:
        chi = _chi(((r.omega_t**2, r.omega_p**2, r.gamma) for r in model.resonances), omega)
        if chi != chi:
            # omega^2 or gamma*omega overflowed although the terms are tiny:
            # divide each through by omega first
            chi = sum(
                (r.omega_p**2 / omega) / complex(r.omega_t**2 / omega - omega, -r.gamma)
                for r in model.resonances
            )
        return chi
    except ZeroDivisionError:
        # reachable only with the gamma = 0 hook exactly on resonance
        raise ValueError(f"susceptibility pole at omega = {omega} for gamma = 0") from None


def refractive_index(model: DrudeLorentzModel, omega: float) -> ComplexIndex:
    """n = sqrt(1 + chi) with eta > 0, kappa >= 0.

    Since Im(1 + chi) > 0 for omega > 0, the principal square root already
    lands on the physical branch; no branch tracking is needed.
    """
    eps = 1.0 + susceptibility(model, omega)
    if eps.imag == 0.0 and eps.real <= 0.0:
        raise ValueError(
            f"permittivity {eps} on the negative real axis; branch undefined"
        )
    n = cmath.sqrt(eps)
    return ComplexIndex(n.real, n.imag if n.imag != 0.0 else 0.0)


def low_frequency_approx(model: DrudeLorentzModel, omega: float) -> ComplexIndex:
    """Lowest-order index components for omega well below every resonance.

    eta is the static index sqrt(1 + sum omega_p^2/omega_t^2); kappa grows
    linearly in omega with the summed damping weights.  No validity check
    is made, that is the caller's responsibility.
    """
    eta = math.sqrt(model.static_permittivity())
    weight = sum(
        (1.0 / r.omega_t) * (r.gamma / r.omega_t) * (r.omega_p**2 / r.omega_t**2)
        for r in model.resonances
    )
    return ComplexIndex(eta, omega / (2.0 * eta) * weight)


# 15-point Gauss-Legendre rule on [-1, 1]: the non-negative nodes and their
# weights, each the double nearest the exact value (50-digit mpmath roots)
_GAUSS_HALF = (
    (0.0, 0.2025782419255613),
    (0.20119409399743451, 0.19843148532711158),
    (0.3941513470775634, 0.1861610000155622),
    (0.5709721726085388, 0.16626920581699392),
    (0.7244177313601701, 0.13957067792615432),
    (0.8482065834104272, 0.10715922046717194),
    (0.937273392400706, 0.07036604748810812),
    (0.9879925180204854, 0.03075324199611727),
)
_GAUSS_15 = tuple((-x, w) for x, w in reversed(_GAUSS_HALF[1:])) + _GAUSS_HALF


def _gauss_panel(terms: list, a: float, b: float, m: int) -> float:
    """Integral of eta - 1 over [a, b]: 15-point Gauss-Legendre on m subintervals.

    terms are _chi's (omega_t^2, omega_p^2, gamma) triples.  Subintervals
    are geometric when the panel spans more than a factor 4, so slowly
    decaying tails are resolved at constant relative width.
    """
    if a > 0 and b / a > 4.0:
        ratio = b / a
        edges = [a * ratio ** (k / m) for k in range(m + 1)]
    else:
        step = (b - a) / m
        edges = [a + k * step for k in range(m)] + [b]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (hi + lo)
        half = 0.5 * (hi - lo)
        acc = 0.0
        for node, weight in _GAUSS_15:
            acc += weight * (cmath.sqrt(1.0 + _chi(terms, mid + half * node)).real - 1.0)
        total += half * acc
    return total


# see superconvergence_residual
_QUAD_POINTS = 64
_QUAD_TOL = 1e-12
_MAX_SUBDIVISIONS = 8192


def superconvergence_residual(model: DrudeLorentzModel, omega_max: float) -> float:
    """Tail-corrected residual of the sum rule for eta - 1.

    Integrates eta(omega) - 1 from 0 to omega_max with resonance-aware
    panels split at each omega_t +- 10*gamma, then adds the analytic tail
    estimate -sum(omega_p^2) / (2*omega_max) from the large-omega
    asymptote.  The result approaches zero as omega_max grows.

    Each panel starts at _QUAD_POINTS subintervals and is doubled until
    successive refinements agree within _QUAD_TOL (split across panels).
    Raises QuadratureError if a panel fails to settle before
    _MAX_SUBDIVISIONS.
    """
    if not (math.isfinite(omega_max) and omega_max > 0):
        raise ValueError(f"omega_max must be finite and positive, got {omega_max}")
    breaks = {0.0, float(omega_max)}
    for r in model.resonances:
        for b in (r.omega_t - 10.0 * r.gamma, r.omega_t, r.omega_t + 10.0 * r.gamma):
            if 0.0 < b < omega_max:
                breaks.add(b)
    edges = sorted(breaks)
    panel_tol = _QUAD_TOL / (len(edges) - 1)
    terms = [(r.omega_t**2, r.omega_p**2, r.gamma) for r in model.resonances]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        m = _QUAD_POINTS
        prev = _gauss_panel(terms, a, b, m)
        while True:
            m *= 2
            cur = _gauss_panel(terms, a, b, m)
            if abs(cur - prev) <= panel_tol:
                break
            if m > _MAX_SUBDIVISIONS:
                raise QuadratureError(
                    f"sum-rule panel [{a:g}, {b:g}] did not converge: "
                    f"last refinement changed by {abs(cur - prev):.3e}"
                )
            prev = cur
        total += cur
    tail = -sum(r.omega_p**2 for r in model.resonances) / (2.0 * omega_max)
    return total + tail
