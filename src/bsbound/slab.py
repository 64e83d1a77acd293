"""Complex transmission and reflection of a single planar slab in vacuum.

Normal incidence, one linear polarization.  All quantities are expressed
in the scaled working coordinates: frequency and line width in units of
the resonance frequency, thickness as d = omega_t * l / c.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple

from .dielectric import (
    ComplexIndex, DrudeLorentzModel, Resonance, _Checked, _chi, _principal_root,
    refractive_index,
)

__all__ = [
    "ScaledSlabParams",
    "SlabResponse",
    "transmission",
    "reflection",
    "working_index",
    "evaluate",
]

# bound once: the kernel calls it four times per phase
_exp = cmath.exp
# builds evaluate's SlabResponse from the kernel's tuple in C
_tuple_new = tuple.__new__
# materials whose Airy factors _working_factors keeps, about 32 KB when full
_FACTOR_MEMO_SIZE = 64


class ScaledSlabParams(
    _Checked, namedtuple("ScaledSlabParams", "omega_tilde gamma_tilde d eps_s")
):
    """Dimensionless working point of a single-resonance slab.

    gamma_tilde = 0 is accepted as the lossless test hook and d = 0 as the
    no-slab identity; the physical pipeline uses strictly positive values.
    """

    __slots__ = ()

    def _check(self) -> None:
        omega_tilde, gamma_tilde, d, eps_s = self
        if not omega_tilde > 0:
            raise ValueError(f"omega_tilde must be positive, got {omega_tilde}")
        if gamma_tilde < 0:
            raise ValueError(f"gamma_tilde must be non-negative, got {gamma_tilde}")
        if d < 0:
            raise ValueError(f"d must be non-negative, got {d}")
        if not eps_s > 1:
            raise ValueError(f"eps_s must exceed 1, got {eps_s}")


class SlabResponse(namedtuple("SlabResponse", "t r p x")):
    """Amplitudes and scalar figures at one working point.

    p = 1 - |t|^2 - |r|^2 by construction, never non-finite from evaluate;
    x = |t|^2 / |r|^2, infinite when |r|^2 is 0.0.  Both are exact only
    while |t|^2 and |r|^2 are resolved in floating point: an amplitude
    below about 1e-162 squares to 0.0 and a square within about 1e-16 of
    1 rounds to 1, so p can read 0.0, and x inf or 0.0, at gamma > 0.
    t and r are complex, p and x float.
    """

    __slots__ = ()


def _airy_factors(n: tuple[float, float]) -> tuple[complex, ...]:
    """Index-only factors of the Airy formulas in _kernel.

    n is an (eta, kappa) pair, a ComplexIndex or _index_pair's tuple.
    Returns ((1+n)^2, (1-n)^2, 2i*n, 4n, i*(n-1), (n-1)/(n+1), i*(n+1))
    with n as the complex number eta + i*kappa.
    """
    nc = complex(*n)
    return (
        (1 + nc) ** 2, (1 - nc) ** 2, 2j * nc, 4 * nc, 1j * (nc - 1),
        (nc - 1) / (nc + 1), 1j * (nc + 1),
    )


def _kernel(
    factors: tuple[complex, ...], phase_arg: float
) -> tuple[complex, complex, float, float]:
    """(t, r, p, x) of the slab at vacuum phase phase_arg = omega*l/c.

    factors are _airy_factors of the index and phase_arg must be
    non-negative.  The reflection is computed from the transmission: its
    bracket carries phase (n+1)*phase_arg, the unique choice for which
    |t|^2 + |r|^2 = 1 holds exactly at kappa = 0 (verified against the
    transfer-matrix oracle in the tests).  The denominator (1+n)^2 -
    (1-n)^2 exp(2in*phase_arg) is never zero, but at |n| >~ 4e16 and a
    small phase it cancels to 0j in floating point, and the division
    raises ZeroDivisionError.
    """
    plus_sq, minus_sq, two_i_n, four_n, i_n_minus_1, interface, i_n_plus_1 = factors
    if phase_arg == 0.0:
        # zero thickness transmits exactly; the formula only reaches 1 to roundoff
        t = complex(1.0, 0.0)
    else:
        den = plus_sq - minus_sq * _exp(two_i_n * phase_arg)
        t = four_n * _exp(i_n_minus_1 * phase_arg) / den
    r = interface * _exp(-1j * phase_arg) * (1 - t * _exp(i_n_plus_1 * phase_arg))
    t_sq = abs(t) ** 2
    r_sq = abs(r) ** 2
    return t, r, 1.0 - t_sq - r_sq, t_sq / r_sq if r_sq > 0.0 else math.inf


def _poynting_p(factors: tuple[complex, ...], phase_arg: float) -> float:
    """Absorption of the slab as Im(eps) times the integral of |E|^2 over it.

    factors are _airy_factors of the index n = n' + i n'' and phase_arg =
    omega*l/c is non-negative.  Inside the slab E = t e^{i phi} (A e^{ins} +
    B e^{-ins}) with A, B = (1 +- 1/n)/2, s in [-phi, 0] and phi = phase_arg,
    which integrates to

        p = |t|^2 [n' (|A|^2 expm1(2n''phi) - |B|^2 expm1(-2n''phi))
                   + 2n'' Re(A conj(B) (1 - e^{-2in'phi}) / i)].

    Each term carries n'' or an expm1, so p is exactly 0.0 at n'' = 0 and
    has no cancellation of 1 - |t|^2 - |r|^2 as n'' shrinks.
    (1 - e^{-2i theta}) / i is written sin(2 theta) - 2i sin(theta)^2.
    No solver path calls it yet; _kernel's p is what evaluate returns.
    """
    t = _kernel(factors, phase_arg)[0]
    n = factors[3] / 4
    a = (1 + 1 / n) / 2
    b = (1 - 1 / n) / 2
    loss = 2 * n.imag * phase_arg
    theta = n.real * phase_arg
    w = complex(math.sin(2 * theta), -2 * math.sin(theta) ** 2)
    inside = n.real * (abs(a) ** 2 * math.expm1(loss) - abs(b) ** 2 * math.expm1(-loss))
    return abs(t) ** 2 * (inside + 2 * n.imag * (a * b.conjugate() * w).real)


def transmission(n: ComplexIndex, phase_arg: float) -> complex:
    """Transmission amplitude for vacuum phase phase_arg = omega*l/c."""
    if not 0.0 <= phase_arg < math.inf:
        raise ValueError(f"phase_arg must be non-negative and finite, got {phase_arg}")
    return _kernel(_airy_factors(n), phase_arg)[0]


def reflection(n: ComplexIndex, phase_arg: float) -> complex:
    """Reflection amplitude for vacuum phase phase_arg = omega*l/c."""
    if not 0.0 <= phase_arg < math.inf:
        raise ValueError(f"phase_arg must be non-negative and finite, got {phase_arg}")
    return _kernel(_airy_factors(n), phase_arg)[1]


def _index_pair(eps_s: float, gamma_tilde: float, omega_tilde: float) -> tuple[float, float]:
    """(eta, kappa) of the single-resonance slab's index, built from floats.

    The floats of refractive_index(DrudeLorentzModel([Resonance(1.0,
    sqrt(eps_s - 1), gamma_tilde)]), omega_tilde), from the same
    dielectric._chi and _principal_root, but no record is built.  Where
    one of that chain's checks would fail, or susceptibility would retry
    a NaN, the chain itself runs instead: it raises what it raises, or
    returns its ComplexIndex.  The solver takes a slice's index here.
    """
    try:
        wp2 = math.sqrt(eps_s - 1.0) ** 2
        if wp2 < math.inf and 0.0 <= gamma_tilde < math.inf and 0.0 <= omega_tilde < math.inf:
            # a NaN chi, where susceptibility retries, gives a NaN or infinite eta
            pair = _principal_root(1.0 + _chi(((1.0, wp2, gamma_tilde),), omega_tilde))
            if 0.0 < pair[0] < math.inf and 0.0 <= pair[1] < math.inf:
                return pair
    except (ArithmeticError, TypeError, ValueError):
        pass
    # outside the except clause, so the chain's exception carries no context
    model = DrudeLorentzModel(
        [Resonance(omega_t=1.0, omega_p=math.sqrt(eps_s - 1.0), gamma=gamma_tilde)]
    )
    return refractive_index(model, omega_tilde)


def working_index(eps_s: float, gamma_tilde: float, omega_tilde: float) -> ComplexIndex:
    """Index of the single-resonance slab at the scaled working point.

    The checked record of _index_pair's floats; the solver takes the
    floats alone, so a solve calls this function nowhere.
    """
    return ComplexIndex(*_index_pair(eps_s, gamma_tilde, omega_tilde))


@functools.lru_cache(maxsize=_FACTOR_MEMO_SIZE)
def _working_factors(
    eps_s: float, gamma_tilde: float, omega_tilde: float
) -> tuple[complex, ...]:
    """_airy_factors of working_index, memoized per process.

    The floats are _index_pair's, which the solver takes too.
    working_index is looked up at call time, so a patched name sees every
    miss.  A raise is not stored: the same inputs raise again on the next
    call.
    """
    return _airy_factors(working_index(eps_s, gamma_tilde, omega_tilde))


def evaluate(params: ScaledSlabParams) -> SlabResponse:
    """Full response at one working point.

    Builds the single-resonance model with omega_p^2 = eps_s - 1 in scaled
    units, evaluates the index at omega_tilde, and applies the slab
    formulas at vacuum phase omega_tilde * d.  The index factors of the
    last _FACTOR_MEMO_SIZE materials (eps_s, gamma_tilde, omega_tilde) are
    kept, so a thickness scan builds them once; the floats are the same
    either way.  A response out of float range, any ArithmeticError or a
    non-finite p (which a NaN or infinite t or r gives), raises ValueError;
    so t, r and p come back finite and x not NaN (x = inf at r = 0 is a result).

    The record is built by tuple.__new__ straight from the kernel's
    (t, r, p, x) tuple, so it holds the same field objects as
    SlabResponse(*...) without running namedtuple's Python-level __new__,
    a measurable share of the per-call cost (BENCH_19.json).
    """
    omega_tilde, gamma_tilde, d, eps_s = params
    try:
        out = _kernel(_working_factors(eps_s, gamma_tilde, omega_tilde), omega_tilde * d)
    except ArithmeticError as exc:
        raise ValueError(f"slab response out of float range at {params}: {exc}") from None
    resp = _tuple_new(SlabResponse, out)
    if not math.isfinite(out[2]):
        raise ValueError(f"slab response out of float range at {params}: {resp}")
    return resp
