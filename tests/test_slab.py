import cmath
import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bsbound import slab
from bsbound.dielectric import ComplexIndex, DrudeLorentzModel, Resonance, refractive_index
from bsbound.optimizer import DEFAULT_LEVELS, extract_alpha, solve_thickness_for_ratio
from bsbound.slab import (
    ScaledSlabParams,
    SlabResponse,
    _airy_factors,
    _kernel,
    evaluate,
    reflection,
    transmission,
    working_index,
)
from oracles import airy_intensities, reference_slab_tr, slab_p_highprec


def lossless_index(eps_s, omega_tilde):
    model = DrudeLorentzModel([Resonance(1.0, math.sqrt(eps_s - 1.0), 0.0)])
    return refractive_index(model, omega_tilde)


def inline_slab(n, phase):
    """(t, r, p, x) from the Airy formulas written out, no per-index factors hoisted."""
    nc = n.as_complex
    den = (1 + nc) ** 2 - (1 - nc) ** 2 * cmath.exp(2j * nc * phase)
    t = 4 * nc * cmath.exp(1j * (nc - 1) * phase) / den
    r = (nc - 1) / (nc + 1) * cmath.exp(-1j * phase) * (
        1 - t * cmath.exp(1j * (nc + 1) * phase)
    )
    t_sq, r_sq = abs(t) ** 2, abs(r) ** 2
    return t, r, 1.0 - t_sq - r_sq, t_sq / r_sq


class TestAmplitudes:
    def test_zero_phase_transmits_fully(self):
        n = ComplexIndex(2.49, 0.001)
        t = transmission(n, 0.0)
        assert t == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert reflection(n, 0.0) == pytest.approx(0.0j, abs=1e-15)

    def test_index_matched_slab(self):
        n = ComplexIndex(1.0, 0.0)
        t = transmission(n, 3.7)
        assert t == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert reflection(n, 3.7) == pytest.approx(0.0j, abs=1e-15)

    def test_matches_transfer_matrix_point(self):
        n = ComplexIndex(2.49, 0.001)
        t = transmission(n, 0.5)
        r = reflection(n, 0.5)
        t_ref, r_ref = reference_slab_tr(n.as_complex, 0.5)
        assert abs(t - t_ref) <= 1e-12 * abs(t_ref)
        assert abs(r - r_ref) <= 1e-12 * abs(r_ref)

    def test_matches_transfer_matrix_randomized(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 1000:
            eta = rng.uniform(1.05, 10.0)
            kappa = rng.uniform(1e-9, 0.05)
            phase = rng.uniform(1e-3, 20.0)
            n = ComplexIndex(eta, kappa)
            t = transmission(n, phase)
            r = reflection(n, phase)
            if abs(r) < 1e-2:
                continue  # relative comparison is ill-conditioned at reflection nulls
            t_ref, r_ref = reference_slab_tr(n.as_complex, phase)
            assert abs(t - t_ref) <= 1e-12 * abs(t_ref)
            assert abs(r - r_ref) <= 1e-12 * abs(r_ref)
            checked += 1

    def test_cached_factors_give_the_inline_formulas_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = ComplexIndex(float(rng.uniform(1.0, 30.0)), float(10.0 ** rng.uniform(-9, -1)))
            for phase in rng.uniform(1e-6, 5.0, size=4):
                t = transmission(n, float(phase))
                assert (t, reflection(n, float(phase))) == inline_slab(n, float(phase))[:2]

    def test_slab_calls_leave_the_index_untouched(self, monkeypatch):
        # cleared first, so evaluate below builds its index rather than reusing one
        slab._working_factors.cache_clear()
        n = working_index(6.2, 1e-3, 1e-3)
        fields = (n.eta, n.kappa)
        transmission(n, 0.5)
        reflection(n, 0.5)
        _airy_factors(n)
        # a record without __dict__ cannot carry state besides its fields
        assert not hasattr(n, "__dict__")
        assert n == fields
        built = []
        monkeypatch.setattr(
            slab, "working_index", lambda *args: built.append(working_index(*args)) or built[-1]
        )
        evaluate(ScaledSlabParams(1e-3, 1e-3, 500.0, 6.2))
        assert built == [fields]
        assert not hasattr(built[0], "__dict__")

    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError):
            transmission(ComplexIndex(2.0, 0.0), -1.0)
        with pytest.raises(ValueError, match="phase_arg must be non-negative"):
            reflection(ComplexIndex(2.0, 0.0), -5.0)
        for phase in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="phase_arg must be non-negative"):
                transmission(ComplexIndex(2.0, 0.0), phase)
            with pytest.raises(ValueError, match="phase_arg must be non-negative"):
                reflection(ComplexIndex(2.0, 0.0), phase)

    def test_infinite_phase_rejected(self):
        # once returned 0j and (nan+nanj)
        n = ComplexIndex(2.5, 1e-3)
        with pytest.raises(ValueError, match="^phase_arg must be non-negative and finite, got inf$"):
            transmission(n, math.inf)
        with pytest.raises(ValueError, match="^phase_arg must be non-negative and finite"):
            reflection(n, math.inf)


class TestKernel:
    """The one Airy kernel behind transmission, reflection, evaluate and the solver."""

    def test_matches_public_functions_and_inline_formulas_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            eps_s = float(1.0 + 10.0 ** rng.uniform(-3, 3))
            gamma = float(10.0 ** rng.uniform(-5, -0.5))
            omega = float(10.0 ** rng.uniform(-4, -0.3))
            d = float(10.0 ** rng.uniform(-2, 3))
            n = working_index(eps_s, gamma, omega)
            phase = omega * d
            out = _kernel(_airy_factors(n), phase)
            assert out[:2] == (transmission(n, phase), reflection(n, phase))
            resp = evaluate(ScaledSlabParams(omega, gamma, d, eps_s))
            assert out == (resp.t, resp.r, resp.p, resp.x)
            assert out == inline_slab(n, phase)

    def test_zero_phase_identity(self):
        n = working_index(6.2, 0.1, 0.3)
        t, r, p, x = _kernel(_airy_factors(n), 0.0)
        assert t == complex(1.0, 0.0) and r == 0 and p == 0.0 and x == math.inf
        assert transmission(n, 0.0) == t and reflection(n, 0.0) == r
        resp = evaluate(ScaledSlabParams(omega_tilde=0.3, gamma_tilde=0.1, d=0.0, eps_s=6.2))
        assert (resp.t, resp.r, resp.p, resp.x) == (t, r, p, x)

    def test_lossless_hook(self):
        for eps_s, d in ((1.5, 40.0), (6.2, 500.0), (80.0, 3.0)):
            n = working_index(eps_s, 0.0, 1e-3)
            assert n.kappa == 0.0
            out = _kernel(_airy_factors(n), 1e-3 * d)
            assert out == inline_slab(n, 1e-3 * d)
            assert abs(out[2]) < 1e-12


def outcome(call):
    """Field reprs of call(), or ValueError for the ways evaluate raises it.

    Equal repr lists mean equal bits, signed zeros and NaNs included.
    evaluate turns an ArithmeticError and a non-finite p into ValueError,
    so for the raw chain they count as ValueError too.
    """
    try:
        fields = call()
    except (ArithmeticError, ValueError):
        return ValueError
    if not math.isfinite(fields[2]):
        return ValueError
    return [repr(v) for v in fields]


class TestFactorMemo:
    """evaluate keeps each material's Airy factors; its floats do not depend on that."""

    @given(
        eps_s=st.one_of(st.floats(1.0, 1e3, exclude_min=True), st.integers(2, 1000)),
        gamma=st.one_of(st.sampled_from([0.0, -0.0, 0]), st.floats(0.0, 1.0),
                        st.integers(0, 2)),
        omega=st.one_of(st.floats(1e-6, 3.0), st.integers(1, 3)),
        d=st.one_of(st.floats(0.0, 1e3), st.integers(0, 1000)),
        other_d=st.floats(0.0, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_cold_and_warm_match_the_unmemoized_chain_bit_for_bit(
        self, eps_s, gamma, omega, d, other_d
    ):
        expected = outcome(
            lambda: _kernel(_airy_factors(working_index(eps_s, gamma, omega)), omega * d)
        )
        params = ScaledSlabParams(omega, gamma, d, eps_s)
        slab._working_factors.cache_clear()
        assert outcome(lambda: evaluate(params)) == expected  # cold
        assert outcome(lambda: evaluate(params)) == expected  # warm, filled by this call
        # the memo key does not tell 6 from 6.0 or 0.0 from -0.0: fill it at
        # another thickness through the float twin with the other zero sign
        twin_gamma = float(gamma) if gamma else -math.copysign(0.0, gamma)
        slab._working_factors.cache_clear()
        outcome(lambda: evaluate(
            ScaledSlabParams(float(omega), twin_gamma, other_d, float(eps_s))))
        assert outcome(lambda: evaluate(params)) == expected

    def test_pole_raises_on_every_call(self):
        # the gamma = 0 hook exactly on resonance: a raise is not memoized
        params = ScaledSlabParams(omega_tilde=1.0, gamma_tilde=0.0, d=1.0, eps_s=6.2)
        slab._working_factors.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError, match="susceptibility pole"):
                evaluate(params)
        assert slab._working_factors.cache_info().currsize == 0

    def test_one_index_per_material(self, monkeypatch):
        slab._working_factors.cache_clear()
        built = []
        monkeypatch.setattr(
            slab, "working_index", lambda *args: built.append(args) or working_index(*args)
        )
        for d in (400.0, 500.0, 600.0):
            evaluate(ScaledSlabParams(1e-3, 1e-3, d, 6.2))
        evaluate(ScaledSlabParams(1e-3, 1e-3, 500.0, 6.3))
        assert built == [(6.2, 1e-3, 1e-3), (6.3, 1e-3, 1e-3)]

    def test_bounded(self):
        slab._working_factors.cache_clear()
        for k in range(2 * slab._FACTOR_MEMO_SIZE):
            evaluate(ScaledSlabParams(1e-3, 1e-3, 500.0, 2.0 + k))
        assert slab._working_factors.cache_info().currsize == slab._FACTOR_MEMO_SIZE


def index_outcome(call):
    """reprs of eta and of every Airy factor of call()'s index, or the
    type and message of its exception.

    repr tells -0.0 from 0.0 in every float and complex part.
    """
    try:
        n = call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return [repr(n[0]), *map(repr, _airy_factors(n))]


def record_index(eps_s, gamma, omega):
    """The slab's index through the checked records: the reference chain."""
    model = DrudeLorentzModel([Resonance(1.0, math.sqrt(eps_s - 1.0), gamma)])
    return refractive_index(model, omega)


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
# susceptibility retries where omega**2 and gamma*omega overflow, so chi is NaN
NAN_RETRY_POINTS = [(2.0, 1e154, 1e155), (2.0, 1e100, 1e300)]


class TestRecordFreeIndex:
    """slab._index_pair, the index a solve takes, builds no record but
    gives the record chain's floats, or raises its exception."""

    @given(
        eps_s=st.one_of(
            st.floats(-6.0, 300.0).map(lambda e: 1.0 + 10.0**e),
            st.floats(),
            st.sampled_from([1.0, 6.2]),
        ),
        gamma=st.one_of(
            st.sampled_from(SPECIAL_FLOATS),
            st.floats(0.0, 1e3),
            st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
        ),
        omega=st.one_of(
            st.sampled_from(SPECIAL_FLOATS),
            st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
        ),
    )
    @example(1.0 + 1e-6, 1e-3, 1e-3)
    @example(1.0 + 1e300, 1e-3, 1e-3)
    @example(6.2, 0.0, 1.0)  # the gamma = 0 pole of TestFactorMemo
    @example(*NAN_RETRY_POINTS[0])
    @example(*NAN_RETRY_POINTS[1])
    @settings(max_examples=1000, deadline=None)
    def test_same_floats_or_exception_as_the_record_chain(self, eps_s, gamma, omega):
        expected = index_outcome(lambda: record_index(eps_s, gamma, omega))
        assert index_outcome(lambda: slab._index_pair(eps_s, gamma, omega)) == expected
        assert index_outcome(lambda: working_index(eps_s, gamma, omega)) == expected

    def test_examples_reach_the_pole_and_the_nan_retry(self):
        with pytest.raises(ZeroDivisionError):
            slab._chi(((1.0, 6.2 - 1.0, 0.0),), 1.0)
        for eps_s, gamma, omega in NAN_RETRY_POINTS:
            chi = slab._chi(((1.0, eps_s - 1.0, gamma),), omega)
            assert chi != chi
            assert math.isfinite(record_index(eps_s, gamma, omega).eta)


class TestEvaluate:
    def test_zero_thickness_identity(self):
        resp = evaluate(ScaledSlabParams(omega_tilde=0.3, gamma_tilde=0.1, d=0.0, eps_s=6.2))
        assert resp.t == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert resp.r == pytest.approx(0.0j, abs=1e-15)
        assert resp.p == pytest.approx(0.0, abs=1e-15)
        assert math.isinf(resp.x)

    def test_lossless_hook_is_unitary(self):
        for d in (0.5, 7.0, 100.0):
            resp = evaluate(ScaledSlabParams(omega_tilde=1e-3, gamma_tilde=0.0, d=d, eps_s=6.2))
            assert abs(resp.p) < 1e-12

    def test_response_fields_consistent(self):
        resp = evaluate(ScaledSlabParams(omega_tilde=0.2, gamma_tilde=0.05, d=3.0, eps_s=4.0))
        t_sq, r_sq = abs(resp.t) ** 2, abs(resp.r) ** 2
        assert resp.p == 1.0 - t_sq - r_sq
        assert resp.x == t_sq / r_sq

    def test_lossless_symmetric_ratio_from_airy(self):
        # phase solving sin^2(phi) = 4 eta^2/(eta^2-1)^2 must give x = 1
        omega_tilde = 1e-3
        n = lossless_index(6.2, omega_tilde)
        eta = n.eta
        phi = math.asin(math.sqrt(4 * eta**2 / (eta**2 - 1) ** 2))
        d = phi / (eta * omega_tilde)
        resp = evaluate(ScaledSlabParams(omega_tilde=omega_tilde, gamma_tilde=0.0, d=d, eps_s=6.2))
        assert resp.x == pytest.approx(1.0, rel=1e-10)
        t2, r2 = airy_intensities(eta, phi)
        assert abs(resp.t) ** 2 == pytest.approx(t2, rel=1e-12)
        assert abs(resp.r) ** 2 == pytest.approx(r2, rel=1e-12)

    def test_symmetric_optimum_coefficient(self):
        # at eps_s = 6.2 the constrained x = 1 point has p/(gamma*omega) near 0.9
        d = solve_thickness_for_ratio(6.2, 1.0, 1e-3, 1e-3, branch="first")
        resp = evaluate(ScaledSlabParams(omega_tilde=1e-3, gamma_tilde=1e-3, d=d, eps_s=6.2))
        assert 0.85 < resp.p / 1e-6 < 0.95

    @pytest.mark.xfail(
        strict=True,
        reason="[exact-p]: 1 - |t|^2 - |r|^2 cancels; reads -4.4e-16 for 8.97e-17",
    )
    def test_unresolved_p_matches_the_oracle(self):
        # bsbound eval --eps-s 6.2 --gamma 1e-10 --omega 1e-6 --thickness 5e5
        # prints p = -4.44e-16 and exits 0, though gamma > 0
        exact = slab_p_highprec(6.2, 1e-10, 1e-6, 5e5)
        p = evaluate(ScaledSlabParams(1e-6, 1e-10, 5e5, 6.2)).p
        assert abs(p - exact) <= 1e-12 * exact

    def test_small_p_scaling_limit(self):
        # fixed eps_s and optical phase: p/(gamma*omega) settles as both shrink
        eps_s, phi = 6.2, 1.25
        ratios = []
        for gamma_tilde, omega_tilde in ((1e-3, 1e-3), (5e-4, 5e-4)):
            eta = lossless_index(eps_s, omega_tilde).eta
            d = phi / (eta * omega_tilde)
            resp = evaluate(ScaledSlabParams(omega_tilde, gamma_tilde, d, eps_s))
            ratios.append(resp.p / (gamma_tilde * omega_tilde))
        assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.01


# a lossy point, the no-slab identity (r = 0, so x = inf) and the lossless hook
RECORD_POINTS = {
    "lossy": ScaledSlabParams(1e-3, 1e-3, 500.0, 6.2),
    "zero-thickness": ScaledSlabParams(0.3, 0.1, 0.0, 6.2),
    "lossless-hook": ScaledSlabParams(1e-3, 0.0, 7.0, 6.2),
}


# the three eval points of test_cli's test_extreme_working_point_exit_2
OUT_OF_RANGE_POINTS = {
    "denominator-cancels": ScaledSlabParams(1e-3, 1e-3, 1e-60, 1e80),
    "abs2-overflows": ScaledSlabParams(1e-100, 0.0, 1e-150, 1e60),
    "phase-overflows": ScaledSlabParams(1e200, 1e-3, 1e200, 6.2),
}
# 10**e for e uniform in [-300, 300]
log_uniform = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


class TestFloatRange:
    """evaluate alone decides when a response is out of float range."""

    @pytest.mark.parametrize("params", OUT_OF_RANGE_POINTS.values(), ids=OUT_OF_RANGE_POINTS)
    def test_evaluate_raises_value_error(self, params):
        with pytest.raises(ValueError) as info:
            evaluate(params)
        assert str(info.value).startswith(
            "slab response out of float range at ScaledSlabParams("
        )

    def test_cancelling_denominator_divides_by_zero(self):
        # (1+n)^2 - (1-n)^2 exp(2in*phase) rounds to exactly 0j at |n| ~ 1e40
        n, phase = ComplexIndex(1.0000005e40, 5e33), 1e-63
        with pytest.raises(ZeroDivisionError):
            _kernel(_airy_factors(n), phase)
        with pytest.raises(ZeroDivisionError):
            transmission(n, phase)
        with pytest.raises(ZeroDivisionError):
            reflection(n, phase)

    @given(
        omega=log_uniform,
        gamma=st.one_of(st.just(0.0), log_uniform),
        d=st.one_of(st.just(0.0), log_uniform),
        eps_s=st.one_of(
            st.floats(1.0, 2.0, exclude_min=True), log_uniform.filter(lambda v: v > 1)
        ),
    )
    @example(*OUT_OF_RANGE_POINTS["denominator-cancels"])
    @example(*OUT_OF_RANGE_POINTS["abs2-overflows"])
    @example(*OUT_OF_RANGE_POINTS["phase-overflows"])
    @settings(max_examples=500, deadline=None)
    def test_every_returned_response_is_finite(self, omega, gamma, d, eps_s):
        try:
            resp = evaluate(ScaledSlabParams(omega, gamma, d, eps_s))
        except ValueError:
            return  # out of float range here, or an index the dielectric rejects
        assert cmath.isfinite(resp.t) and cmath.isfinite(resp.r)
        assert math.isfinite(resp.p) and not math.isnan(resp.x)


class TestResponseRecord:
    """evaluate builds its SlabResponse with tuple.__new__ from the kernel's tuple."""

    @pytest.mark.parametrize("params", RECORD_POINTS.values(), ids=RECORD_POINTS)
    def test_same_record_as_the_namedtuple_constructor(self, params):
        omega_tilde, gamma_tilde, d, eps_s = params
        factors = _airy_factors(working_index(eps_s, gamma_tilde, omega_tilde))
        expected = SlabResponse(*_kernel(factors, omega_tilde * d))
        resp = evaluate(params)
        assert type(resp) is SlabResponse
        assert resp == expected
        assert repr(resp) == repr(expected)
        for name in SlabResponse._fields:
            assert repr(getattr(resp, name)) == repr(getattr(expected, name))

    @pytest.mark.parametrize("params", RECORD_POINTS.values(), ids=RECORD_POINTS)
    def test_survives_pickle_and_replace(self, params):
        resp = evaluate(params)
        back = pickle.loads(pickle.dumps(resp))
        assert type(back) is SlabResponse and repr(back) == repr(resp)
        replaced = resp._replace(p=0.5)
        assert type(replaced) is SlabResponse
        assert replaced == (resp.t, resp.r, 0.5, resp.x)


class TestRandomizedInvariants:
    def test_lossless_unitarity(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10_000):
            params = ScaledSlabParams(
                omega_tilde=rng.uniform(1e-4, 0.5),
                gamma_tilde=0.0,
                d=rng.uniform(1e-3, 20.0),
                eps_s=rng.uniform(1.0 + 1e-3, 100.0),
            )
            resp = evaluate(params)
            worst = max(worst, abs(abs(resp.t) ** 2 + abs(resp.r) ** 2 - 1.0))
        assert worst < 1e-12

    def test_absorption_strictly_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            params = ScaledSlabParams(
                omega_tilde=rng.uniform(1e-2, 0.5),
                gamma_tilde=rng.uniform(1e-4, 0.5),
                d=rng.uniform(0.1, 20.0),
                eps_s=rng.uniform(1.1, 100.0),
            )
            resp = evaluate(params)
            assert resp.p > 1e-18


class TestValidation:
    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            ScaledSlabParams(omega_tilde=0.0, gamma_tilde=0.1, d=1.0, eps_s=2.0)

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            ScaledSlabParams(omega_tilde=0.1, gamma_tilde=-0.1, d=1.0, eps_s=2.0)

    def test_rejects_negative_thickness(self):
        with pytest.raises(ValueError):
            ScaledSlabParams(omega_tilde=0.1, gamma_tilde=0.1, d=-1.0, eps_s=2.0)

    def test_rejects_vacuum_permittivity(self):
        with pytest.raises(ValueError):
            ScaledSlabParams(omega_tilde=0.1, gamma_tilde=0.1, d=1.0, eps_s=1.0)


@functools.cache
def _optima(x_target):
    """((gamma_tilde, omega_tilde), MinimizeResult) per level of extract_alpha(x_target)."""
    return list(zip(DEFAULT_LEVELS, extract_alpha(x_target).results))


@functools.cache
def _optimum_p_errors(x_target):
    """(p_min, p_min - exact p) at each level's optimum of extract_alpha(x_target).

    p_min is the kernel's p at the solver's phase; the exact p is the
    50-digit slab at (eps_s*, d*) and the level's working point.
    """
    errors = []
    for (gamma_tilde, omega_tilde), res in _optima(x_target):
        exact = slab_p_highprec(res.eps_s_star, gamma_tilde, omega_tilde, res.d_star)
        errors.append((res.p_min, res.p_min - exact))
    return errors


class TestOptimumAbsorption:
    """The kernel's p at the solver's own optima against a 50-digit slab.

    p = 1 - |t|^2 - |r|^2 carries ~1e-16 absolute rounding, and the
    minimizer picks the phases where that rounding is most negative, so the
    absolute error stays small while the relative one grows as p shrinks.
    """

    @pytest.mark.parametrize("x_target", [1.0, 1e3, 1e6])
    def test_within_1e_14_absolute_at_every_level(self, x_target):
        for _, error in _optimum_p_errors(x_target):
            assert abs(error) < 1e-14

    @pytest.mark.xfail(
        strict=True,
        reason="[exact-p]: 1 - |t|^2 - |r|^2 cancels; off by -1.5e-4 at the last level",
    )
    def test_within_1e_12_relative_at_the_last_level_of_large_ratio(self):
        p_min, error = _optimum_p_errors(1e6)[-1]
        assert abs(error) < 1e-12 * p_min


def poynting_p_at(eps_s, gamma_tilde, omega_tilde, d):
    factors = slab._working_factors(eps_s, gamma_tilde, omega_tilde)
    return slab._poynting_p(factors, omega_tilde * d)


class TestPoyntingAbsorption:
    """slab._poynting_p, the absorption as Im(eps) times the integral of |E|^2.

    Checked where the kernel's 1 - |t|^2 - |r|^2 fails the strict [exact-p]
    xfails: the optima of extract_alpha at x = 1e4, 1e5 and 1e6, and the
    unresolved eval point.
    """

    @pytest.mark.parametrize("x_target", [1e4, 1e5, 1e6])
    def test_within_1e_12_relative_at_every_level_optimum(self, x_target):
        for (gamma_tilde, omega_tilde), res in _optima(x_target):
            exact = slab_p_highprec(res.eps_s_star, gamma_tilde, omega_tilde, res.d_star)
            p = poynting_p_at(res.eps_s_star, gamma_tilde, omega_tilde, res.d_star)
            assert abs(p - exact) <= 1e-12 * exact

    def test_within_1e_12_relative_at_the_unresolved_eval_point(self):
        exact = slab_p_highprec(6.2, 1e-10, 1e-6, 5e5)
        assert abs(poynting_p_at(6.2, 1e-10, 1e-6, 5e5) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("omega_tilde, d, eps_s", [
        (1e-3, 7.0, 6.2), (0.3, 100.0, 6.2), (1e-2, 1e3, 30.0), (0.1, 0.0, 6.2),
    ])
    def test_exactly_zero_without_loss(self, omega_tilde, d, eps_s):
        assert poynting_p_at(eps_s, 0.0, omega_tilde, d) == 0.0

    @given(
        st.floats(1.1, 100.0), st.floats(1e-6, 0.5), st.floats(1e-4, 0.5),
        st.floats(0.1, 20.0),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_within_1e_12_relative_of_the_oracle(self, eps_s, gamma_tilde, omega_tilde, d):
        exact = slab_p_highprec(eps_s, gamma_tilde, omega_tilde, d)
        p = poynting_p_at(eps_s, gamma_tilde, omega_tilde, d)
        assert abs(p - exact) <= 1e-12 * exact
