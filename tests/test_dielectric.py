import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from bsbound import dielectric
from bsbound.dielectric import (
    _GAUSS_15,
    ComplexIndex,
    DrudeLorentzModel,
    QuadratureError,
    Resonance,
    low_frequency_approx,
    refractive_index,
    superconvergence_residual,
    susceptibility,
)
from oracles import susceptibility_highprec

MODEL = DrudeLorentzModel([Resonance(omega_t=1.0, omega_p=1.0, gamma=0.1)])

resonance_st = st.builds(
    Resonance,
    omega_t=st.floats(0.1, 10.0),
    omega_p=st.floats(0.01, 10.0),
    gamma=st.floats(1e-4, 1.0),
)
model_st = st.builds(DrudeLorentzModel, st.lists(resonance_st, min_size=1, max_size=4))


class TestSusceptibility:
    def test_static_limit(self):
        assert susceptibility(MODEL, 0.0) == 1.0 + 0.0j

    def test_static_is_exactly_real(self):
        model = DrudeLorentzModel([Resonance(2.0, 3.0, 0.5), Resonance(1.0, 1.0, 0.1)])
        chi0 = susceptibility(model, 0.0)
        assert chi0.imag == 0.0
        assert chi0.real == pytest.approx(9.0 / 4.0 + 1.0, rel=1e-15)

    def test_static_limit_is_the_static_sum(self):
        # omega = 0 runs the same term sum: no (1 + sum) - 1 rounding
        model = DrudeLorentzModel([Resonance(1.0, 1e-10, 0.1)])
        assert susceptibility(model, 0.0) == complex(1e-10**2, 0.0)

    def test_on_resonance(self):
        # denominator is exactly -i*gamma*omega there
        chi = susceptibility(MODEL, 1.0)
        assert chi == pytest.approx(10.0j, rel=1e-14)

    def test_highprec_frozen_value(self):
        model = DrudeLorentzModel([Resonance(1.0, 2.0, 0.01)])
        chi = susceptibility(model, 0.5)
        # frozen from a 50-digit recomputation
        assert chi.real == pytest.approx(5.333096306830807, rel=1e-15)
        assert chi.imag == pytest.approx(0.03555397537887205, rel=1e-15)

    def test_against_highprec_oracle(self):
        rng = np.random.default_rng(20260808)
        for _ in range(50):
            terms = [
                (rng.uniform(0.2, 5), rng.uniform(0.1, 4), rng.uniform(1e-3, 0.5))
                for _ in range(rng.integers(1, 4))
            ]
            model = DrudeLorentzModel([Resonance(*t) for t in terms])
            omega = rng.uniform(0, 8)
            exact = susceptibility_highprec(terms, omega)
            here = susceptibility(model, omega)
            assert abs(here - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("omega, gamma", [
        (1e155, 1e154), (1e160, 1e154), (1e200, 1e154), (1e300, 1e100),
    ])
    def test_overflowing_square_keeps_the_tiny_sum(self, omega, gamma):
        # omega^2 or gamma*omega overflows although chi is tiny, subnormal
        # or zero: at omega = 1e155 it is -9.9e-311 + 9.9e-312j
        here = susceptibility(DrudeLorentzModel([Resonance(1.0, 1.0, gamma)]), omega)
        exact = susceptibility_highprec([(1.0, 1.0, gamma)], omega)
        assert abs(here - exact) <= 1e-12 * abs(exact)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            susceptibility(MODEL, -0.1)

    @pytest.mark.parametrize("omega", [math.inf, -math.inf, math.nan])
    def test_non_finite_frequency_rejected(self, omega):
        # refractive_index goes through susceptibility, so it names omega too
        for f in (susceptibility, refractive_index):
            with pytest.raises(ValueError, match=r"^omega must be finite, got "):
                f(MODEL, omega)

    @given(model=model_st, omega=st.floats(1e-6, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_imaginary_part_positive(self, model, omega):
        assert susceptibility(model, omega).imag > 0.0


class TestRefractiveIndex:
    @given(model=model_st)
    @settings(max_examples=200, deadline=None)
    def test_static_square_root(self, model):
        n = refractive_index(model, 0.0)
        assert n.eta == math.sqrt(model.static_permittivity())
        assert n.kappa == 0.0

    def test_vanishing_strength_is_vacuum(self):
        model = DrudeLorentzModel([Resonance(1.0, 0.0, 0.1)])
        n = refractive_index(model, 0.7)
        assert n.eta == 1.0
        assert n.kappa == 0.0

    def test_frozen_low_frequency_point(self):
        model = DrudeLorentzModel([Resonance(1.0, math.sqrt(5.2), 1e-3)])
        n = refractive_index(model, 1e-3)
        # frozen from a 50-digit recomputation
        assert n.eta == pytest.approx(2.489980963782874, rel=1e-12)
        assert n.kappa == pytest.approx(1.0441867780608141e-06, rel=1e-12)

    def test_matches_low_frequency_form(self):
        model = DrudeLorentzModel([Resonance(1.0, math.sqrt(5.2), 1e-3)])
        exact = refractive_index(model, 1e-3)
        approx = low_frequency_approx(model, 1e-3)
        assert exact.eta == pytest.approx(approx.eta, rel=1e-5)
        assert exact.kappa == pytest.approx(approx.kappa, rel=1e-5)

    def test_branch_guard(self):
        # gamma = 0 hook above resonance can push 1+chi negative real
        model = DrudeLorentzModel([Resonance(1.0, math.sqrt(5.0), 0.0)])
        with pytest.raises(ValueError):
            refractive_index(model, 1.2)

    # kappa underflows to zero below omega ~ 1e-300; stay in the normal range
    @given(model=model_st, omega=st.one_of(st.just(0.0), st.floats(1e-9, 50.0)))
    @settings(max_examples=200, deadline=None)
    def test_physical_branch(self, model, omega):
        n = refractive_index(model, omega)
        assert n.eta > 0.0
        assert n.kappa >= 0.0
        if omega > 0.0:
            assert n.kappa > 0.0
        else:
            assert n.kappa == 0.0


class TestLowFrequencyApprox:
    def test_zero_frequency(self):
        n = low_frequency_approx(MODEL, 0.0)
        assert n.eta == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert n.kappa == 0.0

    def test_direct_substitution(self):
        n = low_frequency_approx(MODEL, 0.01)
        assert n.eta == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert n.kappa == pytest.approx(3.5355339059327376e-04, rel=1e-14)

    def test_agreement_with_exact(self):
        exact = refractive_index(MODEL, 1e-2)
        approx = low_frequency_approx(MODEL, 1e-2)
        assert abs(approx.kappa - exact.kappa) / exact.kappa < 1e-3

    @pytest.mark.parametrize("omega", [math.inf, math.nan])
    def test_non_finite_kappa_rejected(self, omega):
        with pytest.raises(ValueError, match="must be finite"):
            low_frequency_approx(MODEL, omega)

    def test_quadratic_error_decay(self):
        # halving omega should shrink the kappa error about fourfold
        def rel_err(omega):
            exact = refractive_index(MODEL, omega)
            approx = low_frequency_approx(MODEL, omega)
            return abs(approx.kappa - exact.kappa) / exact.kappa

        ratio = rel_err(1e-2) / rel_err(5e-3)
        assert 3.5 < ratio < 4.5


class TestSumRule:
    def test_rule_matches_numpy_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(15)
        assert np.max(np.abs(np.array(_GAUSS_15) - np.column_stack([nodes, weights]))) <= 1e-15

    def test_panel_integrand_is_the_index(self, monkeypatch):
        # one subinterval and one node at a time: eta - 1 bit for bit
        model = DrudeLorentzModel([Resonance(1.0, 1.0, 0.1), Resonance(2.5, 0.7, 0.3)])
        terms = [(r.omega_t**2, r.omega_p**2, r.gamma) for r in model.resonances]
        a, b = 0.6, 1.7
        mid, half = 0.5 * (b + a), 0.5 * (b - a)
        for node, weight in _GAUSS_15:
            monkeypatch.setattr(dielectric, "_GAUSS_15", ((node, weight),))
            eta = refractive_index(model, mid + half * node).eta
            assert dielectric._gauss_panel(terms, a, b, 1) == half * (weight * (eta - 1.0))

    def test_vacuum_residual_is_zero(self):
        vacuum = DrudeLorentzModel([Resonance(1.0, 0.0, 0.1)])
        assert superconvergence_residual(vacuum, 1e3) == 0.0

    def test_residual_small_against_l1_scale(self):
        res = superconvergence_residual(MODEL, 1e3)
        l1, _ = quad(
            lambda w: abs(np.sqrt(1 + susceptibility(MODEL, w)).real - 1),
            0.0, 1e3, points=[0.0, 0.9, 1.0, 2.0], limit=400,
        )
        assert abs(res) / l1 < 1e-2

    def test_refinement_levels_agree(self, monkeypatch):
        # doubling the starting grid is the self-oracle for convergence
        b = superconvergence_residual(MODEL, 1e3)
        monkeypatch.setattr(dielectric, "_QUAD_POINTS", dielectric._QUAD_POINTS // 2)
        a = superconvergence_residual(MODEL, 1e3)
        assert abs(a - b) < 1e-9

    def test_larger_cutoff_improves(self):
        r1 = superconvergence_residual(MODEL, 1e3)
        r2 = superconvergence_residual(MODEL, 2e3)
        assert abs(r2) < abs(r1)

    def test_sharp_resonance_converges(self):
        sharp = DrudeLorentzModel([Resonance(1.0, 1.0, 1e-3)])
        res = superconvergence_residual(sharp, 1e3)
        assert abs(res) < 1e-6

    def test_nonconvergence_signalled(self, monkeypatch):
        monkeypatch.setattr(dielectric, "_QUAD_POINTS", 1)
        monkeypatch.setattr(dielectric, "_MAX_SUBDIVISIONS", 4)
        sharp = DrudeLorentzModel([Resonance(1.0, 1.0, 1e-3)])
        with pytest.raises(QuadratureError):
            superconvergence_residual(sharp, 1e3)

    def test_panel_out_of_float_range_names_the_model(self):
        # omega_p**2 is finite, but omega_p**2 / (1 - omega**2 - 0.1i*omega) is not
        model = DrudeLorentzModel([Resonance(1.0, SQRT_MAX, 0.1)])
        with pytest.raises(ValueError) as exc:
            superconvergence_residual(model, 10.0)
        assert str(exc.value) == (
            f"eta - 1 leaves float range on sum-rule panel [0, 1], got model={model!r}"
        )

    def test_finite_panel_that_never_settles_keeps_quadrature_error(self):
        model = DrudeLorentzModel([Resonance(1.0, 1e150, 0.1)])
        with pytest.raises(QuadratureError, match=r"changed by 7\.450e\+135$"):
            superconvergence_residual(model, 10.0)

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValueError):
            superconvergence_residual(MODEL, 0.0)

    @pytest.mark.parametrize("omega_max", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_cutoff_rejected_before_any_panel(self, monkeypatch, omega_max):
        monkeypatch.setattr(dielectric, "_gauss_panel", pytest.fail)
        with pytest.raises(ValueError, match="omega_max must be finite"):
            superconvergence_residual(MODEL, omega_max)


# every public function that squares omega_t and omega_p
FIVE_CALLS = [
    lambda model: susceptibility(model, 0.0),
    lambda model: refractive_index(model, 0.5),
    DrudeLorentzModel.static_permittivity,
    lambda model: low_frequency_approx(model, 1e-3),
    lambda model: superconvergence_residual(model, 10.0),
]
FIVE_IDS = ["susceptibility", "refractive_index", "static_permittivity",
            "low_frequency_approx", "superconvergence_residual"]
# the largest float whose ** 2 is finite
SQRT_MAX = math.sqrt(sys.float_info.max)


class TestValidation:
    def test_resonance_requires_positive_omega_t(self):
        with pytest.raises(ValueError):
            Resonance(omega_t=0.0, omega_p=1.0, gamma=0.1)

    def test_resonance_rejects_negative_strength(self):
        with pytest.raises(ValueError):
            Resonance(omega_t=1.0, omega_p=-1.0, gamma=0.1)

    def test_resonance_rejects_negative_width(self):
        with pytest.raises(ValueError):
            Resonance(omega_t=1.0, omega_p=1.0, gamma=-0.1)

    @pytest.mark.parametrize("call", FIVE_CALLS, ids=FIVE_IDS)
    @pytest.mark.parametrize("fields, name", [
        ((1e200, 1e200, 0.1), "omega_t"),
        ((1.0, 1e200, 0.1), "omega_p"),
        ((math.nextafter(SQRT_MAX, math.inf), 1.0, 0.1), "omega_t"),
    ])
    def test_overflowing_square_rejected(self, call, fields, name):
        # float ** raises OverflowError here; the model's rule names the field
        with pytest.raises(ValueError, match=rf"^{name}\*\*2 overflows, got {name}="):
            call(DrudeLorentzModel([Resonance(*fields)]))

    @pytest.mark.parametrize("call, static", zip(FIVE_CALLS, [True, False, True, True, False]),
                             ids=FIVE_IDS)
    def test_underflowing_square_rejected_where_divided(self, call, static):
        # omega_t**2 is 0.0: the static sums divide by it and name it; chi at
        # omega > 0 divides by omega_t**2 - omega**2 - i*gamma*omega, not 0
        model = DrudeLorentzModel([Resonance(1e-200, 1.0, 0.1)])
        if static:
            with pytest.raises(ValueError,
                               match=r"^omega_t\*\*2 underflows to zero, got omega_t=1e-200$"):
                call(model)
        else:
            call(model)

    @pytest.mark.parametrize("call", FIVE_CALLS, ids=FIVE_IDS)
    @pytest.mark.parametrize("fields", [
        (SQRT_MAX, SQRT_MAX, 0.1), (1.0, SQRT_MAX, 0.1), (SQRT_MAX, 1.0, 0.1),
    ])
    def test_largest_accepted_fields_overflow_nowhere(self, call, fields):
        # any OverflowError would escape; these are the documented errors
        try:
            call(DrudeLorentzModel([Resonance(*fields)]))
        except (ValueError, QuadratureError):
            pass

    def test_model_requires_resonances(self):
        with pytest.raises(ValueError):
            DrudeLorentzModel([])

    def test_complex_index_invariants(self):
        with pytest.raises(ValueError):
            ComplexIndex(eta=0.0, kappa=0.0)
        with pytest.raises(ValueError):
            ComplexIndex(eta=1.0, kappa=-1e-12)

    @pytest.mark.parametrize("eta, kappa", [
        (math.inf, 0.0), (math.nan, 0.0), (1.5, math.inf), (1.5, math.nan),
    ])
    def test_complex_index_rejects_non_finite_fields(self, eta, kappa):
        with pytest.raises(ValueError, match="eta and kappa must be finite"):
            ComplexIndex(eta, kappa)
