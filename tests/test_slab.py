import cmath
import math

import numpy as np
import pytest

from bsbound.dielectric import ComplexIndex, DrudeLorentzModel, Resonance, refractive_index
from bsbound.optimizer import solve_thickness_for_ratio
from bsbound.slab import (
    ScaledSlabParams,
    _airy_factors,
    _kernel,
    evaluate,
    reflection,
    transmission,
    working_index,
)
from oracles import airy_intensities, reference_slab_tr


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
        assert reflection(n, 0.0, t) == pytest.approx(0.0j, abs=1e-15)

    def test_index_matched_slab(self):
        n = ComplexIndex(1.0, 0.0)
        t = transmission(n, 3.7)
        assert t == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert reflection(n, 3.7, t) == pytest.approx(0.0j, abs=1e-15)

    def test_matches_transfer_matrix_point(self):
        n = ComplexIndex(2.49, 0.001)
        t = transmission(n, 0.5)
        r = reflection(n, 0.5, t)
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
            r = reflection(n, phase, t)
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
                assert (t, reflection(n, float(phase), t)) == inline_slab(n, float(phase))[:2]

    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError):
            transmission(ComplexIndex(2.0, 0.0), -1.0)


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
            t = transmission(n, phase)
            assert out[:2] == (t, reflection(n, phase, t))
            resp = evaluate(ScaledSlabParams(omega, gamma, d, eps_s))
            assert out == (resp.t, resp.r, resp.p, resp.x)
            assert out == inline_slab(n, phase)

    def test_given_transmission_only_sets_the_reflection(self):
        n = ComplexIndex(2.49, 0.001)
        t = 0.3 - 0.4j
        assert _kernel(_airy_factors(n), 0.5, t)[:2] == (t, reflection(n, 0.5, t))
        assert reflection(n, 0.5, t) != reflection(n, 0.5, transmission(n, 0.5))

    def test_zero_phase_identity(self):
        n = working_index(6.2, 0.1, 0.3)
        t, r, p, x = _kernel(_airy_factors(n), 0.0)
        assert t == complex(1.0, 0.0) and r == 0 and p == 0.0 and x == math.inf
        assert transmission(n, 0.0) == t and reflection(n, 0.0, t) == r
        resp = evaluate(ScaledSlabParams(omega_tilde=0.3, gamma_tilde=0.1, d=0.0, eps_s=6.2))
        assert (resp.t, resp.r, resp.p, resp.x) == (t, r, p, x)

    def test_lossless_hook(self):
        for eps_s, d in ((1.5, 40.0), (6.2, 500.0), (80.0, 3.0)):
            n = working_index(eps_s, 0.0, 1e-3)
            assert n.kappa == 0.0
            out = _kernel(_airy_factors(n), 1e-3 * d)
            assert out == inline_slab(n, 1e-3 * d)
            assert abs(out[2]) < 1e-12


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
