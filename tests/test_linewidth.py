import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsbound.linewidth import (
    EPSILON_0,
    HBAR,
    DecayContext,
    dipole_sq_from_static_index,
    free_space_decay_rate,
    local_field_factor,
    min_absorption_probability,
    scaled_linewidth_bound,
)
from bsbound.optimizer import EPS_S_MAX, EPS_S_MIN
from conftest import GOLDEN
from oracles import (
    alpha0_min, dipole_sq_highprec, free_space_rate_highprec, local_field_highprec,
    scaled_bound_highprec,
)

LIGHT = 299792458.0


def chain_bound(eta, omega_tilde, n_vt, omega_t=2.5e15):
    """Line-width bound via the unscaled dipole chain, in units of omega_t."""
    lambda_t = 2 * math.pi * LIGHT / omega_t
    number_density = n_vt / lambda_t**3
    d_sq = dipole_sq_from_static_index(eta, omega_t, number_density)
    rate = free_space_decay_rate(omega_tilde * omega_t, d_sq)
    return local_field_factor(eta) * rate / omega_t


class TestFreeSpaceRate:
    def test_zero_dipole(self):
        assert free_space_decay_rate(2.5e15, 0.0) == 0.0

    def test_cubic_frequency_law(self):
        d_sq = (3.336e-30) ** 2
        assert free_space_decay_rate(5e15, d_sq) / free_space_decay_rate(2.5e15, d_sq) \
            == pytest.approx(8.0, rel=1e-15)

    def test_frozen_debye_value(self):
        # one debye squared at a UV-scale transition, frozen from mpmath
        rate = free_space_decay_rate(2.5e15, (3.336e-30) ** 2)
        assert rate == pytest.approx(733354.5368393433, rel=1e-12)

    def test_against_highprec_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            omega = float(10.0 ** rng.uniform(13, 17))
            d_sq = float(10.0 ** rng.uniform(-61, -57))
            assert free_space_decay_rate(omega, d_sq) == pytest.approx(
                free_space_rate_highprec(omega, d_sq), rel=1e-13
            )


class TestDipoleRelation:
    def test_vacuum_limit(self):
        assert dipole_sq_from_static_index(1.0, 2.5e15, 1e25) == 0.0

    def test_round_trip_static_susceptibility(self):
        eta, omega_t, n = math.sqrt(6.2), 2.5e15, 3.7e26
        d_sq = dipole_sq_from_static_index(eta, omega_t, n)
        chi0 = 2 * d_sq * n / (3 * HBAR * omega_t * EPSILON_0)
        assert chi0 == pytest.approx(eta**2 - 1, rel=1e-14)


class TestLocalField:
    def test_vacuum_factor_is_one(self):
        assert local_field_factor(1.0) == 1.0

    def test_frozen_value(self):
        assert local_field_factor(math.sqrt(6.2)) == pytest.approx(4.797468550813301, rel=1e-14)

    @given(st.floats(1.0, 50.0), st.floats(1e-6, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_increasing(self, eta, step):
        assert local_field_factor(eta + step) > local_field_factor(eta)


class TestScaledBound:
    def test_vanishes_toward_vacuum(self):
        ctx = DecayContext(n_vt=1e9, eta=1.0 + 1e-6)
        assert scaled_linewidth_bound(ctx, 1.0) < 1e-13

    def test_frozen_value(self):
        ctx = DecayContext(n_vt=1e9, eta=math.sqrt(6.2))
        assert scaled_linewidth_bound(ctx, 1.0) == pytest.approx(9.848616278424507e-07, rel=1e-12)

    def test_chain_identity_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            eta = float(rng.uniform(1.05, 10.0))
            omega_tilde = float(10.0 ** rng.uniform(-3, 0))
            n_vt = float(10.0 ** rng.uniform(6, 12))
            omega_t = float(10.0 ** rng.uniform(14, 16))
            direct = scaled_linewidth_bound(DecayContext(n_vt=n_vt, eta=eta), omega_tilde)
            chained = chain_bound(eta, omega_tilde, n_vt, omega_t)
            assert abs(direct - chained) <= 1e-12 * direct

    @pytest.mark.parametrize("eps_s_minus_one", [1e-6, 1e-4, 1e-2, 1.0, 1e2])
    def test_against_highprec_oracle(self, eps_s_minus_one):
        # (eta - 1)(eta + 1) does not cancel as eta -> 1, where eta**2 - 1 did
        ctx = DecayContext(1e9, math.sqrt(1.0 + eps_s_minus_one))
        assert scaled_linewidth_bound(ctx, 0.1) == pytest.approx(
            scaled_bound_highprec(ctx, 0.1), rel=2e-15, abs=0.0
        )


class TestMinAbsorption:
    CTX = DecayContext(n_vt=1e9, eta=math.sqrt(6.2))

    def test_factorizes_through_bound(self):
        p = min_absorption_probability(0.9, self.CTX, 0.1)
        assert p == 0.9 * 0.1 * scaled_linewidth_bound(self.CTX, 0.1)

    def test_quartic_frequency_law(self):
        ratio = min_absorption_probability(0.9, self.CTX, 0.2) / \
            min_absorption_probability(0.9, self.CTX, 0.1)
        assert ratio == pytest.approx(16.0, rel=1e-15)

    def test_headline_prefactor_band(self):
        p = min_absorption_probability(0.9, self.CTX, 1.0)
        assert 0.5e-6 < p < 2e-6

    def test_headline_closed_form(self):
        # alpha0 at x = 1 through the same chain; the gap (2.9e-5) comes
        # mostly through eta: alpha is flat at its minimum, so the
        # golden's eps_s sits 1.6e-5 from eps0
        eps0, alpha0 = alpha0_min(1.0, EPS_S_MIN, EPS_S_MAX)
        p_min = min_absorption_probability(alpha0, DecayContext(1e9, math.sqrt(eps0)), 0.1)
        with open(GOLDEN / "bound_headline.csv", newline="") as f:
            (golden,) = csv.DictReader(f)
        assert p_min == pytest.approx(float(golden["p_min"]), rel=1e-4)

    def test_eta_cubed_growth(self):
        def ratio(eta):
            num = min_absorption_probability(1.0, DecayContext(1e9, 2 * eta), 0.1)
            den = min_absorption_probability(1.0, DecayContext(1e9, eta), 0.1)
            return num / den

        assert abs(ratio(500.0) - 8.0) < abs(ratio(50.0) - 8.0)
        assert ratio(500.0) == pytest.approx(8.0, abs=1e-4)

    def test_positive_outputs(self):
        assert min_absorption_probability(0.3, self.CTX, 0.05) > 0.0

    @pytest.mark.parametrize("omega", [1e100, 1e200])
    def test_overflow_rejected(self, omega):
        # 1e200: omega^3 overflows in the bound; 1e100: only the product does
        with pytest.raises(ValueError, match="overflows"):
            min_absorption_probability(0.9, self.CTX, omega)

    def test_bound_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            scaled_linewidth_bound(self.CTX, 1e200)
        with pytest.raises(ValueError, match="overflows"):
            scaled_linewidth_bound(DecayContext(n_vt=1e-300, eta=2.0), 1e3)

    @pytest.mark.parametrize("n_vt", [1e-3, 1e-300])
    def test_probability_not_below_one_rejected(self, n_vt):
        # p_min = 89.96 and 8.996e298: no probability, the chain is out of regime
        ctx = DecayContext(n_vt=n_vt, eta=2.5)
        with pytest.raises(ValueError, match=r"^minimal absorption probability \S+ is not below 1"):
            min_absorption_probability(0.9, ctx, 0.1)

    def test_probability_up_to_one_kept(self):
        # p_min scales as 1/n_vt: 0.8996 at n_vt = 0.1, 1.0006 at n_vt = 0.0899
        ctx = DecayContext(n_vt=0.1, eta=2.5)
        assert 0.89 < min_absorption_probability(0.9, ctx, 0.1) < 1.0
        with pytest.raises(ValueError, match="is not below 1"):
            min_absorption_probability(0.9, DecayContext(n_vt=0.0899, eta=2.5), 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayContext(n_vt=0.0, eta=2.0)
        with pytest.raises(ValueError):
            DecayContext(n_vt=1e9, eta=1.0)
        with pytest.raises(ValueError):
            min_absorption_probability(0.0, self.CTX, 0.1)
        with pytest.raises(ValueError):
            scaled_linewidth_bound(self.CTX, 0.0)


CTX = DecayContext(n_vt=1e9, eta=math.sqrt(6.2))
# (function, good arguments, index of each float argument and its name)
LINEWIDTH_CALLS = [
    (free_space_decay_rate, (2.5e15, 1e-59), ("omega", "dipole_sq")),
    (dipole_sq_from_static_index, (2.0, 2.5e15, 1e25), ("eta", "omega_t", "number_density")),
    (local_field_factor, (2.0,), ("eta",)),
    (scaled_linewidth_bound, (CTX, 0.1), (None, "omega_tilde")),
    (min_absorption_probability, (0.9, CTX, 0.1), ("alpha", None, "omega_tilde")),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("func, args, names", LINEWIDTH_CALLS,
                         ids=[call[0].__name__ for call in LINEWIDTH_CALLS])
def test_non_finite_argument_named(func, args, names, value):
    for i, name in enumerate(names):
        if name is None:
            continue  # a DecayContext, which checks its own fields
        bad = list(args)
        bad[i] = value
        with pytest.raises(ValueError, match=rf"must be finite, got {name}={value!r}$"):
            func(*bad)


@pytest.mark.parametrize("func, args", [
    (free_space_decay_rate, (1e200, 1.0)),  # omega**3 alone is out of range
    (local_field_factor, (1e308,)),  # 2.25 eta overflows
    (dipole_sq_from_static_index, (1e200, 1.0, 1.0)),
    (free_space_decay_rate, (1e100, 1e300)),  # the product is inf
    (dipole_sq_from_static_index, (2.0, 1e300, 1e-300)),
], ids=["rate-pow", "local-field-pow", "dipole-pow", "rate-product", "dipole-product"])
def test_unscaled_overflow_rejected(func, args):
    # the ValueError of the scaled pair, never OverflowError or inf
    with pytest.raises(ValueError, match=r"^[a-z -]+ overflows at "):
        func(*args)


@pytest.mark.parametrize("func, args, oracle", [
    (local_field_factor, (1e160,), local_field_highprec),  # about 2.25e160
    (free_space_decay_rate, (1e103, 0.0), free_space_rate_highprec),  # 0.0
    (free_space_decay_rate, (1e103, 1e-300), free_space_rate_highprec),
    (dipole_sq_from_static_index, (1e160, 1e-300, 1.0), dipole_sq_highprec),  # about 1.4e-25
    (free_space_decay_rate, (1e-110, 1e300), free_space_rate_highprec),  # about 4.2e-12
    (dipole_sq_from_static_index, (1e100, 1e-300, 1.0), dipole_sq_highprec),  # about 1.4e-145
    (scaled_linewidth_bound, (DecayContext(1.0, 1e160), 1e-100), scaled_bound_highprec),  # 8.88e181
], ids=["local-field", "rate-zero-dipole", "rate", "dipole", "rate-small-omega", "dipole-small-omega",
        "bound"])
def test_in_range_result_when_an_intermediate_leaves_float_range(func, args, oracle):
    # omega**3, eta**2 or 3 hbar omega_t eps0 overflows or underflows to zero
    # in the textbook formula; the result does not
    assert func(*args) == pytest.approx(oracle(*args), rel=1e-15, abs=0.0)


class TestUnderflow:
    def test_bound_underflow_rejected(self):
        # omega_tilde^3 is 0.0 in floating point
        with pytest.raises(ValueError, match="^line-width bound underflows to zero"):
            scaled_linewidth_bound(CTX, 1e-300)

    def test_probability_underflow_rejected(self):
        # the bound is ~1e-247, and alpha * omega_tilde * bound rounds to 0.0
        assert scaled_linewidth_bound(CTX, 1e-80) > 0.0
        with pytest.raises(
            ValueError, match="^minimal absorption probability underflows to zero"
        ):
            min_absorption_probability(0.9, CTX, 1e-80)

    def test_subnormal_intermediate_loses_no_bits(self):
        # alpha * omega_tilde = 1e-310 is subnormal; p_min, about 4.2e-38, is not
        alpha, ctx, omega = 1e-300, DecayContext(1e-300, 2.0), 1e-10
        p = min_absorption_probability(alpha, ctx, omega)
        expected = alpha * (omega * scaled_bound_highprec(ctx, omega))
        assert p == pytest.approx(expected, rel=2e-15, abs=0.0)

    def test_subnormal_probability_kept(self):
        assert 0.0 < min_absorption_probability(0.9, CTX, 1e-79) < 2.3e-308
