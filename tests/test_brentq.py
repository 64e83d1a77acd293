import math

import pytest

from bsbound import optimizer
from bsbound.optimizer import _PHI_HI, _PHI_LO, _golden_min
from bsbound.slab import _airy_factors, _kernel, working_index

EPS_GRID = [1.01 * (1e3 / 1.01) ** (k / 9) for k in range(10)]
X_GRID = [10.0 ** k for k in range(-3, 7)]


def branch_slices():
    """(h, a, b) for every bracketed root of ln x(phi) - ln x_target, as the solver builds them."""
    for eps_s in EPS_GRID:
        factors = _airy_factors(working_index(eps_s, 1e-3, 1e-3))
        eta0 = math.sqrt(eps_s)
        for x_target in X_GRID:
            ln_xt = math.log(x_target)

            # the ratio at optical phase phi = eta0 * omega_tilde * d
            def h(phi, factors=factors, eta0=eta0, ln_xt=ln_xt):
                return math.log(_kernel(factors, phi / eta0)[3]) - ln_xt

            valley, _, _ = _golden_min(h, _PHI_LO, _PHI_HI)
            for a, b in ((_PHI_LO, valley), (valley, _PHI_HI)):
                if h(a) * h(b) < 0.0:
                    yield h, a, b


def scipy_brentq(f, a, b):
    """scipy's brentq at the tolerances the port is fixed to."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    return brentq(f, a, b, xtol=optimizer._XTOL, rtol=optimizer._RTOL)


def test_matches_scipy_bit_for_bit():
    slices = list(branch_slices())
    assert len(slices) >= 50
    for h, a, b in slices:
        assert optimizer.brentq(h, a, b, h(a), h(b)) == scipy_brentq(h, a, b)


def test_analytic_functions_match_scipy():
    for f, a, b in (
        (lambda v: v**3 - 0.3, 0.0, 1.0),
        (lambda v: math.cos(v) - v, -2.0, 3.0),
        (lambda v: math.exp(v) - 1e4, -50.0, 50.0),
    ):
        assert optimizer.brentq(f, a, b, f(a), f(b)) == scipy_brentq(f, a, b)


def test_endpoint_root_is_returned():
    assert optimizer.brentq(lambda v: v - 2.0, 2.0, 5.0, 0.0, 3.0) == 2.0
    assert optimizer.brentq(lambda v: v - 5.0, 2.0, 5.0, -3.0, 0.0) == 5.0


def test_same_sign_rejected():
    with pytest.raises(ValueError, match="different signs"):
        optimizer.brentq(lambda v: v + 1.0, 0.0, 1.0, 1.0, 2.0)


def test_nan_value_raises_value_error():
    with pytest.raises(ValueError, match="NaN"):
        # finite end values: the NaN comes from the first inner step
        optimizer.brentq(lambda v: math.nan, 0.0, 1.0, -0.3, 0.7)


def test_running_out_of_iterations_raises_runtime_error(monkeypatch):
    monkeypatch.setattr(optimizer, "_MAXITER", 2)
    with pytest.raises(RuntimeError, match="Failed to converge after 2 iterations"):
        optimizer.brentq(lambda v: v**3 - 0.3, 0.0, 1.0, -0.3, 0.7)


def test_known_endpoint_values_save_two_calls():
    slices = list(branch_slices())[::7]
    slices += [(lambda v: v**3 - 0.3, 0.0, 1.0), (lambda v: math.cos(v) - v, -2.0, 3.0)]
    for h, a, b in slices:
        calls = []

        def counted(v, h=h):
            calls.append(v)
            return h(v)

        assert optimizer.brentq(counted, a, b, h(a), h(b)) == scipy_brentq(h, a, b)
        assert calls and a not in calls and b not in calls


def test_nan_endpoint_value_raises_value_error():
    with pytest.raises(ValueError, match="NaN"):
        optimizer.brentq(lambda v: v - 0.3, 0.0, 1.0, math.nan, 0.7)
    with pytest.raises(ValueError, match="NaN"):
        optimizer.brentq(lambda v: v - 0.3, 0.0, 1.0, -0.3, math.nan)
