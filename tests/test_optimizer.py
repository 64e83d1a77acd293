import math
import os

import numpy as np
import pytest
from scipy.optimize import brentq

from bsbound import optimizer
from bsbound.optimizer import (
    MinimizeConfig,
    extract_alpha,
    ladder,
    minimize_absorption,
    solve_thickness_for_ratio,
    sweep,
)
from bsbound.slab import ScaledSlabParams, _airy_factors, _kernel, evaluate, working_index
from conftest import GOLDEN, make_goldens

INF, NAN = math.inf, math.nan


def ratio_at(eps_s, d, gamma_tilde=1e-3, omega_tilde=1e-3):
    return evaluate(ScaledSlabParams(omega_tilde, gamma_tilde, d, eps_s)).x


class TestThicknessSolve:
    def test_near_transmissive_phase_tends_to_zero(self):
        d = solve_thickness_for_ratio(6.2, 1e6, branch="first")
        phi = math.sqrt(6.2) * 1e-3 * d
        assert 0 < phi < 0.05

    def test_lossless_seed_agreement(self):
        # root should sit within O(gamma*omega) of the closed lossless form
        d = solve_thickness_for_ratio(6.2, 1.0, branch="first")
        eta = math.sqrt(6.2)
        phi_lossless = math.asin(math.sqrt(4 * 6.2 / (5.2**2)))
        assert math.sqrt(6.2) * 1e-3 * d == pytest.approx(phi_lossless, rel=1e-4)
        d2 = solve_thickness_for_ratio(6.2, 1.0, branch="second")
        assert eta * 1e-3 * d2 == pytest.approx(math.pi - phi_lossless, rel=1e-4)

    def test_feasibility_boundary(self):
        # x = 1 needs eps_s >= 3 + 2*sqrt(2)
        assert solve_thickness_for_ratio(4.0, 1.0) is None
        assert solve_thickness_for_ratio(5.8, 1.0) is None
        assert solve_thickness_for_ratio(5.9, 1.0) is not None

    def test_constraint_residual_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x_target = float(10.0 ** rng.uniform(-1.5, 3.0))
            eps_s = float(rng.uniform(1.5, 400.0))
            branch = "first" if rng.random() < 0.5 else "second"
            d = solve_thickness_for_ratio(eps_s, x_target, branch=branch)
            if d is None:
                continue
            x = ratio_at(eps_s, d)
            assert abs(x - x_target) / x_target <= 1e-10

    @pytest.mark.parametrize("eps_s, x_target, branch", [
        (34145488738.926804, 1.0, "second"),  # the root's ratio is off by 1.854e-10
        (1.000001, 1e30, "first"),  # off by 1.860e-7
    ])
    def test_missed_constraint_raises(self, eps_s, x_target, branch):
        # the tolerance and error of minimize_absorption, not a thickness off the ratio
        with pytest.raises(RuntimeError, match=r"inner solve left residual .* > 1\.0e-10"):
            solve_thickness_for_ratio(eps_s, x_target, branch=branch)

    def test_branch_ordering(self):
        d1 = solve_thickness_for_ratio(6.2, 1.0, branch="first")
        d2 = solve_thickness_for_ratio(6.2, 1.0, branch="second")
        assert d1 < d2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_thickness_for_ratio(0.5, 1.0)
        with pytest.raises(ValueError):
            solve_thickness_for_ratio(6.2, -1.0)
        with pytest.raises(ValueError):
            solve_thickness_for_ratio(6.2, 1.0, branch="third")


class TestMinimize:
    def test_symmetric_splitter(self):
        res = minimize_absorption(MinimizeConfig(x_target=1.0))
        assert res.feasible
        assert 0.85 <= res.alpha <= 0.95
        assert 6.0 <= res.eps_s_star <= 6.4
        assert res.branch == "first"
        assert res.diagnostics.constraint_residual <= 1e-10

    def test_extreme_transmission_alpha_small(self):
        res = minimize_absorption(MinimizeConfig(x_target=1e4))
        assert res.feasible
        assert res.alpha < 0.05

    def test_small_parameter_stability(self):
        a = minimize_absorption(MinimizeConfig(x_target=1.0)).alpha
        b = minimize_absorption(
            MinimizeConfig(x_target=1.0, gamma_tilde=5e-4, omega_tilde=5e-4)
        ).alpha
        assert abs(a - b) / a < 0.01

    def test_gamma_linearity(self):
        base = minimize_absorption(MinimizeConfig(x_target=1.0))
        doubled = minimize_absorption(MinimizeConfig(x_target=1.0, gamma_tilde=2e-3))
        assert doubled.p_min / base.p_min == pytest.approx(2.0, rel=0.01)

    def test_branch_dominance(self):
        for x in (0.3, 1.0, 3.0):
            res = minimize_absorption(MinimizeConfig(x_target=x))
            rejected = res.diagnostics.rejected_branch_p
            if math.isfinite(rejected):
                assert res.p_min <= rejected

    def test_constraint_reevaluates_through_slab(self):
        res = minimize_absorption(MinimizeConfig(x_target=0.7))
        x = ratio_at(res.eps_s_star, res.d_star)
        assert abs(x - 0.7) / 0.7 <= 1e-10

    def test_determinism(self):
        cfg = MinimizeConfig(x_target=1.0)
        assert minimize_absorption(cfg) == minimize_absorption(cfg)

    def test_infeasible_everywhere(self):
        res = minimize_absorption(
            MinimizeConfig(x_target=1.0, eps_s_range=(1.0 + 1e-6, 5.0))
        )
        assert not res.feasible
        assert res.branch == "none"
        assert math.isnan(res.alpha)

    def test_second_period_is_worse(self):
        # one-time check behind the first-period restriction: the k = 1
        # roots of the same ratio constraint cost strictly more absorption
        res = minimize_absorption(MinimizeConfig(x_target=1.0))
        factors = _airy_factors(working_index(res.eps_s_star, 1e-3, 1e-3))
        eta0 = math.sqrt(res.eps_s_star)

        def response(phi):
            """(p, x) at optical phase phi = eta0 * omega_tilde * d, as the solver sees it."""
            return _kernel(factors, phi / eta0)[2:]

        def h(phi):
            return math.log(response(phi)[1])

        lo, hi = math.pi * (1 + 1e-9), 2 * math.pi * (1 - 1e-9)
        golden = (math.sqrt(5) - 1) / 2
        a, b = lo, hi
        for _ in range(60):
            c, dpt = b - golden * (b - a), a + golden * (b - a)
            if h(c) < h(dpt):
                b = dpt
            else:
                a = c
        valley = 0.5 * (a + b)
        for lo_i, hi_i in ((lo, valley), (valley, hi)):
            if (h(lo_i)) * (h(hi_i)) < 0:
                root = brentq(lambda v: h(v), lo_i, hi_i, xtol=1e-13)
                p_second_period = response(root)[0]
                assert p_second_period > res.p_min

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MinimizeConfig(x_target=-1.0)
        with pytest.raises(ValueError):
            MinimizeConfig(x_target=1.0, eps_s_range=(0.5, 10.0))

    def test_overflowing_eps_s_ratio_rejected(self):
        with pytest.raises(ValueError, match="too wide"):
            MinimizeConfig(x_target=1.0, eps_s_range=(1.0 + 1e-6, 2e302))
        MinimizeConfig(x_target=1.0, eps_s_range=(1.0 + 1e-6, 1e300))

    def test_underflowing_working_point_rejected(self):
        with pytest.raises(ValueError, match="underflows to zero"):
            MinimizeConfig(1.0, gamma_tilde=1e-200, omega_tilde=1e-200)

    def test_slab_evaluation_count(self):
        # deterministic work counter: a change of it is a change of the solve
        res = minimize_absorption(MinimizeConfig(x_target=1.0))
        assert res.diagnostics.slab_evaluations == 7389

    def test_fixed_constraint_tolerance(self):
        cfg = MinimizeConfig(x_target=1.0)
        assert cfg.constraint_rtol == 1e-10
        assert list(MinimizeConfig._fields) == [
            "x_target", "gamma_tilde", "omega_tilde", "eps_s_range",
        ]


class TestExtractAlpha:
    def test_default_ladder(self):
        ex = extract_alpha(1.0)
        assert ex.feasible and ex.scaling_ok
        assert ex.drift < 0.01
        assert 0.85 <= ex.alpha <= 0.95

    def test_underflowing_ladder_fails_before_any_solve(self, monkeypatch):
        # gamma*omega of level 159 and beyond is below the smallest float
        monkeypatch.setattr(optimizer, "minimize_absorption", pytest.fail)
        with pytest.raises(ValueError, match="underflows to zero"):
            extract_alpha(1.0, ladder(1e-3, 1e-3, 200))

    def test_one_level_is_one_minimization(self):
        with pytest.raises(ValueError, match="at least one refinement level"):
            extract_alpha(1.0, levels=())
        ex = extract_alpha(1.0, levels=((1e-3, 1e-3),))
        assert ex.results == (minimize_absorption(MinimizeConfig(x_target=1.0)),)
        assert ex.alpha == ex.results[0].alpha and ex.feasible
        # one level measures no drift, so the scaling is not confirmed
        assert math.isnan(ex.drift) and not ex.scaling_ok

    @pytest.mark.parametrize("count", [325, 10**400], ids=["325", "1e400"])
    def test_oversized_ladder_rejected_before_it_is_built(self, count):
        # level 324 is (0, 0) whatever the start; 10**400 levels cannot be built
        with pytest.raises(ValueError, match="underflows to zero on a ladder of"):
            ladder(1e-3, 1e-3, count)
        assert len(ladder(1e-3, 1e-3, 324)) == 324

    def test_propagates_infeasibility(self):
        ex = extract_alpha(1.0, eps_s_range=(1.0 + 1e-6, 5.0))
        assert not ex.feasible
        assert math.isnan(ex.alpha)


class TestSweep:
    def test_grid_shape(self):
        rows = sweep([0.05, 0.2, 1.0, 5.0, 20.0])
        alphas = [r.alpha for r in rows]
        assert max(alphas) == alphas[2]
        assert rows[0].eps_s_star > rows[2].eps_s_star
        assert rows[0].eps_s_star > 80.0

    def test_row_matches_standalone(self):
        rows = sweep([1.0])
        res = minimize_absorption(MinimizeConfig(x_target=1.0))
        row = rows[0]
        assert (row.alpha, row.eps_s_star, row.d_star, row.p_min) == (
            res.alpha, res.eps_s_star, res.d_star, res.p_min,
        )

    def test_parallel_rows_identical(self):
        xs = [0.5, 1.0, 2.0]
        assert sweep(xs, jobs=1) == sweep(xs, jobs=2)

    def test_infeasible_rows_are_data(self):
        rows = sweep([1e-4, 1.0])  # 1e-4 needs eps_s far beyond the default range
        assert not rows[0].feasible
        assert rows[1].feasible

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep([])

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Sizes of the pools sweep asks for; each maps serially, in this process."""
        import multiprocessing

        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items, chunksize=1):
                return [func(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        return sizes

    def test_pool_sized_by_rows(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        xs = [0.5, 1.0, 2.0]
        assert sweep(xs, jobs=4) == sweep(xs, jobs=1)
        assert sweep([1.0], jobs=4) == sweep([1.0])
        assert pool_sizes == [3]

    @pytest.mark.parametrize("cpus, sizes", [(2, [2]), (1, []), (None, [])])
    def test_pool_capped_at_cpu_count(self, pool_sizes, monkeypatch, cpus, sizes):
        # jobs far above the CPUs (say --points 5000 --jobs 5000) forks no more
        # processes than there are CPUs; one CPU, or an unknown count, forks none
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        xs = [0.5, 1.0, 2.0]
        assert sweep(xs, jobs=5000) == sweep(xs)
        assert pool_sizes == sizes


class TestValleyMemo:
    """The per-process memo of slice valleys changes no result, only the work."""

    @pytest.mark.parametrize("call", [
        lambda: minimize_absorption(MinimizeConfig(x_target=1.0)),
        lambda: extract_alpha(10.0),
        lambda: solve_thickness_for_ratio(6.2, 1.0, branch="first"),
        lambda: solve_thickness_for_ratio(6.2, 1.0, branch="second"),
        lambda: sweep([0.5, 2.0]),
    ], ids=["minimize", "extract_alpha", "thickness-first", "thickness-second", "sweep"])
    def test_cold_and_warm_results_identical(self, call):
        optimizer._slice_valley.cache_clear()
        cold = repr(call())
        # valleys found for another ratio at the same working points
        extract_alpha(3.0)
        solve_thickness_for_ratio(6.2, 30.0)
        hits = optimizer._slice_valley.cache_info().hits
        assert repr(call()) == cold
        assert repr(call()) == cold
        assert optimizer._slice_valley.cache_info().hits > hits

    def test_evicted_working_point_identical(self):
        cfg = MinimizeConfig(x_target=1.0, gamma_tilde=2e-3, omega_tilde=2e-3)
        memo = optimizer._slice_valley
        memo.cache_clear()
        cold = repr(minimize_absorption(cfg))
        slices = memo.cache_info().misses
        # fill the memo past its size with slices of another working point
        for k in range(memo.cache_info().maxsize):
            memo(2.0 + k * 1e-3, 1e-3, 1e-3)
        assert memo.cache_info().currsize == memo.cache_info().maxsize
        misses = memo.cache_info().misses
        assert repr(minimize_absorption(cfg)) == cold
        # every slice of cfg was evicted and searched again
        assert memo.cache_info().misses - misses == slices

    def test_repeated_working_point_makes_fewer_index_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return working_index(*args)

        monkeypatch.setattr(optimizer, "working_index", counted)

        def index_calls(x_target):
            before = len(calls)
            minimize_absorption(MinimizeConfig(x_target=x_target))
            return len(calls) - before

        optimizer._slice_valley.cache_clear()
        cold = index_calls(0.5)
        optimizer._slice_valley.cache_clear()
        index_calls(1.0)
        # x = 0.5 shares the feasible scan slices of x = 1; its refinement is new
        assert 0 < index_calls(0.5) < cold
        assert index_calls(1.0) == 0


@pytest.mark.parametrize("call", [
    lambda: ScaledSlabParams(1e-3, 1e-3, INF, 6.2),
    lambda: ScaledSlabParams(1e-3, 1e-3, 500.0, INF),
    lambda: ScaledSlabParams(NAN, 1e-3, 500.0, 6.2),
    lambda: ScaledSlabParams(1e-3, INF, 500.0, 6.2),
    lambda: MinimizeConfig(x_target=INF),
    lambda: MinimizeConfig(x_target=NAN),
    lambda: MinimizeConfig(x_target=1.0, gamma_tilde=INF),
    lambda: MinimizeConfig(x_target=1.0, eps_s_range=(2.0, INF)),
    lambda: solve_thickness_for_ratio(INF, 1.0),
    lambda: solve_thickness_for_ratio(6.2, NAN),
    lambda: solve_thickness_for_ratio(6.2, 1.0, omega_tilde=INF),
    lambda: sweep([NAN]),
    lambda: sweep([1.0, INF]),
])
def test_non_finite_inputs_rejected(call):
    with pytest.raises(ValueError, match="finite"):
        call()


def test_solver_reprs_match_golden():
    # scripts/make_goldens.py writes the golden and renders the same cases
    expected = (GOLDEN / make_goldens.SOLVER_GOLDEN).read_text()
    assert make_goldens.solver_reprs() == expected
