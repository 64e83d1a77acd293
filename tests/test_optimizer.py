import math
import os

import numpy as np
import pytest
from scipy.optimize import brentq

from bsbound import _scan_valleys, optimizer
from bsbound.optimizer import (
    EPS_S_MAX,
    EPS_S_MIN,
    MinimizeConfig,
    extract_alpha,
    ladder,
    minimize_absorption,
    solve_thickness_for_ratio,
    sweep,
)
from bsbound.slab import ScaledSlabParams, _airy_factors, _kernel, evaluate, working_index
from conftest import GOLDEN, make_goldens
from oracles import alpha0, alpha0_min

INF, NAN = math.inf, math.nan


def count_calls(monkeypatch, name):
    """Patch the optimizer's `name`; returns a function giving the calls since."""
    real = getattr(optimizer, name)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(optimizer, name, counted)
    return lambda: calls


@pytest.fixture
def cold_process():
    """The shipped table not yet loaded, as at start-up."""
    optimizer._scan_table.cache_clear()
    yield
    # the table may have been loaded from patched rows
    optimizer._scan_table.cache_clear()


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
        # the thickness divides the phase by omega_tilde
        for omega_tilde in (0.0, -1e-3):
            with pytest.raises(ValueError, match="omega_tilde must be positive"):
                solve_thickness_for_ratio(6.2, 1.0, omega_tilde=omega_tilde)
        # gamma_tilde = 0 stays the lossless hook
        assert solve_thickness_for_ratio(6.2, 1.0, gamma_tilde=0.0) > 0

    def test_working_point_checked_by_slab_params(self):
        # the rules and messages of ScaledSlabParams, not of Resonance
        with pytest.raises(ValueError, match="gamma_tilde must be non-negative"):
            solve_thickness_for_ratio(6.2, 1.0, gamma_tilde=-1e-3)


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
        res = minimize_absorption(MinimizeConfig(x_target=1.0, eps_s_max=5.0))
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
            MinimizeConfig(x_target=1.0, eps_s_max=0.5)
        with pytest.raises(ValueError, match="eps_s_max must exceed"):
            MinimizeConfig(x_target=1.0, eps_s_max=optimizer.EPS_S_MIN)

    def test_overflowing_eps_s_ratio_rejected(self):
        with pytest.raises(ValueError, match="too wide"):
            MinimizeConfig(x_target=1.0, eps_s_max=2e302)
        MinimizeConfig(x_target=1.0, eps_s_max=1e300)

    def test_underflowing_working_point_rejected(self):
        with pytest.raises(ValueError, match="underflows to zero"):
            MinimizeConfig(1.0, gamma_tilde=1e-200, omega_tilde=1e-200)

    def test_unresolved_absorption_rejected(self):
        # p ~ 1e-18 here, below the ~1e-16 rounding of 1 - |t|^2 - |r|^2
        with pytest.raises(ValueError, match=(
            r"^p_min = -\S+ is not positive at gamma\*omega = 1e-18: "
            r"p = 1 - \|t\|\^2 - \|r\|\^2 resolves absorption only to about "
            r"2\.220446049250313e-16"
        )):
            minimize_absorption(MinimizeConfig(1.0, 1e-9, 1e-9))

    def test_slab_evaluation_count(self, cold_process):
        # deterministic work counter: a change of it is a change of the solve;
        # checked from a cold process, whose table load check counts nothing
        res = minimize_absorption(MinimizeConfig(x_target=1.0))
        assert res.diagnostics.slab_evaluations == 4668

    def test_kernel_call_count(self, cold_process, monkeypatch):
        # scan valleys and period ends come from the table the x = 1 solve
        # loaded, and each root's p and x from brentq's evaluation
        minimize_absorption(MinimizeConfig(x_target=1.0))
        calls = count_calls(monkeypatch, "_kernel")
        res = minimize_absorption(MinimizeConfig(x_target=2.0))
        assert calls() == res.diagnostics.slab_evaluations == 4937

    @pytest.mark.parametrize("call, expected", [
        (lambda: minimize_absorption(MinimizeConfig(x_target=1.0)), 4746),
        (lambda: extract_alpha(1.0), 9479),
    ], ids=["minimize", "extract_alpha"])
    def test_cold_kernel_call_count(self, cold_process, monkeypatch, call, expected):
        # as in a fresh process: the scan slices come from the shipped table,
        # which searches one slice of each default level again as it loads
        calls = count_calls(monkeypatch, "_kernel")
        call()
        assert calls() == expected

    @pytest.mark.parametrize("call", [
        *(lambda x=x: [minimize_absorption(MinimizeConfig(x))] for x in (1.0, 2.0, 1e3, 1e6)),
        lambda: [minimize_absorption(MinimizeConfig(0.05, 2e-3, 3e-2))],
        lambda: [minimize_absorption(MinimizeConfig(30.0, 1e-2, 0.1))],
        lambda: extract_alpha(1.0).results,
    ], ids=["x=1", "x=2", "x=1e3", "x=1e6", "off-level", "bound-level", "extract_alpha"])
    def test_slab_evaluations_are_the_kernel_calls(self, monkeypatch, call):
        optimizer._scan_table()
        calls = count_calls(monkeypatch, "_kernel")
        results = call()
        assert sum(r.diagnostics.slab_evaluations for r in results) == calls()

    def test_table_load_check_is_charged_to_no_call(self, cold_process, monkeypatch):
        # the two load-check searches are the only calls the count leaves out
        calls = count_calls(monkeypatch, "_kernel")
        res = minimize_absorption(MinimizeConfig(x_target=1.0))
        assert (res.diagnostics.slab_evaluations, calls()) == (4668, 4746)

    def test_fixed_constraint_tolerance(self):
        cfg = MinimizeConfig(x_target=1.0)
        assert cfg.constraint_rtol == 1e-10
        assert list(MinimizeConfig._fields) == [
            "x_target", "gamma_tilde", "omega_tilde", "eps_s_max",
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

    def test_unresolved_absorption_rejected(self):
        with pytest.raises(ValueError, match=r"^p_min = .* is not positive at gamma\*omega = 1e-18: "):
            extract_alpha(1.0, ladder(1e-9, 1e-9, 2))

    def test_propagates_infeasibility(self):
        ex = extract_alpha(1.0, eps_s_max=5.0)
        assert not ex.feasible
        assert math.isnan(ex.alpha)


class TestAlpha0Oracle:
    # alpha lies O(gamma*omega) ~ 1e-8 from its closed-form leading order,
    # but the cancelling p = 1 - |t|^2 - |r|^2 puts extract_alpha below it
    # by a gap that grows with x: 3.5e-8 at x = 1, 8.7e-7 at 1e3
    @pytest.mark.parametrize("x", [
        0.01, 0.05, 0.2, 1.0, 10.0, 100.0, 1e3,
        pytest.param(1e4, marks=pytest.mark.xfail(
            strict=True, reason="[exact-p]: p cancels; alpha 3.6e-6 below alpha0")),
        pytest.param(1e5, marks=pytest.mark.xfail(
            strict=True, reason="[exact-p]: p cancels; alpha 4.3e-5 below alpha0")),
    ])
    def test_extract_alpha_matches_closed_form(self, x):
        _, alpha0 = alpha0_min(x, EPS_S_MIN, EPS_S_MAX)
        assert extract_alpha(x).alpha == pytest.approx(alpha0, rel=2e-6)


class TestBranchDominance:
    """The first branch wins every minimization, the fact a one-branch solver rests on."""

    def test_second_branch_costs_more_at_leading_order(self):
        # alpha0(pi - phi) - alpha0(phi) = (eps-1) x/(1+x)/sqrt(eps) * g/2 with
        # g = (pi - 2 phi)(1 + 1/eps) - sin(2 phi)(1 - 1/eps); sin(2 phi) <= pi - 2 phi
        # gives g >= 2 (pi - 2 phi)/eps > 0 for phi in (0, pi/2)
        for eps in 1.0 + np.geomspace(EPS_S_MIN - 1.0, EPS_S_MAX - 1.0, 25):
            for phi in np.linspace(1e-3, math.pi / 2 - 1e-2, 40):
                x = 4.0 * eps / (math.sin(phi) ** 2 * (eps - 1.0) ** 2)
                g = (math.pi - 2 * phi) * (1 + 1 / eps) - math.sin(2 * phi) * (1 - 1 / eps)
                assert g >= 2 * (math.pi - 2 * phi) / eps * (1 - 1e-12) > 0
                gap = alpha0(eps, x, "second") - alpha0(eps, x)
                scale = (eps - 1.0) * x / (1.0 + x) / math.sqrt(eps)
                assert gap > 0
                assert gap == pytest.approx(scale * g / 2, rel=1e-6)

    @pytest.mark.parametrize("gamma_tilde, omega_tilde", [
        (1e-3, 1e-3), (7.4e-4, 1.63e-2), (0.1, 0.1),
    ])
    def test_minimize_picks_the_first_branch_beyond_the_tie_rule(
        self, gamma_tilde, omega_tilde
    ):
        for x in (4.1e-3, 0.05, 1.0, 30.0, 1e3, 1e5):
            res = minimize_absorption(MinimizeConfig(x, gamma_tilde, omega_tilde))
            assert res.branch == "first"
            # a NaN margin, no second root, fails too
            margin = (res.diagnostics.rejected_branch_p - res.p_min) / res.p_min
            assert margin > optimizer._OBJECTIVE_RTOL


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

    def test_every_row_checked_before_any_is_solved(self, monkeypatch):
        # a bad last ratio fails the sweep before the first row costs a solve
        monkeypatch.setattr(optimizer, "minimize_absorption", pytest.fail)
        with pytest.raises(ValueError, match="x_target must be positive"):
            sweep([1.0, 2.0, 0.0])

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

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected_before_any_row(self, monkeypatch, jobs):
        solved = []
        monkeypatch.setattr(optimizer, "minimize_absorption", solved.append)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            sweep([0.5, 1.0], jobs=jobs)
        assert solved == []


SCAN_GRID = optimizer._scan_grid(optimizer.EPS_S_MAX)


def search_slice(eps_s, gamma_tilde, omega_tilde):
    """The valley search's row of one slice, without the shipped table."""
    return optimizer._new_valley(eps_s, gamma_tilde, omega_tilde).row


class TestValleyStore:
    """The shipped table keeps the valleys of its slices; it changes no result."""

    @pytest.mark.parametrize("call", [
        lambda: minimize_absorption(MinimizeConfig(x_target=1.0)),
        lambda: extract_alpha(10.0),
        lambda: solve_thickness_for_ratio(6.2, 1.0, branch="first"),
        lambda: solve_thickness_for_ratio(6.2, 1.0, branch="second"),
        lambda: sweep([0.5, 2.0]),
    ], ids=["minimize", "extract_alpha", "thickness-first", "thickness-second", "sweep"])
    def test_cold_and_warm_results_identical(self, cold_process, call):
        cold = repr(call())
        # valleys stored by solves of other ratios at the same working points
        extract_alpha(3.0)
        solve_thickness_for_ratio(6.2, 30.0)
        assert repr(call()) == cold
        assert repr(call()) == cold

    def test_second_lookup_of_a_table_slice_makes_no_index_call(
        self, cold_process, monkeypatch
    ):
        optimizer._scan_table()
        index_calls = count_calls(monkeypatch, "working_index")
        kernel_calls = count_calls(monkeypatch, "_kernel")
        key = (SCAN_GRID[100], *optimizer.DEFAULT_LEVELS[1])
        first = optimizer._slice_valley(*key)
        assert (index_calls(), kernel_calls()) == (1, 0)
        assert optimizer._slice_valley(*key) is first
        assert optimizer._scan_table()[key] is first
        assert (index_calls(), kernel_calls()) == (1, 0)

    @pytest.mark.parametrize("eps_s, gamma_tilde, omega_tilde", [
        (6.2, *optimizer.WORKING_POINT),  # off the scan grid
        (math.sqrt(SCAN_GRID[200] * SCAN_GRID[201]), *optimizer.WORKING_POINT),
        (SCAN_GRID[200], 2e-3, 2e-3),  # a level of no default ladder
    ], ids=["off-grid", "between-grid-points", "other-level"])
    def test_other_slices_searched_on_every_call(
        self, eps_s, gamma_tilde, omega_tilde, monkeypatch
    ):
        optimizer._scan_table()
        index_calls = count_calls(monkeypatch, "working_index")
        kernel_calls = count_calls(monkeypatch, "_kernel")
        first = optimizer._slice_valley(eps_s, gamma_tilde, omega_tilde)
        assert (index_calls(), kernel_calls()) == (1, first.evaluations)
        second = optimizer._slice_valley(eps_s, gamma_tilde, omega_tilde)
        assert (index_calls(), kernel_calls()) == (2, 2 * first.evaluations)
        assert second is not first and repr(second) == repr(first)
        assert first.row == search_slice(eps_s, gamma_tilde, omega_tilde)

    def test_table_holds_the_scan_slices_only(self, cold_process):
        minimize_absorption(MinimizeConfig(x_target=1.0, gamma_tilde=2e-3, omega_tilde=2e-3))
        extract_alpha(2.0, ladder(3e-3, 3e-3, 2))
        solve_thickness_for_ratio(6.2, 1.0)
        extract_alpha(0.5)
        table = optimizer._scan_table()
        assert len(table) == 2 * len(SCAN_GRID)
        assert set(table) == {
            (eps_s, *level) for level in optimizer.DEFAULT_LEVELS for eps_s in SCAN_GRID
        }

    def test_warm_solve_searches_its_refinement_slices_only(self, monkeypatch):
        minimize_absorption(MinimizeConfig(x_target=1.0))
        index_calls = count_calls(monkeypatch, "working_index")
        res = minimize_absorption(MinimizeConfig(x_target=1.0))
        # both branches are refined, each golden search on iterations + 2 new
        # slices; the scan slices come from the table
        assert math.isfinite(res.diagnostics.rejected_branch_p)
        assert index_calls() == res.diagnostics.refine_iterations + 2 * len(optimizer._BRANCHES)


# scan-grid and off-grid slices, at the default and another working point
REUSE_SLICES = [
    (eps_s, gamma_tilde, omega_tilde)
    for eps_s in optimizer._scan_grid(optimizer.EPS_S_MAX)[150::21] + [1.5, 6.2, 40.0]
    for gamma_tilde, omega_tilde in (optimizer.WORKING_POINT, (2e-4, 3e-2))
]


class TestInnerSolveReuse:
    """A memoized or reused evaluation is the float a fresh kernel call gives."""

    @pytest.mark.parametrize("eps_s, gamma_tilde, omega_tilde", REUSE_SLICES)
    def test_memoized_ends_match_fresh_kernel(self, eps_s, gamma_tilde, omega_tilde):
        valley = optimizer._slice_valley(eps_s, gamma_tilde, omega_tilde)
        for phi, ln_x in ((optimizer._PHI_LO, valley.ln_x_lo),
                          (optimizer._PHI_HI, valley.ln_x_hi)):
            fresh = _kernel(valley.factors, phi / valley.eta0)[3]
            assert ln_x == math.log(fresh)

    @pytest.mark.parametrize("eps_s, gamma_tilde, omega_tilde", REUSE_SLICES)
    def test_root_matches_fresh_kernel_at_its_phase(
        self, eps_s, gamma_tilde, omega_tilde, monkeypatch
    ):
        phases = []
        real = optimizer.brentq

        def recorded(*args):
            phases.append(real(*args))
            return phases[-1]

        monkeypatch.setattr(optimizer, "brentq", recorded)
        valley = optimizer._slice_valley(eps_s, gamma_tilde, omega_tilde)
        branches = set()
        for x_target in (1e-1, 1.0, 1e3, 1e6, math.exp(valley.ln_x_valley)):
            phases.clear()
            roots, _ = optimizer._solve_slice(
                eps_s, gamma_tilde, omega_tilde, x_target, optimizer._BRANCHES
            )
            assert len(roots) == len(phases)
            for root, phi in zip(roots, phases):
                _, _, p, x = _kernel(valley.factors, phi / valley.eta0)
                assert root.p == p
                assert root.residual == abs(x - x_target) / x_target
                assert root.d == phi / (valley.eta0 * omega_tilde)
                branches.add(root.branch)
        assert branches == set(optimizer._BRANCHES)
        # at the valley's own ratio both roots sit on the bracket end, where
        # brentq calls no h, so their p and x come from a fresh kernel call
        assert phases == [valley.phi_valley, valley.phi_valley]


@pytest.mark.parametrize("index, evaluations", [(0, 39), (100, 39), (200, 40), (230, 40), (255, 40)])
def test_valley_search_length_depends_on_the_slice(index, evaluations):
    # the golden search stops by width, yet its count is no constant: every
    # slice `minimize --x 1 --omega 0.3` visits takes 40 evaluations
    assert optimizer._slice_valley(SCAN_GRID[index], 1e-3, 0.3).evaluations == evaluations


class TestScanValleyTable:
    """The shipped valleys of the default ladder's scan slices."""

    def test_every_row_is_the_phase_search(self):
        assert len(_scan_valleys.VALLEYS) == len(optimizer.DEFAULT_LEVELS)
        for level, rows in zip(optimizer.DEFAULT_LEVELS, _scan_valleys.VALLEYS):
            assert len(rows) == len(SCAN_GRID)
            for eps_s, row in zip(SCAN_GRID, rows):
                searched = search_slice(eps_s, *level)
                assert len(row) == len(searched)
                for shipped, fresh in zip(row, searched):
                    assert type(shipped) is type(fresh)
                    assert shipped == fresh

    def test_valley_from_the_table_matches_a_search(self, cold_process, monkeypatch):
        level = optimizer.DEFAULT_LEVELS[1]
        calls = count_calls(monkeypatch, "_kernel")
        valleys = [optimizer._slice_valley(eps_s, *level) for eps_s in SCAN_GRID[::51]]
        # only the last slice of each level was searched, to check the table;
        # a valley built from its row, that slice's included, costs nothing
        load_check = calls()
        assert load_check == sum(
            optimizer._new_valley(SCAN_GRID[-1], *lv).evaluations
            for lv in optimizer.DEFAULT_LEVELS
        )
        for eps_s, valley in zip(SCAN_GRID[::51], valleys):
            assert valley.evaluations == 0
            assert valley.row == search_slice(eps_s, *level)
        assert len(optimizer._scan_table()) == 2 * len(SCAN_GRID)

    def test_only_a_default_level_loads_the_table(self, cold_process):
        optimizer._slice_valley(SCAN_GRID[200], 2e-3, 2e-3)
        assert optimizer._scan_table.cache_info().currsize == 0
        # an off-grid slice at a default level loads it, and is not stored
        optimizer._slice_valley(6.2, *optimizer.WORKING_POINT)
        assert optimizer._scan_table.cache_info().currsize == 1
        assert len(optimizer._scan_table()) == 2 * len(SCAN_GRID)

    @pytest.mark.parametrize("level", [0, 1])
    def test_altered_row_drops_the_table(self, cold_process, monkeypatch, level):
        expected = extract_alpha(1.0)
        optimizer._scan_table.cache_clear()
        # one ulp off in one field of the level's last row, checked at load
        rows = list(_scan_valleys.VALLEYS[level])
        phi, *rest = rows[-1]
        rows[-1] = (math.nextafter(phi, 0.0), *rest)
        valleys = list(_scan_valleys.VALLEYS)
        valleys[level] = tuple(rows)
        monkeypatch.setattr(_scan_valleys, "VALLEYS", tuple(valleys))
        eps_s, gamma_tilde, omega_tilde = SCAN_GRID[-1], *optimizer.DEFAULT_LEVELS[level]
        valley = optimizer._slice_valley(eps_s, gamma_tilde, omega_tilde)
        assert valley.row == search_slice(eps_s, gamma_tilde, omega_tilde)
        assert optimizer._scan_table() == {}
        # every scan slice is now searched: the floats stay, the count rises
        # by the evaluations of the valleys the table would have given
        searched = []
        real = optimizer._slice_valley

        def recorded(*key):
            valley = real(*key)
            if key[0] in SCAN_GRID and key[1:] in optimizer.DEFAULT_LEVELS:
                searched.append(valley.evaluations)
            return valley

        monkeypatch.setattr(optimizer, "_slice_valley", recorded)
        got = extract_alpha(1.0)
        assert list(make_goldens._field_lines("", got)) == list(
            make_goldens._field_lines("", expected)
        )
        assert optimizer._scan_table() == {}
        counts = [sum(r.diagnostics.slab_evaluations for r in ex.results)
                  for ex in (expected, got)]
        assert counts[1] - counts[0] == sum(searched) > 0


@pytest.mark.parametrize("call", [
    lambda: ScaledSlabParams(1e-3, 1e-3, INF, 6.2),
    lambda: ScaledSlabParams(1e-3, 1e-3, 500.0, INF),
    lambda: ScaledSlabParams(NAN, 1e-3, 500.0, 6.2),
    lambda: ScaledSlabParams(1e-3, INF, 500.0, 6.2),
    lambda: MinimizeConfig(x_target=INF),
    lambda: MinimizeConfig(x_target=NAN),
    lambda: MinimizeConfig(x_target=1.0, gamma_tilde=INF),
    lambda: MinimizeConfig(x_target=1.0, eps_s_max=INF),
    lambda: solve_thickness_for_ratio(INF, 1.0),
    lambda: solve_thickness_for_ratio(6.2, NAN),
    lambda: solve_thickness_for_ratio(6.2, 1.0, omega_tilde=INF),
    lambda: sweep([NAN]),
    lambda: sweep([1.0, INF]),
    lambda: solve_thickness_for_ratio(6.2, INF),
])
def test_non_finite_inputs_rejected(call):
    with pytest.raises(ValueError, match="finite"):
        call()


def test_solver_reprs_match_golden(cold_process):
    # scripts/make_goldens.py writes the golden and renders the same cases,
    # from a table not yet loaded, as a fresh process does
    expected = (GOLDEN / make_goldens.SOLVER_GOLDEN).read_text()
    assert make_goldens.solver_reprs() == expected
