"""Constrained minimization of slab absorption at a fixed splitting ratio.

For a target ratio x = |T|^2/|R|^2 and small (gamma_tilde, omega_tilde),
finds the static permittivity and scaled thickness that minimize the
absorption probability p, extracts the coefficient alpha = p/(gamma*omega),
and sweeps x to produce the alpha(x) and eps_s(x) curves.

The search works in the optical phase phi = eta0 * omega_tilde * d, where
eta0 = sqrt(eps_s).  Within one interference period phi in (0, pi) the
ratio x(phi) falls from large values to a single valley and rises again,
so a target ratio has at most two roots ("first" below the valley,
"second" above).  The outer search scans eps_s geometrically and refines
the best bracket by golden section, separately per branch.

One slice solve serves minimize_absorption and solve_thickness_for_ratio;
in both, a root that misses MinimizeConfig.constraint_rtol raises
RuntimeError.

The valley of a slice and ln x at both ends of the period depend on
(eps_s, gamma_tilde, omega_tilde) but not on the target ratio; one
search, _new_valley, finds them.  Its rows for the 2 x 256 scan slices
of DEFAULT_LEVELS ship in _scan_valleys and load on the first
lookup at a default level; the last slice of each level is then searched
again and compared field by field, and any difference leaves the table
empty.  A table slice keeps the valley built from its row, so every ratio
solved at the default working point reuses it; every other slice is
searched on each call.  The store is per process (each sweep pool worker
loads its own) and holds at most those 512 valleys.  Within a solve each
phase is evaluated once: a root's p and x come from the evaluation brentq
made at that phase.  Results depend on none of these: a stored valley or
a table row gives the floats a fresh search would.
MinimizeDiagnostics.slab_evaluations counts the _kernel calls a call
makes, so a shipped or reused evaluation counts nothing.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from collections import namedtuple
from typing import Callable, NamedTuple, Optional, Sequence

from .dielectric import _Checked
from .slab import ScaledSlabParams, _airy_factors, _kernel, working_index
# unused here, but bench/tracer.py patches these names in this module
from .slab import reflection, transmission  # noqa: F401

__all__ = [
    "MinimizeConfig",
    "MinimizeDiagnostics",
    "MinimizeResult",
    "AlphaExtraction",
    "SweepRow",
    "solve_thickness_for_ratio",
    "minimize_absorption",
    "extract_alpha",
    "sweep",
    "ladder",
    "DEFAULT_LEVELS",
    "EPS_S_MIN",
    "EPS_S_MAX",
    "WORKING_POINT",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_BRANCHES = ("first", "second")

# phase endpoints of the first interference period; the ratio diverges at
# both ends, so any feasible target is bracketed against the valley
_PHI_LO = 1e-12
_PHI_HI = math.pi * (1.0 - 1e-12)

# absolute and relative tolerances and iteration cap of the phase root solve
_XTOL = 1e-15
_RTOL = 8.9e-16
_MAXITER = 100

# relative bracket width at which both golden-section searches stop
_GOLDEN_RTOL = 1e-7
# eps_s slices of the outer scan
_SCAN_POINTS = 256
# a later branch must undercut the earlier one's p by this fraction to win
_OBJECTIVE_RTOL = 1e-8
# inter-level alpha drift above which the separable scaling is not trusted
_DRIFT_TOL = 0.01
# 0.1**k is zero from k = 324 on, so every longer ladder reaches gamma_tilde = 0
_MAX_LEVELS = 324


def ladder(
    gamma_tilde: float, omega_tilde: float, count: int
) -> tuple[tuple[float, float], ...]:
    """Refinement ladder (gamma_tilde * 0.1**k, omega_tilde * 0.1**k), k < count."""
    if count > _MAX_LEVELS:
        # checked before any level is built, so a huge count costs no memory
        raise ValueError(
            f"gamma_tilde * omega_tilde underflows to zero on a ladder of {count} levels"
        )
    return tuple((gamma_tilde * 0.1**k, omega_tilde * 0.1**k) for k in range(count))


# default (gamma_tilde, omega_tilde) of every minimization
WORKING_POINT = (1e-3, 1e-3)
# default refinement ladder for alpha extraction
DEFAULT_LEVELS = ladder(*WORKING_POINT, 2)
# the eps_s search starts just above vacuum: a numerical guard, not an input
EPS_S_MIN = 1.0 + 1e-6
# default upper end of the eps_s search
EPS_S_MAX = 1e3


class MinimizeConfig(
    _Checked,
    namedtuple(
        "MinimizeConfig", "x_target gamma_tilde omega_tilde eps_s_max",
        defaults=(*WORKING_POINT, EPS_S_MAX),
    ),
):
    """Target ratio, working point and eps_s search ceiling of one minimization."""

    __slots__ = ()
    # relative ratio residual the inner solve must reach at every root
    constraint_rtol = 1e-10

    def _check(self) -> None:
        x_target, gamma_tilde, omega_tilde, eps_s_max = self
        if not x_target > 0:
            raise ValueError(f"x_target must be positive, got {x_target}")
        if not 0 < gamma_tilde:
            raise ValueError(f"gamma_tilde must be positive, got {gamma_tilde}")
        if not 0 < omega_tilde:
            raise ValueError(f"omega_tilde must be positive, got {omega_tilde}")
        if not gamma_tilde * omega_tilde > 0:
            # alpha divides by this product
            raise ValueError(
                f"gamma_tilde * omega_tilde underflows to zero at "
                f"gamma_tilde={gamma_tilde}, omega_tilde={omega_tilde}"
            )
        if not eps_s_max > EPS_S_MIN:
            raise ValueError(f"eps_s_max must exceed {EPS_S_MIN!r}, got {eps_s_max}")
        if not math.isfinite((eps_s_max - 1.0) / (EPS_S_MIN - 1.0)):
            # the eps_s scan is geometric in eps_s - 1 with this ratio
            raise ValueError(
                f"eps_s_max {eps_s_max} is too wide: "
                f"(eps_s_max - 1)/(EPS_S_MIN - 1) overflows"
            )


class MinimizeDiagnostics(NamedTuple):
    """Work and margins of one minimization.

    slab_evaluations counts the slab._kernel calls it makes: a shipped
    valley and the table's load check count none, so the count does not
    depend on what the process solved before.
    """

    constraint_residual: float
    scan_feasible: int
    refine_iterations: int
    slab_evaluations: int
    rejected_branch_p: float


class MinimizeResult(NamedTuple):
    """Optimum of one constrained minimization.

    alpha = p_min / (gamma_tilde * omega_tilde) is the working-point
    estimate of the small-parameter coefficient.  Infeasible results carry
    NaN numeric fields and branch "none".
    """

    alpha: float
    eps_s_star: float
    d_star: float
    p_min: float
    phi_star: float
    branch: str
    feasible: bool
    diagnostics: MinimizeDiagnostics


class AlphaExtraction(NamedTuple):
    """alpha from a ladder of shrinking (gamma_tilde, omega_tilde) levels."""

    alpha: float
    drift: float
    scaling_ok: bool
    feasible: bool
    results: tuple[MinimizeResult, ...]


class SweepRow(NamedTuple):
    x: float
    alpha: float
    eps_s_star: float
    d_star: float
    p_min: float
    feasible: bool


def _golden_min(
    f: Callable[[float], float], a: float, b: float
) -> tuple[float, float, int]:
    """Golden-section minimum of f on [a, b]; returns (x, f(x), iterations).

    The bracket must satisfy 0 < a < b: the search stops once b - a is at
    most _GOLDEN_RTOL * b.  f is called iterations + 2 times.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    iters = 0
    while (b - a) > _GOLDEN_RTOL * b:
        iters += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc, iters) if fc < fd else (d, fd, iters)


def _nan_value(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


def brentq(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float
) -> float:
    """Root of f in [a, b] by Brent's method, as scipy.optimize.brentq.

    The same steps and floating-point operations as scipy's brentq.c at
    xtol=_XTOL, rtol=_RTOL, so both return the same float for the same f.
    fa = f(a) and fb = f(b) must differ in sign; f is not called at a or
    b.  A NaN value of f raises ValueError; no convergence within
    _MAXITER iterations raises RuntimeError.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fa, fb
    # v != v holds only for NaN; below, the sign of a nonzero, non-NaN v is
    # v < 0, the test brentq.c makes with signbit
    if fpre != fpre:
        raise _nan_value(xpre)
    if fcur != fcur:
        raise _nan_value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        afblk = abs(fblk)
        afcur = abs(fcur)
        if afblk < afcur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            afcur = afblk

        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        asbis = abs(sbis)
        if fcur == 0 or asbis < delta:
            return xcur

        aspre = abs(spre)
        if aspre > delta and afcur < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            # min(aspre, limit) written out, picking as min() does
            limit = 3 * asbis - delta
            if 2 * abs(stry) < (limit if limit < aspre else aspre):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise _nan_value(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


class _Root(NamedTuple):
    """One root of an eps_s slice: thickness d meets x_target.

    phi is the optical phase at the working frequency, index.eta *
    omega_tilde * d; residual is |x - x_target| / x_target.
    """

    p: float
    eps_s: float
    branch: str
    d: float
    phi: float
    residual: float


# the optimum of a minimization in which no slice reaches the target ratio
_NO_ROOT = _Root(math.nan, math.nan, "none", math.nan, math.nan, math.nan)


class _Valley(NamedTuple):
    """The ratio-independent part of an eps_s slice solve, built by _new_valley.

    eta0 = sqrt(eps_s), eta is the working index's real part, factors are
    its _airy_factors, and the valley of ln x(phi) in the first period
    sits at phi_valley with value ln_x_valley.  ln_x_lo and ln_x_hi are
    ln x at the period's ends _PHI_LO and _PHI_HI, where the root brackets
    start.  evaluations is the _kernel calls made to build it: none from a
    shipped row, the golden search's and the two ends' from a search.
    """

    eta0: float
    eta: float
    factors: tuple[complex, ...]
    phi_valley: float
    ln_x_valley: float
    ln_x_lo: float
    ln_x_hi: float
    evaluations: int

    @property
    def row(self) -> tuple[float, float, float, float]:
        """The slice's row of the shipped table."""
        return self.phi_valley, self.ln_x_valley, self.ln_x_lo, self.ln_x_hi


def _new_valley(
    eps_s: float, gamma_tilde: float, omega_tilde: float, row: Optional[tuple] = None
) -> _Valley:
    """_Valley of one slice, from its shipped row or, without one, a search.

    This is the one valley search: golden section of ln x(phi) over the
    first period, then ln x at both ends.  The shipped table holds its
    _Valley.row.
    """
    eta0 = math.sqrt(eps_s)
    # looked up at call time, so a patched working_index sees every call
    index = working_index(eps_s, gamma_tilde, omega_tilde)
    factors = _airy_factors(index)
    if row is not None:
        return _Valley(eta0, index.eta, factors, *row, 0)

    def ln_ratio(phi: float) -> float:
        return math.log(_kernel(factors, phi / eta0)[3])

    phi_valley, ln_x_valley, iters = _golden_min(ln_ratio, _PHI_LO, _PHI_HI)
    ends = ln_ratio(_PHI_LO), ln_ratio(_PHI_HI)
    return _Valley(eta0, index.eta, factors, phi_valley, ln_x_valley, *ends, iters + 4)


@functools.cache
def _scan_table() -> dict[tuple[float, float, float], tuple]:
    """The shipped scan valleys, keyed by slice as this process computes it.

    Maps every scan slice of DEFAULT_LEVELS to its _Valley.row, which
    _slice_valley replaces by the slice's _Valley on first use.  The last
    slice of each level is searched here (for no call's slab_evaluations)
    and compared field by field; any difference (another libm, a changed
    constant) leaves the table empty, so every valley is a search's.
    """
    from ._scan_valleys import VALLEYS

    grid = _scan_grid(EPS_S_MAX)
    table = {}
    for level, rows in zip(DEFAULT_LEVELS, VALLEYS):
        if _new_valley(grid[-1], *level).row != rows[-1]:
            return {}
        table.update(((eps_s, *level), row) for eps_s, row in zip(grid, rows))
    return table


def _slice_valley(eps_s: float, gamma_tilde: float, omega_tilde: float) -> _Valley:
    """Index, Airy factors, valley and end ratios of one slice.

    A scan slice of the default ladder is built once from its _scan_table
    row and kept there; any other slice is searched on every call.
    """
    key = (eps_s, gamma_tilde, omega_tilde)
    table = _scan_table() if key[1:] in DEFAULT_LEVELS else {}
    row = table.get(key)
    if row is None:
        return _new_valley(*key)
    if not isinstance(row, _Valley):
        row = table[key] = _new_valley(*key, row)
    return row


def _solve_slice(
    eps_s: float,
    gamma_tilde: float,
    omega_tilde: float,
    x_target: float,
    branches: Sequence[str],
) -> tuple[list[_Root], int]:
    """Roots of x(phi) = x_target in the first period of one eps_s slice.

    Returns the roots of `branches`, in that order, and the number of
    _kernel calls made: the valley search's if the slice was searched,
    brentq's, and one for each root at a bracket end.  The list is
    empty when the slice cannot reach the target ratio (the valley of
    x(phi) stays above x_target), and leaves out a branch whose reachable
    range stays below it.  A root whose ratio misses x_target by more
    than MinimizeConfig.constraint_rtol raises RuntimeError.
    """
    eta0, eta, factors, phi_valley, ln_x_valley, ln_x_lo, ln_x_hi, evals = (
        _slice_valley(eps_s, gamma_tilde, omega_tilde)
    )
    ln_xt = math.log(x_target)
    if ln_x_valley > ln_xt:
        return [], evals

    # phase -> kernel result of every h call, so a root's p and x come from
    # the evaluation brentq made there
    kept: dict[float, tuple] = {}

    def h(phi: float) -> float:
        nonlocal evals
        evals += 1
        k = kept[phi] = _kernel(factors, phi / eta0)
        return math.log(k[3]) - ln_xt

    # each phase is evaluated once: the valley and both period ends come
    # with the slice's _Valley, and the root from brentq's own evaluation
    h_valley = ln_x_valley - ln_xt
    roots = []
    for branch in branches:
        if branch == "first":
            a, ha, b, hb = _PHI_LO, ln_x_lo - ln_xt, phi_valley, h_valley
        else:
            a, ha, b, hb = phi_valley, h_valley, _PHI_HI, ln_x_hi - ln_xt
        if ha * hb > 0.0:
            continue  # target above this branch's reachable range
        phi = brentq(h, a, b, ha, hb)
        k = kept.get(phi)
        if k is None:
            # a bracket end, where brentq did not call h
            evals += 1
            k = _kernel(factors, phi / eta0)
        _, _, p, x = k
        residual = abs(x - x_target) / x_target
        if residual > MinimizeConfig.constraint_rtol:
            raise RuntimeError(
                f"inner solve left residual {residual:.3e} > "
                f"{MinimizeConfig.constraint_rtol:.1e} at eps_s={eps_s}, "
                f"x={x_target}, branch={branch}"
            )
        d = phi / (eta0 * omega_tilde)
        roots.append(_Root(p, eps_s, branch, d, eta * omega_tilde * d, residual))
    return roots, evals


def solve_thickness_for_ratio(
    eps_s: float,
    x_target: float,
    gamma_tilde: float = WORKING_POINT[0],
    omega_tilde: float = WORKING_POINT[1],
    branch: str = "first",
) -> Optional[float]:
    """Scaled thickness d with evaluate(...).x == x_target, or None.

    The phase is restricted to the first interference period; `branch`
    selects the root below ("first") or above ("second") the ratio valley.
    Infeasibility (the slab cannot reflect strongly enough at this eps_s)
    is a domain answer, reported as None.  A root whose ratio misses
    x_target by more than MinimizeConfig.constraint_rtol raises
    RuntimeError, as in minimize_absorption.  eps_s, gamma_tilde and
    omega_tilde are checked by ScaledSlabParams (at d = 0).
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")
    ScaledSlabParams(omega_tilde, gamma_tilde, 0.0, eps_s)
    if not 0 < x_target < math.inf:
        raise ValueError(f"x_target must be positive and finite, got {x_target}")
    roots, _ = _solve_slice(eps_s, gamma_tilde, omega_tilde, x_target, (branch,))
    return roots[0].d if roots else None


def _scan_grid(eps_s_max: float) -> list[float]:
    # geometric in (eps_s - 1) from EPS_S_MIN: resolves both the near-unity
    # region probed by large x and the large-eps_s region probed by small x
    ratio = (eps_s_max - 1.0) / (EPS_S_MIN - 1.0)
    return [
        1.0 + (EPS_S_MIN - 1.0) * ratio ** (k / (_SCAN_POINTS - 1))
        for k in range(_SCAN_POINTS)
    ]


def minimize_absorption(config: MinimizeConfig) -> MinimizeResult:
    """Minimum absorption over eps_s and thickness at a fixed ratio.

    Scans eps_s from EPS_S_MIN to config.eps_s_max (skipping slices that
    cannot reach x_target even without loss), golden-section refines the
    best bracket of each branch, and reports the better branch.  Ties
    within the objective tolerance go to the thinner slab.  A root that
    misses the ratio by more than config.constraint_rtol raises
    RuntimeError.  A feasible optimum with p_min <= 0, a working point
    below the resolution of p, raises ValueError.
    """
    grid = _scan_grid(config.eps_s_max)
    x_target = config.x_target
    evals = 0
    scan_feasible = 0

    def solve(eps: float, branches: Sequence[str]) -> list[_Root]:
        nonlocal evals
        roots, n = _solve_slice(
            eps, config.gamma_tilde, config.omega_tilde, x_target, branches
        )
        evals += n
        return roots

    # lossless feasibility with 5% margin: loss shifts the reachable ratio
    # by O(gamma*omega), far below the margin
    def surely_infeasible(eps: float) -> bool:
        return 4.0 * eps / (x_target * (eps - 1.0) ** 2) > 1.05

    # branch -> (p, slice index) of the branch's lowest p in the scan
    best: dict[str, tuple[float, int]] = {}
    for i, eps in enumerate(grid):
        if surely_infeasible(eps):
            continue
        roots = solve(eps, _BRANCHES)
        scan_feasible += bool(roots)
        for root in roots:
            if root.branch not in best or root.p < best[root.branch][0]:
                best[root.branch] = (root.p, i)

    refine_iters = 0
    # each branch's refined optimum
    optima: list[_Root] = []
    for branch in _BRANCHES:
        if branch not in best:
            continue
        i = best[branch][1]
        # eps_s -> root; the golden search returns one of its points
        refined: dict[float, _Root] = {}

        def p_of_eps(eps: float) -> float:
            for root in solve(eps, (branch,)):
                refined[eps] = root
                return root.p
            return math.inf

        eps_star, p_star, iters = _golden_min(
            p_of_eps, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        )
        refine_iters += iters
        if math.isfinite(p_star):
            optima.append(refined[eps_star])

    # smaller p wins; ties within the objective tolerance go to the thinner
    # slab, which is the first branch
    if len(optima) == 2 and optima[1].p < optima[0].p * (1.0 - _OBJECTIVE_RTOL):
        optima.reverse()
    chosen = optima[0] if optima else _NO_ROOT
    if chosen.p <= 0.0:
        raise ValueError(
            f"p_min = {chosen.p!r} is not positive at gamma*omega = "
            f"{config.gamma_tilde * config.omega_tilde!r}: "
            f"p = 1 - |t|^2 - |r|^2 resolves absorption only to about "
            f"{sys.float_info.epsilon!r}, so raise gamma_tilde or omega_tilde"
        )
    return MinimizeResult(
        alpha=chosen.p / (config.gamma_tilde * config.omega_tilde),
        eps_s_star=chosen.eps_s,
        d_star=chosen.d,
        p_min=chosen.p,
        phi_star=chosen.phi,
        branch=chosen.branch,
        feasible=bool(optima),
        diagnostics=MinimizeDiagnostics(
            constraint_residual=chosen.residual,
            scan_feasible=scan_feasible,
            refine_iterations=refine_iters,
            slab_evaluations=evals,
            rejected_branch_p=optima[1].p if len(optima) == 2 else math.nan,
        ),
    )


def extract_alpha(
    x_target: float,
    levels: Sequence[tuple[float, float]] = DEFAULT_LEVELS,
    eps_s_max: float = EPS_S_MAX,
) -> AlphaExtraction:
    """alpha from repeated minimization at shrinking (gamma, omega) levels.

    The inter-level relative drift of alpha is the error estimate; drift
    above _DRIFT_TOL flags a departure from the separable small-parameter
    scaling.  One level measures no drift: drift is NaN and scaling_ok
    False.
    """
    if not levels:
        raise ValueError("need at least one refinement level")
    # every level is validated before any is solved
    configs = [
        MinimizeConfig(x_target, gamma_tilde, omega_tilde, eps_s_max)
        for gamma_tilde, omega_tilde in levels
    ]
    results = tuple(minimize_absorption(cfg) for cfg in configs)
    if not all(r.feasible for r in results):
        return AlphaExtraction(
            alpha=math.nan, drift=math.nan, scaling_ok=False, feasible=False,
            results=results,
        )
    drifts = [abs(a.alpha - b.alpha) / abs(b.alpha) for a, b in zip(results, results[1:])]
    drift = max(drifts, default=math.nan)
    return AlphaExtraction(
        alpha=results[-1].alpha,
        drift=drift,
        scaling_ok=drift <= _DRIFT_TOL,
        feasible=True,
        results=results,
    )


def _sweep_worker(config: MinimizeConfig) -> SweepRow:
    res = minimize_absorption(config)
    return SweepRow(
        x=config.x_target, alpha=res.alpha, eps_s_star=res.eps_s_star,
        d_star=res.d_star, p_min=res.p_min, feasible=res.feasible,
    )


def sweep(x_values: Sequence[float], jobs: int = 1) -> tuple[SweepRow, ...]:
    """One default minimization per ratio; rows are independent and deterministic.

    jobs and every ratio (by MinimizeConfig) are checked before any row is
    solved, so jobs < 1 or a non-finite or non-positive ratio raises
    ValueError up front.
    Per-row infeasibility is recorded in the row, never raised.  With
    jobs > 1 rows are computed in a pool of at most jobs processes, one
    per row and one per CPU (os.cpu_count()) at most; the output order
    and content are identical regardless of jobs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    configs = [MinimizeConfig(float(x)) for x in x_values]
    if not configs:
        raise ValueError("x_values must be non-empty")
    workers = min(jobs, len(configs), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(_sweep_worker, configs, chunksize=1)
    else:
        rows = [_sweep_worker(cfg) for cfg in configs]
    return tuple(rows)
