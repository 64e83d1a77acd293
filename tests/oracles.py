"""Independent reference implementations used only by the tests.

Nothing here shares code paths with the package: the slab oracle is a
plain 2x2 transfer matrix, the high-precision oracles recompute with
mpmath at 50 digits, the minimization oracle is a brute-force grid
search over (eps_s, d) with local refinement (it skips slices by the
package's own rule, optimizer._surely_infeasible), alpha0 is the
closed-form leading order of alpha, and build_parser is the argparse
parser the CLI used before it read its command line from a flag table.
minimize_both_branches is the exception: it is the eps_s search the
package ran before it refined the first branch alone, built from the
package's own scan grid, slice solve and golden search.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys

import mpmath as mp
import numpy as np
from scipy.optimize import minimize_scalar

from bsbound import optimizer

# --- transfer-matrix slab oracle -------------------------------------------

def transfer_matrix_tr(n: complex, phase_arg: float) -> tuple[complex, complex]:
    """Vacuum/slab/vacuum amplitudes, front-face reference planes."""
    delta = n * phase_arg
    r01 = (1 - n) / (1 + n)
    r12 = (n - 1) / (n + 1)
    t01 = 2 / (1 + n)
    t12 = 2 * n / (n + 1)
    em = cmath.exp(-1j * delta)
    ep = cmath.exp(1j * delta)
    m00 = (em + r01 * r12 * ep) / (t01 * t12)
    m10 = (r01 * em + r12 * ep) / (t01 * t12)
    return 1 / m00, m10 / m00


def reference_slab_tr(n: complex, phase_arg: float) -> tuple[complex, complex]:
    """Transfer-matrix amplitudes mapped to the package's phase reference.

    The package references both amplitudes with an extra vacuum
    propagation factor exp(-i*phase) and the opposite Fresnel sign for the
    reflection; both are fixed unimodular factors, so the intensities are
    unchanged.
    """
    t, r = transfer_matrix_tr(n, phase_arg)
    shift = cmath.exp(-1j * phase_arg)
    return t * shift, -r * shift


def airy_intensities(eta: float, phi_optical: float) -> tuple[float, float]:
    """Lossless |T|^2 and |R|^2 from the closed Fabry-Perot form."""
    coeff = (eta**2 - 1) ** 2 / (4 * eta**2)
    t2 = 1.0 / (1.0 + coeff * math.sin(phi_optical) ** 2)
    return t2, 1.0 - t2


# --- high-precision recomputations ------------------------------------------

def susceptibility_highprec(resonances, omega, dps=50) -> complex:
    """Drude-Lorentz sum recomputed with mpmath; resonances as (wt, wp, g)."""
    with mp.workdps(dps):
        total = mp.mpc(0)
        w = mp.mpf(omega)
        for wt, wp, g in resonances:
            wt, wp, g = mp.mpf(wt), mp.mpf(wp), mp.mpf(g)
            total += wp**2 / (wt**2 - w**2 - 1j * g * w)
        return complex(total)


def slab_p_highprec(eps_s, gamma_t, omega_t, d, dps=50) -> float:
    """Slab absorption 1 - |t|^2 - |r|^2 recomputed with mpmath.

    The index is n^2 = 1 + (eps_s - 1)/(1 - omega^2 - i*gamma*omega) and the
    amplitudes are the Airy sums of the multiply reflected waves at phase
    delta = n*omega*d: t = 4n e^{i delta} / D and
    r = (1 - n^2)(1 - e^{2i delta}) / D with
    D = (1 + n)^2 - (1 - n)^2 e^{2i delta}, up to unimodular factors that
    leave |t|^2 and |r|^2 unchanged.
    """
    with mp.workdps(dps):
        eps_s, gamma_t, omega_t, d = (mp.mpf(v) for v in (eps_s, gamma_t, omega_t, d))
        n = mp.sqrt(1 + (eps_s - 1) / (1 - omega_t**2 - 1j * gamma_t * omega_t))
        round_trip = mp.exp(2j * n * omega_t * d)
        den = (1 + n) ** 2 - (1 - n) ** 2 * round_trip
        t = 4 * n * mp.exp(1j * n * omega_t * d) / den
        r = (1 - n**2) * (1 - round_trip) / den
        return float(1 - abs(t) ** 2 - abs(r) ** 2)


def free_space_rate_highprec(omega, dipole_sq, dps=50) -> float:
    """omega^3 d^2 / (3 pi hbar eps0 c^3) constant by constant in mpmath."""
    with mp.workdps(dps):
        hbar = mp.mpf("1.054571817e-34")
        eps0 = mp.mpf("8.8541878128e-12")
        c = mp.mpf("299792458")
        val = mp.mpf(omega) ** 3 * mp.mpf(dipole_sq) / (3 * mp.pi * hbar * eps0 * c**3)
        return float(val)


def local_field_highprec(eta, dps=50) -> float:
    """eta (3 eta^2 / (2 eta^2 + 1))^2 in mpmath."""
    with mp.workdps(dps):
        eta = mp.mpf(eta)
        return float(eta * (3 * eta**2 / (2 * eta**2 + 1)) ** 2)


def dipole_sq_highprec(eta, omega_t, number_density, dps=50) -> float:
    """3 hbar omega_t eps0 (eta^2 - 1) / (2 n) in mpmath."""
    with mp.workdps(dps):
        hbar = mp.mpf("1.054571817e-34")
        eps0 = mp.mpf("8.8541878128e-12")
        eta = mp.mpf(eta)
        return float(3 * hbar * mp.mpf(omega_t) * eps0 * (eta**2 - 1) / (2 * mp.mpf(number_density)))


def scaled_bound_highprec(ctx, omega_tilde, dps=50) -> float:
    """(4 pi^2 / n_vt) omega^3 eta (eta^2 - 1) (3 eta^2 / (2 eta^2 + 1))^2 in mpmath.

    ctx is any (n_vt, eta) pair, such as a DecayContext.
    """
    n_vt, eta = ctx
    with mp.workdps(dps):
        eta, omega = mp.mpf(eta), mp.mpf(omega_tilde)
        return float(
            4 * mp.pi**2 / mp.mpf(n_vt) * omega**3
            * eta * (eta**2 - 1) * (3 * eta**2 / (2 * eta**2 + 1)) ** 2
        )


# --- brute-force constrained minimization oracle -----------------------------

def _oracle_index(eps_s: float, gamma_t: float, omega_t: float) -> complex:
    chi = (eps_s - 1.0) / (1.0 - omega_t**2 - 1j * gamma_t * omega_t)
    return complex(np.sqrt(complex(1.0 + chi)))


def _tmm_p_x(n: complex, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized transfer-matrix absorption and ratio over a phase grid."""
    delta = n * phase
    r01 = (1 - n) / (1 + n)
    r12 = (n - 1) / (n + 1)
    tprod = (2 / (1 + n)) * (2 * n / (n + 1))
    em = np.exp(-1j * delta)
    ep = np.exp(1j * delta)
    m00 = (em + r01 * r12 * ep) / tprod
    m10 = (r01 * em + r12 * ep) / tprod
    t = 1 / m00
    r = m10 / m00
    t2 = np.abs(t) ** 2
    r2 = np.abs(r) ** 2
    return 1.0 - t2 - r2, t2 / r2


def _min_p_at_eps(
    eps_s: float, x_target: float, gamma_t: float, omega_t: float,
    n_d: int, prune_above: float,
) -> float:
    """Smallest p on the ratio constraint for one eps_s slice (inf if none)."""
    eta0 = math.sqrt(eps_s)
    n = _oracle_index(eps_s, gamma_t, omega_t)
    phi = np.linspace(math.pi / n_d, math.pi * (1 - 1.0 / n_d), n_d)
    phase = phi / eta0
    p_arr, x_arr = _tmm_p_x(n, phase)
    f = np.log(x_arr) - math.log(x_target)
    crossings = np.nonzero(f[:-1] * f[1:] <= 0.0)[0]
    if crossings.size == 0:
        return math.inf

    def f_scalar(ph: float) -> float:
        p, x = _tmm_p_x(n, np.array([ph]))
        return math.log(x[0]) - math.log(x_target)

    def p_scalar(ph: float) -> float:
        p, _ = _tmm_p_x(n, np.array([ph]))
        return float(p[0])

    best = math.inf
    for i in crossings:
        if min(p_arr[i], p_arr[i + 1]) > prune_above:
            continue
        a, b = phase[i], phase[i + 1]
        fa = f[i]
        for _ in range(80):
            m = 0.5 * (a + b)
            if m == a or m == b:
                break
            fm = f_scalar(m)
            if fa * fm <= 0.0:
                b = m
            else:
                a, fa = m, fm
        best = min(best, p_scalar(0.5 * (a + b)))
    return best


def brute_force_min_p(
    x_target: float,
    gamma_t: float = 1e-3,
    omega_t: float = 1e-3,
    eps_lo: float = 1.0 + 1e-6,
    eps_hi: float = 1e3,
    n_eps: int = 500,
    n_d: int = 5000,
    refine_points: int = 81,
) -> float:
    """Global minimum of p on the constraint by 2-D grid plus refinement."""
    ratio = (eps_hi - 1.0) / (eps_lo - 1.0)
    grid = 1.0 + (eps_lo - 1.0) * ratio ** (np.arange(n_eps) / (n_eps - 1))
    best_p, best_i = math.inf, -1
    for i, eps in enumerate(grid):
        if optimizer._surely_infeasible(float(eps), x_target):
            continue
        p = _min_p_at_eps(float(eps), x_target, gamma_t, omega_t, n_d, best_p * 1.5)
        if p < best_p:
            best_p, best_i = p, i
    if best_i < 0:
        return math.inf
    lo = float(grid[max(best_i - 1, 0)])
    hi = float(grid[min(best_i + 1, n_eps - 1)])
    for eps in np.linspace(lo, hi, refine_points):
        p = _min_p_at_eps(float(eps), x_target, gamma_t, omega_t, n_d, best_p * 1.5)
        best_p = min(best_p, p)
    return best_p


# --- closed-form leading-order alpha ------------------------------------------

def alpha0(eps: float, x: float, branch: str = "first") -> float:
    """Leading-order p / (gamma*omega) on one branch, lossless field.

    (eps-1) x/(1+x)/sqrt(eps) [phi (1+1/eps)/2 + sin(2 phi) (1-1/eps)/4]
    with sin^2 phi = 4 eps / (x (eps-1)^2) and phi in (0, pi/2] on the
    first branch, pi - that phi on the second: the lossless Airy field at
    ratio x, absorbing with the low-frequency
    kappa = gamma*omega*(eps-1)/(2*sqrt(eps)).
    """
    sin_sq = 4.0 * eps / (x * (eps - 1.0) ** 2)
    # at the boundary eps_b rounding can put sin_sq a hair above 1
    phi = math.asin(math.sqrt(min(sin_sq, 1.0)))
    if branch == "second":
        phi = math.pi - phi
    bracket = phi * (1.0 + 1.0 / eps) / 2.0 + math.sin(2.0 * phi) * (1.0 - 1.0 / eps) / 4.0
    return (eps - 1.0) * x / (1.0 + x) / math.sqrt(eps) * bracket


def alpha0_min(x: float, eps_min: float, eps_max: float) -> tuple[float, float]:
    """(eps0, alpha0) minimizing alpha0(eps, x) over the feasible eps.

    The range is [max(eps_b(x), eps_min), eps_max], where
    eps_b = 1 + (2 + 2 sqrt(1+x))/x solves 4 eps = x (eps-1)^2, the
    lossless boundary below which the ratio x is out of reach.  A
    geometric scan in eps - 1 brackets the minimum and bounded Brent
    closes it to roundoff.
    """
    lo = max(1.0 + (2.0 + 2.0 * math.sqrt(1.0 + x)) / x, eps_min)
    if lo >= eps_max:
        raise ValueError(f"no feasible eps in [{lo}, {eps_max}] at x = {x}")
    grid = np.geomspace(lo - 1.0, eps_max - 1.0, 401) + 1.0
    grid[0], grid[-1] = lo, eps_max
    k = min(range(len(grid)), key=lambda i: alpha0(grid[i], x))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    res = minimize_scalar(lambda e: alpha0(e, x), bounds=(a, b), method="bounded",
                          options={"xatol": 1e-14 * b})
    # the minimum may sit on a scanned end, which bounded Brent never evaluates
    return min((float(res.x), float(res.fun)), (float(grid[k]), alpha0(grid[k], x)),
               key=lambda pair: pair[1])


# --- the two-branch eps_s search ---------------------------------------------

# the second branch must undercut the first's p by this fraction to win
OBJECTIVE_RTOL = 1e-8


def minimize_both_branches(
    config: optimizer.MinimizeConfig,
) -> tuple[optimizer.MinimizeResult, list[tuple[str, float]]]:
    """minimize_absorption with both branches golden-refined.

    Scans eps_s as the package does, refines the best scan slice of each
    branch, and picks between the refined optima: the second wins only if
    its p undercuts the first's by OBJECTIVE_RTOL.  Returns the result and
    (branch, lowest scan p) of each branch with a scan root, the branch
    that wins the scan by the same rule first.  rejected_branch_p is the
    losing branch's refined p, and refine_iterations and slab_evaluations
    count both refinements.  The package refines the first branch alone,
    so it matches this search wherever the first branch wins.
    """
    grid = optimizer._scan_grid(config.eps_s_max)
    x_target, gamma_tilde, omega_tilde = config[:3]
    evals = scan_feasible = refine_iters = 0

    def solve(eps, branches):
        nonlocal evals
        roots, n = optimizer._solve_slice(eps, gamma_tilde, omega_tilde, x_target, branches)
        evals += n
        return roots

    def wins(p, q):
        # p of the second branch against q of the first
        return p < q * (1.0 - OBJECTIVE_RTOL)

    best = {}  # branch -> (scan p, slice index)
    for i, eps in enumerate(grid):
        if optimizer._surely_infeasible(eps, x_target):
            continue
        roots = solve(eps, optimizer._BRANCHES)
        scan_feasible += bool(roots)
        for root in roots:
            if root.branch not in best or root.p < best[root.branch][0]:
                best[root.branch] = (root.p, i)
    scan = [(branch, best[branch][0]) for branch in optimizer._BRANCHES if branch in best]
    if len(scan) == 2 and wins(scan[1][1], scan[0][1]):
        scan.reverse()

    optima = []
    for branch in optimizer._BRANCHES:
        if branch not in best:
            continue
        i = best[branch][1]
        refined = {}

        def p_of_eps(eps):
            for root in solve(eps, (branch,)):
                refined[eps] = root
                return root.p
            return math.inf

        eps_star, p_star, iters = optimizer._golden_min(
            p_of_eps, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        )
        refine_iters += iters
        if math.isfinite(p_star):
            optima.append(refined[eps_star])
    if len(optima) == 2 and wins(optima[1].p, optima[0].p):
        optima.reverse()
    chosen = optima[0] if optima else optimizer._NO_ROOT
    if chosen.p <= 0.0:
        raise ValueError(
            f"p_min = {chosen.p!r} is not positive at gamma*omega = "
            f"{gamma_tilde * omega_tilde!r}: "
            f"p = 1 - |t|^2 - |r|^2 resolves absorption only to about "
            f"{sys.float_info.epsilon!r}, so raise gamma_tilde or omega_tilde"
        )
    result = optimizer.MinimizeResult(
        alpha=chosen.p / (gamma_tilde * omega_tilde),
        eps_s_star=chosen.eps_s,
        d_star=chosen.d,
        p_min=chosen.p,
        phi_star=chosen.phi,
        branch=chosen.branch,
        feasible=bool(optima),
        diagnostics=optimizer.MinimizeDiagnostics(
            constraint_residual=chosen.residual,
            scan_feasible=scan_feasible,
            refine_iterations=refine_iters,
            slab_evaluations=evals,
            rejected_branch_p=optima[1].p if len(optima) == 2 else math.nan,
        ),
    )
    return result, scan


# --- the argparse command line -------------------------------------------------

def _finite(text: str) -> float:
    """argparse type: a finite float; argparse names the flag on rejection."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    """The parser of bsbound.cli up to its flag table, func set to its commands."""
    from bsbound import cli, optimizer

    parser = argparse.ArgumentParser(
        prog="bsbound",
        description="Absorption bounds for a planar-slab beam splitter.",
    )
    parser.add_argument(
        "--constants", action="store_true",
        help="print the compiled physical constants and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("eval", help="slab response at one working point")
    p.add_argument("--eps-s", dest="eps_s", type=_finite, required=True)
    p.add_argument("--gamma", type=_finite, required=True)
    p.add_argument("--omega", type=_finite, required=True)
    p.add_argument("--thickness", type=_finite, required=True)
    p.add_argument("--allow-lossless", action="store_true")
    _add_io_flags(p)
    p.set_defaults(func=cli.cmd_eval)

    p = sub.add_parser("minimize", help="minimal absorption at a splitting ratio")
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--gamma", type=_finite, default=optimizer.WORKING_POINT[0])
    p.add_argument("--omega", type=_finite, default=optimizer.WORKING_POINT[1])
    p.add_argument(
        "--eps-s-max", dest="eps_s_max", type=_finite, default=optimizer.EPS_S_MAX
    )
    p.add_argument("--refine-levels", dest="refine_levels", type=int, default=2)
    _add_io_flags(p)
    p.set_defaults(func=cli.cmd_minimize)

    p = sub.add_parser("sweep", help="alpha and eps_s over a grid of ratios")
    p.add_argument("--x-min", dest="x_min", type=_finite, required=True)
    p.add_argument("--x-max", dest="x_max", type=_finite, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--log", action="store_true", help="logarithmic grid")
    _add_io_flags(p)
    p.set_defaults(func=cli.cmd_sweep)

    p = sub.add_parser("bound", help="minimal absorption probability chain")
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--omega", type=_finite, required=True)
    p.add_argument("--nvt", type=_finite, default=1e9)
    _add_io_flags(p)
    p.set_defaults(func=cli.cmd_bound)

    return parser
