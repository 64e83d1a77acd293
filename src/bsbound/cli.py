"""Command-line front end: eval | minimize | sweep | bound.

Every emitted record echoes its inputs so any row can be reproduced from
the record alone.  Floats are printed with Python's shortest round-trip
representation; CSV uses a frozen column order and JSON lines use the
same keys.  Exit codes: 0 success, 2 usage or validation error, 3
infeasible constraint.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from . import linewidth, optimizer, slab

__all__ = ["main", "app", "build_parser"]


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(records: list, fmt: str, out: Optional[str]) -> None:
    if fmt == "csv":
        keys = [k for k, _ in records[0]]
        lines = [",".join(keys)]
        lines += [",".join(_fmt(v) for _, v in rec) for rec in records]
    else:
        import json  # only --format json needs it; keeps the cold start light

        lines = [json.dumps(dict(rec)) for rec in records]
    text = "\n".join(lines) + "\n"
    if out:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            # main turns the ValueError into an error line and exit 2
            raise ValueError(_cannot_write(out, exc)) from None
    else:
        sys.stdout.write(text)


def _cannot_write(out: str, exc: OSError) -> str:
    return f"cannot write --out {out!r}: {exc.strerror or exc}"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _minimize_with_levels(cfg: optimizer.MinimizeConfig, levels: int) -> tuple:
    """(alpha, drift, final MinimizeResult, feasible) over `levels` ladder levels.

    The ladder starts at cfg's working point; one level reports a NaN drift.
    A reported p_min <= 0 raises ValueError: the working point is below the
    resolution of p.  A feasible ladder whose drift breaks the separable
    scaling gets a warning on stderr.
    """
    if levels == 1:
        res = optimizer.minimize_absorption(cfg)
        alpha, drift, feasible, scaling_ok = res.alpha, math.nan, res.feasible, True
        gamma_omega = cfg.gamma_tilde * cfg.omega_tilde
    else:
        steps = optimizer.ladder(cfg.gamma_tilde, cfg.omega_tilde, levels)
        extraction = optimizer.extract_alpha(cfg.x_target, steps, cfg.eps_s_range)
        alpha, drift, feasible = extraction.alpha, extraction.drift, extraction.feasible
        res, scaling_ok = extraction.results[-1], extraction.scaling_ok
        gamma_omega = steps[-1][0] * steps[-1][1]
    if res.p_min <= 0.0:
        raise ValueError(
            f"p_min = {res.p_min!r} is not positive at gamma*omega = {gamma_omega!r}: "
            f"p = 1 - |t|^2 - |r|^2 resolves absorption only to about "
            f"{sys.float_info.epsilon!r}, so raise --gamma or --omega"
        )
    if feasible and not scaling_ok:
        print(
            f"warning: alpha_drift = {drift!r} exceeds "
            f"{optimizer._DRIFT_TOL!r}; alpha does not scale as p/(gamma*omega) "
            "at this working point",
            file=sys.stderr,
        )
    return alpha, drift, res, feasible


def cmd_eval(args) -> int:
    if args.gamma == 0.0 and not args.allow_lossless:
        return _fail("gamma = 0 requires --allow-lossless")
    try:
        params = slab.ScaledSlabParams(
            omega_tilde=args.omega, gamma_tilde=args.gamma,
            d=args.thickness, eps_s=args.eps_s,
        )
    except ValueError as exc:
        return _fail(str(exc))
    resp = slab.evaluate(params)
    record = [
        ("eps_s", args.eps_s),
        ("gamma", args.gamma),
        ("omega", args.omega),
        ("thickness", args.thickness),
        ("allow_lossless", bool(args.allow_lossless)),
        ("t_re", resp.t.real),
        ("t_im", resp.t.imag),
        ("t_abs2", abs(resp.t) ** 2),
        ("r_re", resp.r.real),
        ("r_im", resp.r.imag),
        ("r_abs2", abs(resp.r) ** 2),
        ("p", resp.p),
        ("x", resp.x),
    ]
    _emit([record], args.format, args.out)
    return 0


def cmd_minimize(args) -> int:
    if args.refine_levels < 1:
        return _fail("--refine-levels must be at least 1")
    try:
        cfg = optimizer.MinimizeConfig(
            x_target=args.x,
            gamma_tilde=args.gamma,
            omega_tilde=args.omega,
            eps_s_range=(optimizer.EPS_S_RANGE[0], args.eps_s_max),
        )
        alpha, drift, res, _ = _minimize_with_levels(cfg, args.refine_levels)
    except ValueError as exc:
        return _fail(str(exc))
    record = [
        ("x", args.x),
        ("gamma", args.gamma),
        ("omega", args.omega),
        ("eps_s_max", args.eps_s_max),
        ("refine_levels", args.refine_levels),
        ("alpha", alpha),
        ("alpha_drift", drift),
        ("eps_s", res.eps_s_star),
        ("d", res.d_star),
        ("p_min", res.p_min),
        ("phi", res.phi_star),
        ("branch", res.branch),
        ("feasible", res.feasible),
        ("constraint_residual", res.diagnostics.constraint_residual),
    ]
    _emit([record], args.format, args.out)
    return 0 if res.feasible else 3


def _grid(x_min: float, x_max: float, points: int, log: bool) -> list:
    """points ratios from x_min to x_max, both exact; equal steps in log10(x) if log.

    The formulas of numpy's linspace and geomspace: the linear grid is the
    same floats (for normal x), and the log grid differs only where numpy's
    log10 and power round differently from the C library's.
    """
    if log:
        lo = math.log10(x_min)
        step = (math.log10(x_max) - lo) / (points - 1)
        inner = [10.0 ** (k * step + lo) for k in range(1, points - 1)]
    else:
        step = (x_max - x_min) / (points - 1)
        inner = [k * step + x_min for k in range(1, points - 1)]
    return [x_min, *inner, x_max]


def cmd_sweep(args) -> int:
    if not args.x_min < args.x_max:
        return _fail(f"--x-min must be below --x-max, got {args.x_min} >= {args.x_max}")
    if args.points < 2:
        return _fail("--points must be at least 2")
    if args.jobs < 1:
        return _fail("--jobs must be at least 1")
    if args.x_min <= 0:
        return _fail("--x-min must be positive")
    grid = _grid(args.x_min, args.x_max, args.points, args.log)
    rows = optimizer.sweep(grid, jobs=args.jobs)
    records = [
        [
            ("x", row.x),
            ("alpha", row.alpha),
            ("eps_s", row.eps_s_star),
            ("d", row.d_star),
            ("p_min", row.p_min),
            ("feasible", row.feasible),
        ]
        for row in rows
    ]
    _emit(records, args.format, args.out)
    return 0


def cmd_bound(args) -> int:
    if args.nvt <= 0:
        return _fail(f"--nvt must be positive, got {args.nvt}")
    if args.omega <= 0:
        return _fail(f"--omega must be positive, got {args.omega}")
    if args.omega > 0.5:
        print(
            f"warning: omega = {args.omega} is outside the low-frequency "
            "validity range (recommended omega < 0.5)",
            file=sys.stderr,
        )
    gamma_work, omega_work = optimizer.DEFAULT_LEVELS[0]
    refine_levels = len(optimizer.DEFAULT_LEVELS)
    cfg = optimizer.MinimizeConfig(
        x_target=args.x, gamma_tilde=gamma_work, omega_tilde=omega_work
    )
    alpha, drift, res, feasible = _minimize_with_levels(cfg, refine_levels)
    if feasible:
        ctx = linewidth.DecayContext(n_vt=args.nvt, eta=math.sqrt(res.eps_s_star))
        bound = linewidth.scaled_linewidth_bound(ctx, args.omega)
        p_min = linewidth.min_absorption_probability(alpha, ctx, args.omega)
        eta = ctx.eta
    else:
        bound = p_min = eta = math.nan
    record = [
        ("x", args.x),
        ("omega", args.omega),
        ("nvt", args.nvt),
        ("gamma_work", gamma_work),
        ("omega_work", omega_work),
        ("refine_levels", refine_levels),
        ("alpha", alpha),
        ("alpha_drift", drift),
        ("eps_s", res.eps_s_star),
        ("eta", eta),
        ("linewidth_bound", bound),
        ("p_min", p_min),
        ("feasible", feasible),
    ]
    _emit([record], args.format, args.out)
    return 0 if feasible else 3


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
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("minimize", help="minimal absorption at a splitting ratio")
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--gamma", type=_finite, default=1e-3)
    p.add_argument("--omega", type=_finite, default=1e-3)
    p.add_argument(
        "--eps-s-max", dest="eps_s_max", type=_finite, default=optimizer.EPS_S_RANGE[1]
    )
    p.add_argument("--refine-levels", dest="refine_levels", type=int, default=2)
    _add_io_flags(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("sweep", help="alpha and eps_s over a grid of ratios")
    p.add_argument("--x-min", dest="x_min", type=_finite, required=True)
    p.add_argument("--x-max", dest="x_max", type=_finite, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--log", action="store_true", help="logarithmic grid")
    p.add_argument("--jobs", type=int, default=1)
    _add_io_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bound", help="minimal absorption probability chain")
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--omega", type=_finite, required=True)
    p.add_argument("--nvt", type=_finite, default=1e9)
    _add_io_flags(p)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.constants:
        print(f"hbar = {linewidth.HBAR!r} J s")
        print(f"epsilon_0 = {linewidth.EPSILON_0!r} F m^-1")
        print(f"c = {linewidth.SPEED_OF_LIGHT!r} m s^-1")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 2
    out = args.out
    created = bool(out) and not os.path.exists(out)
    if out:
        # an unwritable --out fails before any work; "a" keeps the bytes
        try:
            open(out, "a").close()
        except OSError as exc:
            return _fail(_cannot_write(out, exc))
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))
    finally:
        # a command that failed before writing leaves no new empty file
        if created and os.path.isfile(out) and os.path.getsize(out) == 0:
            os.remove(out)


def app() -> None:
    sys.exit(main())
