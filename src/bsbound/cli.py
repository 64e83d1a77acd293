"""Command-line front end: eval | minimize | sweep | bound.

Every emitted record echoes its inputs so any row can be reproduced from
the record alone.  Floats are printed with Python's shortest round-trip
representation; CSV uses a frozen column order and JSON lines use the
same keys, with a non-finite float written as the string CSV prints for
it ("nan", "inf", "-inf").  Exit codes: 0 success, 2 usage or validation
error or a failed solve, 3 infeasible constraint.  `main` alone turns
an exception into an exit 2 with one `error:` line: a ValueError, which
every command raises for bad input (`eval`'s response out of float range
is slab.evaluate's own), and the optimizer's RuntimeError, a root that
misses the ratio tolerance.
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

        # RFC 8259 has no NaN or Infinity: a non-finite float is written as
        # the string CSV prints for it
        lines = [
            json.dumps(
                {k: _fmt(v) if isinstance(v, float) and not math.isfinite(v) else v
                 for k, v in rec},
                allow_nan=False,
            )
            for rec in records
        ]
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


def _extract(x: float, levels: Sequence, eps_s_max: float) -> optimizer.AlphaExtraction:
    """extract_alpha over `levels`, as the CLI reports it.

    A drift that breaks the separable scaling gets a warning on stderr;
    one level measures no drift.
    """
    ex = optimizer.extract_alpha(x, levels, eps_s_max)
    if ex.drift > optimizer._DRIFT_TOL:
        print(
            f"warning: alpha_drift = {ex.drift!r} exceeds "
            f"{optimizer._DRIFT_TOL!r}; alpha does not scale as p/(gamma*omega) "
            "at this working point",
            file=sys.stderr,
        )
    return ex


def cmd_eval(args) -> tuple[list, int]:
    if args.gamma == 0.0 and not args.allow_lossless:
        raise ValueError("gamma = 0 requires --allow-lossless")
    resp = slab.evaluate(slab.ScaledSlabParams(
        omega_tilde=args.omega, gamma_tilde=args.gamma,
        d=args.thickness, eps_s=args.eps_s,
    ))
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
    return [record], 0


def cmd_minimize(args) -> tuple[list, int]:
    if args.refine_levels < 1:
        raise ValueError("--refine-levels must be at least 1")
    levels = optimizer.ladder(args.gamma, args.omega, args.refine_levels)
    ex = _extract(args.x, levels, args.eps_s_max)
    res = ex.results[-1]
    record = [
        ("x", args.x),
        ("gamma", args.gamma),
        ("omega", args.omega),
        ("eps_s_max", args.eps_s_max),
        ("refine_levels", args.refine_levels),
        ("alpha", ex.alpha),
        ("alpha_drift", ex.drift),
        ("eps_s", res.eps_s_star),
        ("d", res.d_star),
        ("p_min", res.p_min),
        ("phi", res.phi_star),
        ("branch", res.branch),
        ("feasible", ex.feasible),
        ("constraint_residual", res.diagnostics.constraint_residual),
    ]
    return [record], 0 if ex.feasible else 3


def _grid(x_min: float, x_max: float, points: int, log: bool) -> list:
    """points ratios from x_min to x_max, both exact; equal steps in log10(x) if log.

    The formulas of an array library's linspace and geomspace: the linear
    grid is the same floats (for normal x), and the log grid differs only
    where that library's log10 and power round differently from the C one's.
    """
    if log:
        lo = math.log10(x_min)
        step = (math.log10(x_max) - lo) / (points - 1)
        inner = [10.0 ** (k * step + lo) for k in range(1, points - 1)]
    else:
        step = (x_max - x_min) / (points - 1)
        inner = [k * step + x_min for k in range(1, points - 1)]
    return [x_min, *inner, x_max]


def cmd_sweep(args) -> tuple[list, int]:
    if not args.x_min < args.x_max:
        raise ValueError(f"--x-min must be below --x-max, got {args.x_min} >= {args.x_max}")
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    if args.x_min <= 0:
        raise ValueError("--x-min must be positive")
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
    return records, 0


def cmd_bound(args) -> tuple[list, int]:
    if args.nvt <= 0:
        raise ValueError(f"--nvt must be positive, got {args.nvt}")
    if args.omega <= 0:
        raise ValueError(f"--omega must be positive, got {args.omega}")
    if args.omega > 0.5:
        print(
            f"warning: omega = {args.omega} is outside the low-frequency "
            "validity range (recommended omega < 0.5)",
            file=sys.stderr,
        )
    levels = optimizer.DEFAULT_LEVELS
    ex = _extract(args.x, levels, optimizer.EPS_S_MAX)
    eps_s = ex.results[-1].eps_s_star
    if ex.feasible:
        ctx = linewidth.DecayContext(n_vt=args.nvt, eta=math.sqrt(eps_s))
        bound = linewidth.scaled_linewidth_bound(ctx, args.omega)
        p_min = linewidth.min_absorption_probability(ex.alpha, ctx, args.omega)
        eta = ctx.eta
    else:
        bound = p_min = eta = math.nan
    record = [
        ("x", args.x),
        ("omega", args.omega),
        ("nvt", args.nvt),
        ("gamma_work", levels[0][0]),
        ("omega_work", levels[0][1]),
        ("refine_levels", len(levels)),
        ("alpha", ex.alpha),
        ("alpha_drift", ex.drift),
        ("eps_s", eps_s),
        ("eta", eta),
        ("linewidth_bound", bound),
        ("p_min", p_min),
        ("feasible", ex.feasible),
    ]
    return [record], 0 if ex.feasible else 3


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
    p.add_argument("--gamma", type=_finite, default=optimizer.WORKING_POINT[0])
    p.add_argument("--omega", type=_finite, default=optimizer.WORKING_POINT[1])
    p.add_argument(
        "--eps-s-max", dest="eps_s_max", type=_finite, default=optimizer.EPS_S_MAX
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
    try:
        if out:
            # an unwritable --out fails before any work; "a" keeps the bytes
            try:
                open(out, "a").close()
            except OSError as exc:
                raise ValueError(_cannot_write(out, exc)) from None
        records, code = args.func(args)
        _emit(records, args.format, out)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: the constrained solve failed: {exc}", file=sys.stderr)
        return 2
    finally:
        # a command that failed before writing leaves no new empty file
        if created and os.path.isfile(out) and os.path.getsize(out) == 0:
            os.remove(out)


def app() -> None:
    sys.exit(main())
