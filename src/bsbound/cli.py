"""Command-line front end: eval | minimize | sweep | bound.

Every emitted record echoes its inputs so any row can be reproduced from
the record alone.  Floats are printed with Python's shortest round-trip
representation; CSV uses a frozen column order and JSON lines use the
same keys, with a non-finite float written as the string CSV prints for
it ("nan", "inf", "-inf").  Exit codes: 0 success, 2 usage or validation
error, a failed solve or a failed write of the output, 3 infeasible
constraint.  `main` turns an exception into an exit 2 with one `error:`
line: a ValueError, which every command raises for bad input (`eval`'s
response out of float range is slab.evaluate's own), and the optimizer's
RuntimeError, a root that misses the ratio tolerance.  `app`, the
process entry, does so for output that cannot be written, on stdout or
stderr; it flushes the output and leaves by os._exit, so a `bsbound`
process runs no atexit hook.  Commands write nothing: every byte goes
through `_out` or `_err`, a command's warnings after its records.

The command line is read from one table of commands and flags (`_parse`),
which also gives the usage and help text; it takes the syntax argparse
took, prints the bytes argparse printed at 80 columns, and imports
nothing.  Nothing is written to a stdout whose descriptor is closed.

The module imports no other bsbound module: each command imports what it
runs, so --constants loads linewidth (and its dielectric), eval the slab,
minimize, sweep and bound the optimizer, and --help or a usage error none.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

__all__ = ["main", "app"]


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # a float's str is its shortest round-trip repr


def _emit(records: list, fmt: str, out: str | None) -> None:
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
        _out(text)


def _cannot_write(out: str, exc: OSError) -> str:
    return f"cannot write --out {out!r}: {exc.strerror or exc}"


def _extract(x: float, levels: Sequence, eps_s_max: float, warnings: list) -> tuple:
    """extract_alpha over `levels`, as the CLI reports it: an optimizer.AlphaExtraction.

    A drift that breaks the separable scaling adds a line to warnings; one
    level measures no drift.
    """
    from . import optimizer

    ex = optimizer.extract_alpha(x, levels, eps_s_max)
    if ex.drift > optimizer._DRIFT_TOL:
        warnings.append(
            f"warning: alpha_drift = {ex.drift!r} exceeds "
            f"{optimizer._DRIFT_TOL!r}; alpha does not scale as p/(gamma*omega) "
            "at this working point\n"
        )
    return ex


def cmd_eval(args, warnings: list) -> tuple[list, int]:
    from . import slab

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


def cmd_minimize(args, warnings: list) -> tuple[list, int]:
    from . import optimizer

    if args.refine_levels < 1:
        raise ValueError("--refine-levels must be at least 1")
    levels = optimizer.ladder(args.gamma, args.omega, args.refine_levels)
    ex = _extract(args.x, levels, args.eps_s_max, warnings)
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


def cmd_sweep(args, warnings: list) -> tuple[list, int]:
    from . import optimizer

    if not args.x_min < args.x_max:
        raise ValueError(f"--x-min must be below --x-max, got {args.x_min} >= {args.x_max}")
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    if args.x_min <= 0:
        raise ValueError("--x-min must be positive")
    grid = _grid(args.x_min, args.x_max, args.points, args.log)
    rows = optimizer.sweep(grid)
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


def cmd_bound(args, warnings: list) -> tuple[list, int]:
    from . import linewidth, optimizer

    if args.nvt <= 0:
        raise ValueError(f"--nvt must be positive, got {args.nvt}")
    if args.omega <= 0:
        raise ValueError(f"--omega must be positive, got {args.omega}")
    if args.omega > 0.5:
        warnings.append(
            f"warning: omega = {args.omega} is outside the low-frequency "
            "validity range (recommended omega < 0.5)\n"
        )
    levels = optimizer.DEFAULT_LEVELS
    ex = _extract(args.x, levels, optimizer.EPS_S_MAX, warnings)
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
    """A finite float; _parse puts the flag's name before the ValueError's message."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _optimizer():
    from . import optimizer

    return optimizer


# The command line: _parse reads it from these tables, _usage and _help
# print it.  A command is (help line, function, flags); the top level has
# flags only.  A flag is (name, convert, default, help): convert is _finite,
# _int, str, a tuple of the accepted values, or bool for a switch that
# stores True, and the default _REQUIRED makes the flag required.  A default
# that is a function is called for the parsed command only, so minimize's
# defaults stay the optimizer's own without --help or another command
# importing it.  Its dest is the name without the dashes, with "_" for "-".
# Every command, and the top level, also takes _HELP, which -h names too.
_REQUIRED = object()
_HELP = ("--help", None, None, "show this help message and exit")
_IO_FLAGS = (
    ("--format", ("csv", "json"), "csv", None),
    ("--out", str, None, "output file (default stdout)"),
)
_TOP_FLAGS = (
    ("--constants", bool, False, "print the compiled physical constants and exit"),
)
_COMMANDS = {
    "eval": ("slab response at one working point", cmd_eval, (
        ("--eps-s", _finite, _REQUIRED, None),
        ("--gamma", _finite, _REQUIRED, None),
        ("--omega", _finite, _REQUIRED, None),
        ("--thickness", _finite, _REQUIRED, None),
        ("--allow-lossless", bool, False, None),
        *_IO_FLAGS,
    )),
    "minimize": ("minimal absorption at a splitting ratio", cmd_minimize, (
        ("--x", _finite, _REQUIRED, None),
        ("--gamma", _finite, lambda: _optimizer().WORKING_POINT[0], None),
        ("--omega", _finite, lambda: _optimizer().WORKING_POINT[1], None),
        ("--eps-s-max", _finite, lambda: _optimizer().EPS_S_MAX, None),
        ("--refine-levels", _int, 2, None),
        *_IO_FLAGS,
    )),
    "sweep": ("alpha and eps_s over a grid of ratios", cmd_sweep, (
        ("--x-min", _finite, _REQUIRED, None),
        ("--x-max", _finite, _REQUIRED, None),
        ("--points", _int, _REQUIRED, None),
        ("--log", bool, False, "logarithmic grid"),
        *_IO_FLAGS,
    )),
    "bound": ("minimal absorption probability chain", cmd_bound, (
        ("--x", _finite, _REQUIRED, None),
        ("--omega", _finite, _REQUIRED, None),
        ("--nvt", _finite, 1e9, None),
        *_IO_FLAGS,
    )),
}
# help and usage are laid out as argparse lays them out for 80 columns
_WIDTH = 78


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _out(text: str) -> None:
    """Write to stdout; a closed stdout descriptor (sys.stdout None) takes nothing."""
    if sys.stdout is not None:
        sys.stdout.write(text)


def _err(text: str) -> None:
    """_out for stderr, but "" is not written: unbuffered, even that reaches the descriptor."""
    if text and sys.stderr is not None:
        sys.stderr.write(text)


def _prog(command: str | None) -> str:
    return "bsbound" if command is None else f"bsbound {command}"


def _metavar(name: str, convert) -> str:
    if isinstance(convert, tuple):
        return "{" + ",".join(convert) + "}"
    return _dest(name).upper()


def _usage(command: str | None) -> str:
    flags = _COMMANDS[command][2] if command else _TOP_FLAGS
    parts = [_prog(command), "[-h]"]
    for name, convert, default, _ in flags:
        if convert is bool:
            parts.append(f"[{name}]")
        elif default is _REQUIRED:
            parts += [name, _metavar(name, convert)]
        else:
            parts.append(f"[{name} {_metavar(name, convert)}]")
    if command is None:
        parts += ["{" + ",".join(_COMMANDS) + "}", "..."]
    lines = ["usage: " + parts[0]]
    indent = " " * len(lines[0])
    for part in parts[1:]:
        if len(lines[-1]) + 1 + len(part) > _WIDTH:
            lines.append(indent)
        lines[-1] += " " + part
    return "\n".join(lines) + "\n"


def _help(command: str | None) -> str:
    flags = _COMMANDS[command][2] if command else _TOP_FLAGS
    options = [("  -h, --help", _HELP[3])]
    options += [
        ("  " + (name if convert is bool else f"{name} {_metavar(name, convert)}"), text)
        for name, convert, _, text in flags
    ]
    sections = [("options:", options)]
    head = _usage(command) + "\n"
    if command is None:
        head += "Absorption bounds for a planar-slab beam splitter.\n\n"
        commands = [("  {" + ",".join(_COMMANDS) + "}", None)]
        commands += [("    " + name, spec[0]) for name, spec in _COMMANDS.items()]
        sections.insert(0, ("positional arguments:", commands))
    column = min(24, 2 + max(len(invocation) for _, rows in sections for invocation, _ in rows))
    blocks = []
    for title, rows in sections:
        lines = [title]
        for invocation, text in rows:
            if text is None:
                lines.append(invocation)
            elif len(invocation) <= column - 2:
                lines.append(invocation.ljust(column) + text)
            else:
                lines += [invocation, " " * column + text]
        blocks.append("\n".join(lines) + "\n")
    return head + "\n".join(blocks)


def _fail(command: str | None, message: str):
    """A usage error: the usage and one error line on stderr, then SystemExit(2)."""
    _err(f"{_usage(command)}{_prog(command)}: error: {message}\n")
    raise SystemExit(2)


def _find(command: str | None, flags: Sequence, token: str):
    """The flag a token names and its "=" value, (None, None) for a token that
    looks like a flag but names none, or None for a value or a positional.

    A "--" token names the one flag whose name it is or starts; "-h" and
    "-hVALUE" name --help.  A token that does not start with "-", "-"
    itself, a number and a token with a space are values.
    """
    if token.startswith("--") and token != "--":
        name, eq, value = token.partition("=")
        flags = (_HELP, *flags)
        hits = [f for f in flags if f[0] == name] or [f for f in flags if f[0].startswith(name)]
        if len(hits) > 1:
            _fail(command, f"ambiguous option: {token} could match "
                           + ", ".join(f[0] for f in hits))
        if hits:
            return hits[0], value if eq else None
    elif token.startswith("-h"):
        return _HELP, (token[3:] if token[2:3] == "=" else token[2:] or None)
    if not token.startswith("-") or token == "-" or " " in token:
        return None
    try:
        float(token)
    except ValueError:
        return None, None
    return None


def _convert(command: str | None, label: str, convert, text: str):
    if isinstance(convert, tuple):
        if text in convert:
            return text
        choices = ", ".join(map(repr, convert))
        message = f"invalid choice: {text!r} (choose from {choices})"
    else:
        try:
            return convert(text)
        except ValueError as exc:
            message = str(exc)
    _fail(command, f"argument {label}: {message}")


def _read(command: str | None, flags: Sequence, tokens: list, args, extras: list) -> int:
    """Store in args what the flags among tokens give, and put in extras each
    token that no flag takes.  At the top level (command None) stop at the
    first positional token; return the index where reading stopped.
    """
    found = [_find(command, flags, token) for token in tokens]
    i = 0
    while i < len(tokens):
        if found[i] is None and command is None:
            break
        flag, value = found[i] or (None, None)
        if flag is None:
            extras.append(tokens[i])
        elif flag[1] is None or flag[1] is bool:
            if value is not None:
                label = "-h/--help" if flag is _HELP else flag[0]
                _fail(command, f"argument {label}: ignored explicit argument {value!r}")
            if flag is _HELP:
                _out(_help(command))
                raise SystemExit(0)
            setattr(args, _dest(flag[0]), True)
        else:
            if value is None:
                # the next token is the value unless it is itself a flag
                if i + 1 == len(tokens) or found[i + 1] is not None:
                    _fail(command, f"argument {flag[0]}: expected one argument")
                i += 1
                value = tokens[i]
            setattr(args, _dest(flag[0]), _convert(command, flag[0], flag[1], value))
        i += 1
    return i


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """The namespace of a command line: constants, command, and with a command
    its func and one attribute per flag.

    A flag takes its value as "--flag value" or "--flag=value", may be
    shortened to any prefix that names it alone, and the last of repeated
    flags wins.  A usage error prints the usage and an error line to stderr
    and raises SystemExit(2); -h or --help prints the help to stdout and
    raises SystemExit(0).  The defaults of the flags not given are set last,
    after every usage check.
    """
    args = SimpleNamespace(constants=False, command=None)
    extras: list = []
    flags: Sequence = ()
    start = _read(None, _TOP_FLAGS, argv, args, extras)
    if start < len(argv):
        args.command = _convert(None, "command", tuple(_COMMANDS), argv[start])
        _, args.func, flags = _COMMANDS[args.command]
        _read(args.command, flags, argv[start + 1:], args, extras)
        missing = [name for name, _, default, _ in flags
                   if default is _REQUIRED and not hasattr(args, _dest(name))]
        if missing:
            _fail(args.command, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    for name, _, default, _ in flags:
        if not hasattr(args, _dest(name)):
            setattr(args, _dest(name), default() if callable(default) else default)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Parse argv, run its command, write its records; return the exit code.

    The warning lines a command appends to main's list go to stderr after
    its records, or before the error line of a command that failed.
    """
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.constants:
        from . import linewidth

        _out(
            f"hbar = {linewidth.HBAR!r} J s\n"
            f"epsilon_0 = {linewidth.EPSILON_0!r} F m^-1\n"
            f"c = {linewidth.SPEED_OF_LIGHT!r} m s^-1\n"
        )
        return 0
    if args.command is None:
        _err(_usage(None) + "error: a subcommand is required\n")
        return 2
    out = args.out
    created = bool(out) and not os.path.exists(out)
    lines: list = []  # for stderr: the command's warnings, then an error line
    try:
        if out:
            # an unwritable --out fails before any work; "a" keeps the bytes
            try:
                open(out, "a").close()
            except OSError as exc:
                raise ValueError(_cannot_write(out, exc)) from None
        records, code = args.func(args, lines)
        _emit(records, args.format, out)
    except ValueError as exc:
        code = 2
        lines.append(f"error: {exc}\n")
    except RuntimeError as exc:
        code = 2
        lines.append(f"error: the constrained solve failed: {exc}\n")
    finally:
        # a command that failed before writing leaves no new empty file
        if created and os.path.isfile(out) and os.path.getsize(out) == 0:
            os.remove(out)
        _err("".join(lines))
    return code


def app() -> None:
    """The process entry of `bsbound` and `python -m bsbound`: main, flush, exit.

    The parser's SystemExit, 0 after --help and 2 on a usage error, ends
    main with its own code.  stdout and then stderr are flushed here, each
    on its own, and the process leaves by os._exit, so no module teardown,
    atexit hook or final collection runs.  Output that cannot be written,
    on stdout or stderr, exits 2 with one error line if stderr still takes
    it, and stdout keeps a record already written; with PYTHONUNBUFFERED
    it is the write inside main that raises.  Any other exception propagates.
    """
    failed = None
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    except OSError as exc:
        failed = exc
    for stream in (sys.stdout, sys.stderr):
        try:
            if failed is not None and stream is sys.stderr:
                _err(f"error: cannot write output: {failed.strerror or failed}\n")
            if stream is not None:  # None where the descriptor was closed
                stream.flush()
        except OSError as exc:
            failed = failed or exc
    os._exit(2 if failed else code)
