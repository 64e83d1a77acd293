"""Regenerate the golden outputs under tests/golden/.

Run after any intentional format change, then review the diff.  With file
names as arguments (`python scripts/make_goldens.py bound_headline.csv`)
only those goldens are written.  Besides the CLI outputs, SOLVER_GOLDEN
pins the repr of every solver result field (see solver_reprs).

The same run first writes src/bsbound/_scan_valleys.py, the valleys of the
default ladder's eps_s scan slices that the optimizer ships (see
scan_valleys); name it as `_scan_valleys.py` to write it alone.  A file
whose bytes would not change is left as it is, mtime included.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
SCAN_VALLEYS = REPO / "src" / "bsbound" / "_scan_valleys.py"

CASES = {
    "eval_point.csv": [
        "eval", "--eps-s", "6.2", "--gamma", "1e-3", "--omega", "1e-3",
        "--thickness", "500",
    ],
    "eval_point.jsonl": [
        "eval", "--eps-s", "6.2", "--gamma", "1e-3", "--omega", "1e-3",
        "--thickness", "500", "--format", "json",
    ],
    "sweep_small.csv": [
        "sweep", "--x-min", "0.5", "--x-max", "2", "--points", "3", "--log",
    ],
    "minimize_reflective.csv": ["minimize", "--x", "0.05"],
    "minimize_single_level.csv": ["minimize", "--x", "1", "--refine-levels", "1"],
    "minimize_three_levels.csv": ["minimize", "--x", "1", "--refine-levels", "3"],
    "bound_headline.csv": ["bound", "--x", "1", "--omega", "0.1"],
}

SOLVER_GOLDEN = "solver_reprs.txt"
# extract_alpha ratios; at large x the ~1e-16 rounding of p is a visible
# share of alpha, so a phase root that moves in its last bits shows here
ALPHA_X = (0.05, 1.0, 10.0, 1e3, 1e6, 8.175e6)
# solve_thickness_for_ratio points, each on both branches
THICKNESS_EPS_S = (1.5, 6.2, 80.0)
THICKNESS_X = (0.05, 1.0, 30.0)


def _field_lines(name: str, value: object):
    """'name.field = repr' lines of a result, skipping the evaluation count."""
    if hasattr(value, "_fields"):
        for field, item in zip(value._fields, value):
            if field != "slab_evaluations":
                yield from _field_lines(f"{name}.{field}", item)
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _field_lines(f"{name}[{i}]", item)
    else:
        yield f"{name} = {value!r}"


def solver_reprs() -> str:
    """The repr of every solver result field but diagnostics.slab_evaluations.

    The evaluation count is left out so that a change which saves
    evaluations without moving a bit of the results keeps this golden.
    """
    from bsbound.optimizer import extract_alpha, solve_thickness_for_ratio

    lines = []
    for x in ALPHA_X:
        lines += _field_lines(f"extract_alpha({x!r})", extract_alpha(x))
    for eps_s in THICKNESS_EPS_S:
        for x in THICKNESS_X:
            for branch in ("first", "second"):
                d = solve_thickness_for_ratio(eps_s, x, branch=branch)
                lines.append(f"solve_thickness_for_ratio({eps_s!r}, {x!r}, {branch!r}) = {d!r}")
    return "\n".join(lines) + "\n"


def scan_valleys() -> str:
    """Source of bsbound._scan_valleys, every row _new_valley(...).row.

    One tuple per level of DEFAULT_LEVELS, one row per slice of
    _scan_grid(EPS_S_MAX); the rows never come from the shipped table.
    """
    from bsbound import optimizer as opt

    grid = opt._scan_grid(opt.EPS_S_MAX)
    lines = [
        '"""Valleys of the eps_s scan slices of the default alpha ladder.',
        "",
        "Generated by scripts/make_goldens.py with optimizer._new_valley; do",
        "not edit.  VALLEYS[level][k] is the _Valley.row, (phi_valley,",
        "ln_x_valley, ln_x_lo, ln_x_hi), of the slice at (_scan_grid(EPS_S_MAX)[k],",
        "*DEFAULT_LEVELS[level]).  The rows depend on slab.working_index,",
        "slab._airy_factors, slab._kernel, the golden search and these",
        "constants of bsbound.optimizer:",
        "",
        f"    DEFAULT_LEVELS = {opt.DEFAULT_LEVELS!r}",
        f"    EPS_S_MIN = {opt.EPS_S_MIN!r}",
        f"    EPS_S_MAX = {opt.EPS_S_MAX!r}",
        f"    _SCAN_POINTS = {opt._SCAN_POINTS!r}",
        f"    _PHI_LO = {opt._PHI_LO!r}",
        f"    _PHI_HI = {opt._PHI_HI!r}",
        f"    _GOLDEN_RTOL = {opt._GOLDEN_RTOL!r}",
        f"    _INVPHI = {opt._INVPHI!r}",
        "",
        "The optimizer loads the table on its first lookup at a default level.",
        "It then searches the last row of each level (eps_s at the top of the scan",
        "grid) again, and leaves the table empty if any field differs.  A valley",
        "built from a row costs no slab evaluation.",
        '"""',
        "",
        "VALLEYS = (",
    ]
    for gamma_tilde, omega_tilde in opt.DEFAULT_LEVELS:
        lines.append("    (")
        for eps_s in grid:
            row = opt._new_valley(eps_s, gamma_tilde, omega_tilde).row
            if not all(map(math.isfinite, row)):
                raise ValueError(f"non-finite valley {row} at eps_s={eps_s!r}")
            lines.append(f"        ({', '.join(map(repr, row))}),")
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    """Write text to path unless the file already holds exactly its bytes.

    A file left alone keeps its mtime, so the bytecode Python cached for
    _scan_valleys.py stays valid.
    """
    data = text.encode()
    if path.is_file() and path.read_bytes() == data:
        print(f"unchanged {path}")
    else:
        path.write_bytes(data)
        print(f"wrote {path}")


def main(names: list[str]) -> None:
    unknown = set(names) - set(CASES) - {SOLVER_GOLDEN, SCAN_VALLEYS.name}
    if unknown:
        sys.exit(f"unknown golden(s): {', '.join(sorted(unknown))}")
    sys.path.insert(0, str(REPO / "src"))
    if not names or SCAN_VALLEYS.name in names:
        # written first, so the goldens below are made with the new table
        _write(SCAN_VALLEYS, scan_valleys())
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, args in CASES.items():
        if names and name not in names:
            continue
        out = subprocess.run(
            [sys.executable, "-m", "bsbound", *args],
            capture_output=True, text=True, env=env, check=True,
        )
        _write(GOLDEN / name, out.stdout)
    if not names or SOLVER_GOLDEN in names:
        _write(GOLDEN / SOLVER_GOLDEN, solver_reprs())


if __name__ == "__main__":
    main(sys.argv[1:])
