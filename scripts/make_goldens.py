"""Regenerate the golden outputs under tests/golden/.

Run after any intentional format change, then review the diff.  With file
names as arguments (`python scripts/make_goldens.py bound_headline.csv`)
only those goldens are written.  Besides the CLI outputs, SOLVER_GOLDEN
pins the repr of every solver result field (see solver_reprs).
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"

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
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            if field.name != "slab_evaluations":
                yield from _field_lines(f"{name}.{field.name}", getattr(value, field.name))
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


def main(names: list[str]) -> None:
    unknown = set(names) - set(CASES) - {SOLVER_GOLDEN}
    if unknown:
        sys.exit(f"unknown golden(s): {', '.join(sorted(unknown))}")
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
        (GOLDEN / name).write_text(out.stdout)
        print(f"wrote {GOLDEN / name}")
    if not names or SOLVER_GOLDEN in names:
        sys.path.insert(0, str(REPO / "src"))
        (GOLDEN / SOLVER_GOLDEN).write_text(solver_reprs())
        print(f"wrote {GOLDEN / SOLVER_GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:])
