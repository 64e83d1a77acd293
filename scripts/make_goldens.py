"""Regenerate the golden CLI outputs under tests/golden/.

Run after any intentional format change, then review the diff.  With file
names as arguments (`python scripts/make_goldens.py bound_headline.csv`)
only those goldens are written.
"""

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


def main(names: list[str]) -> None:
    unknown = set(names) - set(CASES)
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


if __name__ == "__main__":
    main(sys.argv[1:])
