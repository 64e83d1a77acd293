"""Regenerate bench/reference.json, the answer table the benchmark checks against.

The table is the benchmark's input universe as well as its oracle: every
ratio the `solve` workload can draw, with the outcome the program gave when
the table was made (feasible with alpha and eps_s, infeasible, or raised),
the 41 rows of the sweep grid, and the two CLI outputs.

Run from the repository root, at the commit whose answers the table should
freeze:

    python3 bench/make_reference.py [--jobs 2]
"""

from __future__ import annotations

import argparse
import json
import math
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from bsbound import optimizer  # noqa: E402

# ratios log-spaced over [1e-4, 1e9]: 13 decades, 40 cell-centred points each
DECADES = range(-4, 9)
PER_DECADE = 40
# loss and frequency of the single-level minimize draws: log-uniform in [1e-4, 1e-1]
LOSS_RANGE = (-4.0, -1.0)
LOSS_SEED = 20050818
SWEEP_GRID = (0.01, 100.0, 41)
CLI_BOUND_ARGS = ["bound", "--x", "1", "--omega", "0.1"]

TOLERANCES = {
    "alpha_rtol": 1e-6,
    "p_rtol": 1e-6,
}


def ratio_grid() -> list[float]:
    return [
        10.0 ** (decade + (k + 0.5) / PER_DECADE)
        for decade in DECADES
        for k in range(PER_DECADE)
    ]


def _outcome(call) -> dict:
    try:
        res = call()
    except RuntimeError as exc:
        return {"outcome": "raised", "error": type(exc).__name__}
    if not res.feasible:
        return {"outcome": "infeasible"}
    final = res.results[-1] if isinstance(res, optimizer.AlphaExtraction) else res
    return {
        "outcome": "feasible",
        "alpha": res.alpha,
        "eps_s": final.eps_s_star,
        "d": final.d_star,
        "p_min": final.p_min,
    }


def alpha_entry(x: float) -> dict:
    return {"x": x, **_outcome(lambda: optimizer.extract_alpha(x))}


def minimize_entry(args: tuple[float, float, float]) -> dict:
    x, gamma, omega = args
    cfg = optimizer.MinimizeConfig(x_target=x, gamma_tilde=gamma, omega_tilde=omega)
    return {"x": x, "gamma": gamma, "omega": omega,
            **_outcome(lambda: optimizer.minimize_absorption(cfg))}


def sweep_grid() -> list[float]:
    lo, hi, n = SWEEP_GRID
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


def row_record(row: optimizer.SweepRow) -> list:
    def num(v: float):
        return None if math.isnan(v) else v
    return [row.x, num(row.alpha), num(row.eps_s_star), num(row.d_star),
            num(row.p_min), row.feasible]


def cli_stdout(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "bsbound", *args],
        capture_output=True, text=True, check=True, timeout=180,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    return proc.stdout


def dump(table: dict) -> str:
    """JSON with one list entry per line, so that a diff shows each change."""
    parts = []
    for key, value in table.items():
        if isinstance(value, list):
            body = ",\n".join("  " + json.dumps(item) for item in value)
            parts.append(f"{json.dumps(key)}: [\n{body}\n ]")
        else:
            parts.append(f"{json.dumps(key)}: {json.dumps(value)}")
    return "{\n " + ",\n ".join(parts) + "\n}\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    xs = ratio_grid()
    rng = random.Random(LOSS_SEED)
    triples = [(x, 10.0 ** rng.uniform(*LOSS_RANGE), 10.0 ** rng.uniform(*LOSS_RANGE))
               for x in xs]
    with ProcessPoolExecutor(args.jobs) as pool:
        alpha = list(pool.map(alpha_entry, xs, chunksize=8))
        minimize = list(pool.map(minimize_entry, triples, chunksize=8))
    rows = optimizer.sweep(sweep_grid())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    table = {
        "made_at_commit": commit or None,
        "tolerances": TOLERANCES,
        "alpha": alpha,
        "minimize": minimize,
        "sweep": [row_record(r) for r in rows],
        "cli": {
            "constants": cli_stdout(["--constants"]),
            "bound_args": CLI_BOUND_ARGS,
            "bound": cli_stdout(CLI_BOUND_ARGS),
        },
    }
    path = BENCH / "reference.json"
    path.write_text(dump(table))
    counts = {}
    for kind in ("alpha", "minimize"):
        for e in table[kind]:
            key = (kind, e["outcome"])
            counts[key] = counts.get(key, 0) + 1
    print(f"wrote {path}: {counts}")


if __name__ == "__main__":
    main()
