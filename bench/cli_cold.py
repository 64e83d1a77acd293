"""Workload `cli-cold`: `bsbound --constants` and `bsbound bound --x 1
--omega 0.1` as fresh processes, one at a time.

Interpreter start and imports take most of each call, so import trimming
shows here; the optimizer runs only in `bound`, so `--constants` is the
control for an optimizer change.  The arguments are fixed; the seed only
orders each constants/bound pair.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
import statistics
from typing import Optional

import probes
from common import REFERENCE, TOL, Measured, Tally, clock, close

CONSTANTS = ["--constants"]
BOUND = REFERENCE["cli"]["bound_args"]


def _bound_fields(stdout: str) -> dict[str, str]:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, got {len(rows)}")
    return rows[0]


def check_output(tally: Tally, args: list[str], code: int, stdout: str) -> None:
    label = "bsbound " + " ".join(args)
    if code != 0:
        tally.mismatch(f"{label}: exit code {code}")
        return
    if args == CONSTANTS:
        if stdout != REFERENCE["cli"]["constants"]:
            tally.mismatch(f"{label}: output differs from the reference")
            return
        tally.ok()
        return
    try:
        got = _bound_fields(stdout)
        ref = _bound_fields(REFERENCE["cli"]["bound"])
        p_min = float(got["p_min"])
        good = (
            got["feasible"] == "true"
            and 0.5e-10 < p_min < 2e-10
            and close(p_min, float(ref["p_min"]), TOL["alpha_rtol"])
            and close(float(got["alpha"]), float(ref["alpha"]), TOL["alpha_rtol"])
        )
    except (KeyError, ValueError) as exc:
        tally.mismatch(f"{label}: unreadable output ({exc})")
        return
    if good:
        tally.ok()
    else:
        tally.mismatch(f"{label}: p_min={got['p_min']} alpha={got['alpha']}")


def measure(seconds: float, seed: int, tiny: bool, setups: probes.SetupProbes) -> Measured:
    rng = random.Random(seed)
    tally = Tally()
    speed = probes.process_speed()
    times: dict[str, list[tuple[float, int]]] = {"constants": [], "bound": []}
    deadline = clock() + seconds
    while clock() < deadline:
        pair = [("constants", CONSTANTS), ("bound", BOUND)]
        rng.shuffle(pair)
        for kind, args in pair:
            setups.run_due()
            tag = speed.sample()
            wall, proc = probes.cli(args)
            times[kind].append((wall, tag))
            check_output(tally, args, proc.returncode, proc.stdout)
    med = {kind: statistics.median(t for t, _ in ts) for kind, ts in times.items()}
    norm = {kind: statistics.median(speed.normalized(ts)) for kind, ts in times.items()}
    return Measured(
        tally=tally,
        gated={
            "main_p50_ms": norm["bound"] * 1e3,
            "aux_p50_ms": norm["constants"] * 1e3,
        },
        named=[
            ("cli_constants_s_p50", med["constants"], "s", f"n={len(times['constants'])}"),
            ("cli_bound_s_p50", med["bound"], "s", f"n={len(times['bound'])}"),
        ],
        inputs={"calls": {k: len(v) for k, v in times.items()}},
    )


def trace(seed: int, tiny: bool) -> Measured:
    """In-process `cli.main` calls with stdout captured, untraced and traced."""
    import bsbound.cli
    from layers import layer_metrics, untraced_and_traced

    rng = random.Random(seed)
    calls = [CONSTANTS, BOUND] * (1 if tiny else 3)
    rng.shuffle(calls)

    def run_all(span, check: Optional[Tally]) -> tuple[float, list[tuple[int, str]]]:
        # cli.main records its own span when traced
        outputs = []
        start = clock()
        for args in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = bsbound.cli.main(list(args))
            outputs.append((code, buf.getvalue()))
        seconds = clock() - start
        if check is not None:
            for args, (code, stdout) in zip(calls, outputs):
                check_output(check, args, code, stdout)
        return seconds, outputs

    tally = Tally()
    tracer, traced_s, untraced_s = untraced_and_traced(run_all, tally, "cli.main")
    mains = tracer.named("cli.main")
    extra = {"cli.main.self_ms": 1e3 * statistics.mean(s["self_s"] for s in mains)}
    return Measured(
        tally=tally, gated={},
        layers=layer_metrics(tracer, traced_s, untraced_s, extra),
        trace=tracer.dump(),
    )
