"""Workload `solve`: alpha extraction, single-level minimization and slab
evaluation, in process on one thread.

Each draw makes one `extract_alpha` call with the default ladder at a ratio
from [1e-4, 1e7), and one `minimize_absorption` call at another ratio with
`gamma_tilde` and `omega_tilde` from [1e-4, 1e-1]; after every feasible
optimum, a thickness-tolerance scan calls `slab.evaluate` at 41 points
within 1% of d*.  The range holds infeasible ratios (cheap) and no ratio
where the program raised when the reference was made, so no operation of
the timed loop is expected to fail.

Above about 1.7e7 the program raises RuntimeError (ROADMAP item 4).  That
defect is shown by a fixed probe after the timed window: the same calls at
three ratios in [3e7, 1e9], whose raises are reported on their own line.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import defaultdict
from itertools import islice
from typing import Iterator, Optional

from bsbound import optimizer, slab

from common import (REFERENCE, TOL, Measured, Tally, clock, close, compute_speed,
                    latency_lines, no_span, timed_call)
from probes import SetupProbes

# the drawn domain ends below the ratios where the program raised
DOMAIN_MAX_X = 1e7
ALPHA = [e for e in REFERENCE["alpha"] if e["x"] < DOMAIN_MAX_X]
MINIMIZE = [e for e in REFERENCE["minimize"] if e["x"] < DOMAIN_MAX_X]
# (alpha entry, minimize entry) at the reference ratios nearest these
DEFECT_PROBE_X = (10 ** 7.5, 1e8, 1e9)
LEVEL = optimizer.DEFAULT_LEVELS[-1]  # (gamma, omega) of the reported alpha
SCAN_POINTS = 41
SCAN_HALF_WIDTH = 0.01
FAILING_REGION_X = 3e7
TRACE_DRAWS = 11


def _decade(x: float) -> int:
    return math.floor(math.log10(x))


def _by_decade(entries: list[dict]) -> list[list[int]]:
    groups: dict[int, list[int]] = defaultdict(list)
    for i, entry in enumerate(entries):
        groups[_decade(entry["x"])].append(i)
    return [groups[d] for d in sorted(groups)]


def draws(seed: int) -> Iterator[tuple[dict, dict]]:
    """Endless seeded sequence of (alpha entry, minimize entry) pairs.

    Stratified by decade: every block of 11 draws takes one ratio from each
    decade in a seeded order, and no ratio repeats before every ratio of its
    decade has been drawn.
    """
    rng = random.Random(seed)
    orders = [
        [rng.sample(group, len(group)) for group in _by_decade(entries)]
        for entries in (ALPHA, MINIMIZE)
    ]
    block = 0
    while True:
        picks = []
        for per_decade in orders:
            row = [order[block % len(order)] for order in per_decade]
            rng.shuffle(row)
            picks.append(row)
        for i, j in zip(*picks):
            yield ALPHA[i], MINIMIZE[j]
        block += 1


def _check(tally: Tally, label: str, entry: dict, res, exc, gamma: float,
           omega: float, constraint_rtol: float) -> None:
    """Compare one result with the reference and with the slab model."""
    if exc is not None:
        tally.raised(exc)
        return
    outcome = entry["outcome"]
    # a ratio that raised when the table was made has no reference answer;
    # whatever the program returns now is checked against the slab model only
    if outcome != "raised" and res.feasible != (outcome == "feasible"):
        tally.mismatch(f"{label}: feasible={res.feasible}, reference {outcome}")
        return
    if not res.feasible:
        tally.ok()
        return
    final = res.results[-1] if isinstance(res, optimizer.AlphaExtraction) else res
    # eps_s* is not compared with the reference: the minimum is flat in
    # eps_s, so another solver may land on another point of equal p_min
    if outcome == "feasible" and not close(res.alpha, entry["alpha"], TOL["alpha_rtol"]):
        tally.mismatch(f"{label}: alpha={res.alpha!r}, reference {entry['alpha']!r}")
        return
    resp = slab.evaluate(slab.ScaledSlabParams(
        omega_tilde=omega, gamma_tilde=gamma, d=final.d_star, eps_s=final.eps_s_star))
    if not (close(resp.x, entry["x"], constraint_rtol)
            and close(resp.p, final.p_min, TOL["p_rtol"])):
        tally.mismatch(f"{label}: evaluate at the optimum gives x={resp.x!r} "
                       f"p={resp.p!r}, want x={entry['x']!r} p={final.p_min!r}")
        return
    tally.ok()


def _scan(final, gamma: float, omega: float, evals: list[float]) -> list[tuple]:
    """`slab.evaluate` at SCAN_POINTS thicknesses within 1% of d*, each timed."""
    out = []
    for k in range(SCAN_POINTS):
        d = final.d_star * (1.0 - SCAN_HALF_WIDTH + 2 * SCAN_HALF_WIDTH * k / (SCAN_POINTS - 1))
        params = slab.ScaledSlabParams(
            omega_tilde=omega, gamma_tilde=gamma, d=d, eps_s=final.eps_s_star)
        start = clock()
        resp = slab.evaluate(params)
        evals.append(clock() - start)
        out.append((resp.p, resp.x))
    return out


def _check_scan(tally: Tally, label: str, points: list[tuple]) -> None:
    if all(0.0 < p < 1.0 and 0.0 < x < math.inf for p, x in points):
        tally.ok()
    else:
        tally.mismatch(f"{label}: tolerance scan left (0, 1) or gave a bad ratio")


def run_draw(a_entry: dict, m_entry: dict, samples: dict[str, list[float]],
             tally: Optional[Tally], span) -> list:
    """One draw; checks every output when a tally is given.  Returns the
    outputs, for comparing a traced pass with an untraced one."""
    outputs = []
    x = a_entry["x"]
    with span("op.alpha"):
        seconds, res, exc = timed_call(optimizer.extract_alpha, x)
    samples["alpha"].append(seconds)
    outputs.append(repr(exc) if exc else repr(res))
    if tally is not None:
        _check(tally, f"extract_alpha({x!r})", a_entry, res, exc, *LEVEL,
               optimizer.MinimizeConfig(x_target=x).constraint_rtol)
    optima = [(res.results[-1], *LEVEL)] if exc is None and res.feasible else []

    cfg = optimizer.MinimizeConfig(
        x_target=m_entry["x"], gamma_tilde=m_entry["gamma"], omega_tilde=m_entry["omega"])
    with span("op.minimize"):
        seconds, res, exc = timed_call(optimizer.minimize_absorption, cfg)
    samples["minimize"].append(seconds)
    outputs.append(repr(exc) if exc else repr(res))
    if tally is not None:
        _check(tally, f"minimize_absorption({cfg})", m_entry, res, exc,
               cfg.gamma_tilde, cfg.omega_tilde, cfg.constraint_rtol)
    if exc is None and res.feasible:
        optima.append((res, cfg.gamma_tilde, cfg.omega_tilde))

    for final, gamma, omega in optima:
        with span("op.scan"):
            points = _scan(final, gamma, omega, samples["eval"])
        outputs.append(points)
        if tally is not None:
            _check_scan(tally, f"scan at eps_s={final.eps_s_star!r}", points)
    return outputs


def _nearest(entries: list[dict], x: float) -> dict:
    return min(entries, key=lambda e: abs(math.log(e["x"] / x)))


DEFECT_PROBE = [(_nearest(REFERENCE["alpha"], x), _nearest(REFERENCE["minimize"], x))
                for x in DEFECT_PROBE_X]


def defect_probe(tally: Tally) -> tuple[int, int]:
    """Run the fixed draws above the domain; return (calls, RuntimeErrors).

    A RuntimeError there is the known defect of ROADMAP item 4: it is
    reported on its own line and kept out of the tally, so that a fix shows
    as a drop to 0.  Any other outcome is checked and counted like a drawn
    operation, so another exception or a wrong answer is still a failure.
    """
    probe = Tally()
    samples: dict[str, list[float]] = {"alpha": [], "minimize": [], "eval": []}
    for a_entry, m_entry in DEFECT_PROBE:
        run_draw(a_entry, m_entry, samples, probe, no_span)
    known = probe.errors.pop("RuntimeError", 0)
    tally.attempted += probe.attempted - known
    tally.failed += probe.failed - known
    tally.errors.update(probe.errors)
    tally.wrong += probe.wrong
    return len(samples["alpha"]) + len(samples["minimize"]), known


def _input_shares(drawn: list[tuple[dict, dict]]) -> dict:
    shares = {}
    for kind, entries in (("alpha", [a for a, _ in drawn]), ("minimize", [m for _, m in drawn])):
        n = len(entries) or 1
        decades: dict[str, int] = defaultdict(int)
        for e in entries:
            decades[f"1e{_decade(e['x'])}"] += 1
        shares[kind] = {
            "draws": len(entries),
            "infeasible_share": sum(e["outcome"] == "infeasible" for e in entries) / n,
            "failing_region_share": sum(e["x"] >= FAILING_REGION_X for e in entries) / n,
            "raised_at_reference_share": sum(e["outcome"] == "raised" for e in entries) / n,
            "decade_share": {d: c / n for d, c in decades.items()},
        }
    return shares


def measure(seconds: float, seed: int, tiny: bool, setups: SetupProbes) -> Measured:
    tally = Tally()
    speed = compute_speed()
    samples: dict[str, list[float]] = {"alpha": [], "minimize": [], "eval": []}
    tags: dict[str, list[int]] = {kind: [] for kind in samples}
    drawn = []
    deadline = clock() + seconds
    for a_entry, m_entry in draws(seed):
        # at least one evaluate sample, so that every metric has a value
        if clock() >= deadline and samples["eval"]:
            break
        setups.run_due()
        tag = speed.sample()
        run_draw(a_entry, m_entry, samples, tally, no_span)
        for kind, values in samples.items():
            tags[kind] += [tag] * (len(values) - len(tags[kind]))
        drawn.append((a_entry, m_entry))
    calls, known = defect_probe(tally)
    probe_x = ", ".join(f"{a['x']:.3g}" for a, _ in DEFECT_PROBE)

    def norm(kind: str) -> float:
        return statistics.median(speed.normalized(list(zip(samples[kind], tags[kind]))))

    return Measured(
        tally=tally,
        gated={
            "main_p50_ms": norm("alpha") * 1e3,
            "aux_p50_ms": norm("eval") * 1e3,
        },
        named=(latency_lines("alpha_ms", samples["alpha"], "ms", 1e3)
               + latency_lines("minimize_ms", samples["minimize"], "ms", 1e3)
               + latency_lines("eval_us", samples["eval"], "us", 1e6)
               + [("defect_runtime_errors", known, "count",
                   f"of {calls} calls at x = {probe_x}, ROADMAP item 4; "
                   "not in attempted/failed")]),
        inputs=_input_shares(drawn),
    )


def trace(seed: int, tiny: bool) -> Measured:
    """The first block of draws, untraced and traced, then the pool layer."""
    from layers import layer_metrics, untraced_and_traced
    from pool import pool_layers

    fixed = list(islice(draws(seed), 4 if tiny else TRACE_DRAWS))
    samples: dict[str, list[float]] = defaultdict(list)

    def run_all(span, check: Optional[Tally]) -> tuple[float, list]:
        start = clock()
        outputs = [run_draw(a, m, samples, check, span) for a, m in fixed]
        return clock() - start, outputs

    tally = Tally()
    tracer, traced_s, untraced_s = untraced_and_traced(run_all, tally, "solve")
    return Measured(
        tally=tally, gated={}, inputs=_input_shares(fixed),
        layers=layer_metrics(tracer, traced_s, untraced_s, pool_layers(tally, tiny)),
        trace={**tracer.dump(), "note": "spans inside forked pool workers are not recorded"},
    )
