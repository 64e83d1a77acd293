"""Traced and untraced passes over the same operations, and the per-layer
metrics computed from a traced pass."""

from __future__ import annotations

import statistics
from typing import Callable, Optional

from common import Tally, no_span
from tracer import Tracer


def untraced_and_traced(run: Callable, tally: Tally, label: str) -> tuple[Tracer, float, float]:
    """Run the same operations untraced and then traced, twice over.

    `run(span, tally)` runs the operations, checking them when given a
    tally, and returns (seconds, outputs).  Only the first untraced pass is
    checked; each traced pass must return the untraced outputs.  Returns the
    last tracer and the fastest traced and untraced times: the fastest of
    two keeps a slow spell of the host out of the tracing overhead.
    """
    untraced, traced = [], []
    for rep in range(2):
        seconds, outputs = run(no_span, tally if rep == 0 else None)
        untraced.append(seconds)
        tracer = Tracer()
        with tracer.installed():
            seconds, traced_outputs = run(tracer.span, None)
        traced.append(seconds)
        if traced_outputs != outputs:
            tally.mismatch(f"traced {label} outputs differ from the untraced outputs")
    return tracer, min(traced), min(untraced)


def _per_call_us(agg: list) -> float:
    calls, self_s = agg
    return 1e6 * self_s / calls if calls else 0.0


def layer_metrics(
    tracer: Tracer, traced_s: float, untraced_s: float, extra: Optional[dict] = None
) -> dict[str, float]:
    """Counts, self times and ratios per layer.

    Counts are totals over the traced pass; `optimizer.*` figures are means
    per minimize (per minimize that returned, for the diagnostics counters).
    Layers the pass did not use are left out.
    """
    totals = tracer.kernel_totals()
    none = [0, 0.0]
    minimizes = tracer.named("minimize")
    returned = [s for s in minimizes if "slab_evaluations" in s]
    under_min = tracer.kernel_totals(minimizes)
    kernel_calls = totals.get("transmission", none)[0]
    kernel_self = totals.get("transmission", none)[1] + totals.get("reflection", none)[1]
    min_kernel_self = (under_min.get("transmission", none)[1]
                       + under_min.get("reflection", none)[1])
    min_wall = sum(s["end"] - s["start"] for s in minimizes)
    slices = [s["kernels"].get("working_index", none)[0] for s in returned]
    evaluations = [s["slab_evaluations"] for s in returned]
    feasible = [s["scan_feasible"] for s in returned]

    out = {
        "dielectric.refractive_index.calls": totals.get("refractive_index", none)[0],
        "dielectric.refractive_index.self_us": _per_call_us(
            totals.get("refractive_index", none)),
        "slab.working_index.calls": totals.get("working_index", none)[0],
        "slab.working_index.self_us": _per_call_us(totals.get("working_index", none)),
        "slab.kernel.calls": kernel_calls,
        "slab.kernel.self_us": 1e6 * kernel_self / kernel_calls if kernel_calls else 0.0,
        "slab.kernel.share": min_kernel_self / min_wall if min_wall else 0.0,
        "optimizer.slab_evaluations": statistics.mean(evaluations) if returned else 0.0,
        "optimizer.scan_feasible": statistics.mean(feasible) if returned else 0.0,
        "optimizer.refine_iterations": (
            statistics.mean(s["refine_iterations"] for s in returned) if returned else 0.0),
        "optimizer.slices": statistics.mean(slices) if returned else 0.0,
        "optimizer.evals_per_slice": sum(evaluations) / sum(slices) if sum(slices) else 0.0,
        "optimizer.brentq.calls": tracer.counts["brentq"],
        "optimizer.scan_feasible_ratio": sum(feasible) / sum(slices) if sum(slices) else 0.0,
        "optimizer.minimize.self_ms": (
            1e3 * statistics.mean(s["self_s"] for s in minimizes) if minimizes else 0.0),
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    }
    if "evaluate" in totals:
        out["slab.evaluate.calls"] = totals["evaluate"][0]
        out["slab.evaluate.self_us"] = _per_call_us(totals["evaluate"])
    ladders = tracer.named("ladder")
    if ladders:
        ids = {s["id"] for s in ladders}
        out["optimizer.ladder.minimize_calls"] = sum(s["parent"] in ids for s in minimizes)
        out["optimizer.ladder.self_ms"] = 1e3 * statistics.mean(s["self_s"] for s in ladders)
    if "linewidth" in totals:
        out["linewidth.calls"] = totals["linewidth"][0]
        out["linewidth.self_us"] = _per_call_us(totals["linewidth"])
    out.update(extra or {})
    return out
