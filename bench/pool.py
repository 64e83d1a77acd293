"""The process-pool layer: `optimizer.sweep` over the README's 41-point log
grid on [0.01, 100], at jobs=1 and at jobs=2, measured in the traced run of
`solve`.

A timed `sweep-pool` workload was tried and left out: on the shared 2-core
host the benchmark was tuned on, its median sweep times spread by 9-12%
between runs even after host-speed normalization, against 2-6% for `solve`
and `cli-cold`.  So the pool gets per-layer figures here and no gated
metric.  Spans inside forked pool workers are not recorded.
"""

from __future__ import annotations

import statistics

from bsbound import optimizer

from common import REFERENCE, TOL, Tally, clock, close

ROWS = REFERENCE["sweep"]
TINY_ROWS = ROWS[::10]


def _check_rows(tally: Tally, label: str, rows, reference: list[list]) -> None:
    if len(rows) != len(reference):
        tally.mismatch(f"{label}: {len(rows)} rows, reference has {len(reference)}")
    for row, (x, alpha, *_, feasible) in zip(rows, reference):
        if row.x != x or row.feasible != feasible or (
            feasible and not close(row.alpha, alpha, TOL["alpha_rtol"])
        ):
            tally.mismatch(f"{label}: row x={row.x!r} gives feasible={row.feasible} "
                           f"alpha={row.alpha!r}, reference {feasible} {alpha!r}")
        else:
            tally.ok()


def _sweep(reference: list[list], jobs: int, tally: Tally):
    """(seconds, rows or None) of one checked sweep."""
    xs = [r[0] for r in reference]
    start = clock()
    try:
        rows = optimizer.sweep(xs, jobs=jobs)
    except Exception as exc:  # noqa: BLE001 - counted, never skipped
        tally.raised(exc, count=len(xs))
        return clock() - start, None
    seconds = clock() - start
    _check_rows(tally, f"sweep jobs={jobs}", rows, reference)
    return seconds, rows


def pool_layers(tally: Tally, tiny: bool) -> dict[str, float]:
    """A jobs=1 sweep that records one span per row, then an untraced jobs=2
    sweep.  A row span costs one wrapper per 30-60 ms row, so the jobs=1
    sweep times both the pool's serial baseline and its rows.  Every row is
    checked against the reference, and the two job counts must give
    identical rows."""
    from tracer import Tracer

    reference = TINY_ROWS if tiny else ROWS
    row_tracer = Tracer(kernels=False)
    with row_tracer.installed():
        t_j1, rows_j1 = _sweep(reference, 1, tally)
    t_j2, rows_j2 = _sweep(reference, 2, tally)
    if repr(rows_j1) != repr(rows_j2):
        tally.mismatch("sweep rows differ between jobs=1 and jobs=2")

    row_s = [s["end"] - s["start"] for s in row_tracer.named("minimize")]
    return {
        "pool.scaling_efficiency": t_j1 / (2.0 * t_j2),
        "pool.row_ms_max": 1e3 * max(row_s),
        "pool.row_ms_mean": 1e3 * statistics.mean(row_s),
        "pool.overhead_s": t_j2 - sum(row_s) / 2.0,
        "pool.sweep_rows_per_s_j1": len(reference) / t_j1,
        "pool.sweep_rows_per_s_j2": len(reference) / t_j2,
    }
