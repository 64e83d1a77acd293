"""Shared pieces of the workloads: the reference table, the operation tally,
the host-speed probe and the summary statistics."""

from __future__ import annotations

import cmath
import contextlib
import json
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
REFERENCE = json.loads((BENCH / "reference.json").read_text())
TOL = REFERENCE["tolerances"]

clock = time.perf_counter


@dataclass(frozen=True)
class _Point:
    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.b > 0:
            raise ValueError("b must be positive")


def _snippet() -> complex:
    # frozen-dataclass construction, attribute access and complex square
    # roots and exponentials: the mix of the slab kernel, but not its code
    z = 0j
    for k in range(60):
        point = _Point(k * 1e-3, 1.5)
        n = cmath.sqrt(complex(point.b, point.a))
        z = z * 0.5 + cmath.exp(1j * n * point.a) / (1 + n)
    return z


def compute_probe() -> float:
    """Best of 3 timings of the snippet, in seconds."""
    best = math.inf
    for _ in range(3):
        start = clock()
        _snippet()
        best = min(best, clock() - start)
    return best


class HostSpeed:
    """Host speed, sampled by a probe that runs no bsbound code.

    On a shared host the same computation can take twice as long from one
    minute to the next.  Each timed operation is tagged with the index of the
    probe sample taken just before it, and `normalized` rescales it to a host
    on which the probe takes `reference_s`, using the median of the WINDOW
    samples nearest to it.  A slow spell of the host then does not read as a
    slow program, while a faster program still reads as faster.
    """

    WINDOW = 9

    def __init__(self, probe: Callable[[], float], reference_s: float) -> None:
        self.probe = probe
        self.reference_s = reference_s
        self.samples: list[float] = []

    def sample(self) -> int:
        self.samples.append(self.probe())
        return len(self.samples) - 1

    def normalized(self, timed: list[tuple[float, int]]) -> list[float]:
        """Seconds rescaled to the reference speed, for (seconds, sample index) pairs."""
        half = self.WINDOW // 2
        return [
            seconds * self.reference_s
            / statistics.median(self.samples[max(i - half, 0):i + half + 1])
            for seconds, i in timed
        ]


def compute_speed() -> HostSpeed:
    """Speed of in-process Python, scaled to a 100 us snippet."""
    return HostSpeed(compute_probe, 100e-6)


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure.

    An operation fails when it raises, exits with the wrong code, or its
    output fails a check.  Only the last kind makes a run incorrect; the
    raising kind is a failure the program reports, which the benchmark
    counts and does not hide.
    """

    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    wrong: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def raised(self, exc: BaseException, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.errors[type(exc).__name__] += count

    def mismatch(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong.append(message)


@dataclass
class Measured:
    """What one workload run hands back to run.py.

    `gated` holds the workload's values of the end-to-end metrics shared by
    every workload, normalized to the reference host speed; `named` holds
    (name, value, unit, note) lines of raw wall times printed under the
    workload's own metric names.
    """

    tally: Tally
    gated: dict[str, float]
    named: list[tuple] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    trace: Optional[dict] = None


def no_span(name: str):
    """Stand-in for Tracer.span when nothing is traced."""
    return contextlib.nullcontext()


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def timed_call(fn: Callable, *args):
    """(seconds, result, exception) of fn(*args).

    Any exception is caught and handed back, so that the operation is
    counted as failed and the run goes on.
    """
    start = clock()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - counted, never skipped
        return clock() - start, None, exc
    return clock() - start, result, None


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)]


def latency_lines(name: str, samples: list[float], unit: str, scale: float) -> list[tuple]:
    """Median plus the highest of p99.9/p99/p90 with ten samples beyond it.

    The tail is dropped when the run has fewer than 100 samples.
    """
    n = len(samples)
    lines = [(f"{name}_p50", statistics.median(samples) * scale, unit, f"n={n}")]
    for p in (99.9, 99.0, 90.0):
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= 10:
            lines.append((f"{name}_p{p:g}", percentile(samples, p) * scale, unit,
                          f"n={n}, {beyond} beyond"))
            break
    return lines
