"""Spans and per-call aggregates recorded from outside the bsbound package.

The tracer replaces public functions of the bsbound modules with timing
wrappers for the length of a `with tracer.installed():` block and restores
them afterwards.  Layer boundaries (an operation, a minimize, the alpha
ladder, a sweep, `cli.main`) become spans with a start, an end and a parent.
The per-call kernels (`working_index`, `refractive_index`, `transmission`,
`reflection`, `evaluate` and the line-width functions) take 1-10 us each,
so they do not become spans: each keeps a call count and a self time,
aggregated per enclosing span.  `brentq` is only counted, so its time stays
in the self time of the minimize that called it.

Self time is a frame's duration minus the time its child frames covered.
Spans inside forked pool workers are not recorded.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from typing import Callable, Iterator, Optional

import bsbound.cli
import bsbound.linewidth
import bsbound.optimizer
import bsbound.slab

_clock = time.perf_counter

# (module, attribute, span name)
_SPANS = (
    (bsbound.cli, "main", "cli.main"),
    (bsbound.optimizer, "extract_alpha", "ladder"),
    (bsbound.optimizer, "minimize_absorption", "minimize"),
    (bsbound.optimizer, "sweep", "sweep"),
)
# (module, attribute, aggregate name); the same function is patched in every
# module that binds it, because bsbound imports kernels by name
_KERNELS = (
    (bsbound.slab, "refractive_index", "refractive_index"),
    (bsbound.slab, "working_index", "working_index"),
    (bsbound.optimizer, "working_index", "working_index"),
    (bsbound.slab, "transmission", "transmission"),
    (bsbound.optimizer, "transmission", "transmission"),
    (bsbound.slab, "reflection", "reflection"),
    (bsbound.optimizer, "reflection", "reflection"),
    (bsbound.slab, "evaluate", "evaluate"),
    (bsbound.linewidth, "scaled_linewidth_bound", "linewidth"),
    (bsbound.linewidth, "min_absorption_probability", "linewidth"),
)
_COUNTED = ((bsbound.optimizer, "brentq", "brentq"),)


def _diagnostics(result) -> dict:
    diag = getattr(result, "diagnostics", None)
    if diag is None:
        return {}
    return {
        "slab_evaluations": diag.slab_evaluations,
        "scan_feasible": diag.scan_feasible,
        "refine_iterations": diag.refine_iterations,
    }


class Tracer:
    """In-memory spans plus kernel aggregates; see the module docstring.

    With kernels=False only the spans are installed, which costs one wrapper
    per span-level call and leaves kernel time inside its span's self time.
    """

    def __init__(self, kernels: bool = True) -> None:
        self.kernels = kernels
        self.t0 = _clock()
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        # one [child seconds] cell per open span or kernel call
        self._frames: list[list[float]] = [[0.0]]
        self._open: list[dict] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record the enclosed block as a span; yields its record."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": 0.0,
            "end": 0.0,
            "self_s": 0.0,
            "kernels": {},
        }
        self.spans.append(record)
        frame = [0.0]
        self._frames.append(frame)
        self._open.append(record)
        start = _clock()
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            end = _clock()
            self._open.pop()
            self._frames.pop()
            self._frames[-1][0] += end - start
            record["start"] = start - self.t0
            record["end"] = end - self.t0
            record["self_s"] = end - start - frame[0]

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if name == "minimize":
                    record.update(_diagnostics(result))
                return result

        return wrapper

    def _kernel_wrapper(self, name: str, fn: Callable) -> Callable:
        frames = self._frames
        open_spans = self._open

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                frames.pop()
                frames[-1][0] += dur
                # every traced call runs inside an operation span
                agg = open_spans[-1]["kernels"].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dur - frame[0]

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch the bsbound functions for the enclosed block."""
        plan = [(m, a, self._span_wrapper(n, getattr(m, a))) for m, a, n in _SPANS]
        if self.kernels:
            plan += [(m, a, self._kernel_wrapper(n, getattr(m, a))) for m, a, n in _KERNELS]
            plan += [(m, a, self._count_wrapper(n, getattr(m, a))) for m, a, n in _COUNTED]
        saved = [(m, a, getattr(m, a)) for m, a, _ in plan]
        try:
            for module, attr, wrapper in plan:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    # -- summaries -------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def kernel_totals(self, spans: Optional[list[dict]] = None) -> dict[str, list]:
        """name -> [calls, self seconds] summed over the given spans (default all)."""
        totals: dict[str, list] = {}
        for record in self.spans if spans is None else spans:
            for name, (calls, self_s) in record["kernels"].items():
                agg = totals.setdefault(name, [0, 0.0])
                agg[0] += calls
                agg[1] += self_s
        return totals

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}
