"""bsbound benchmark: one seeded workload, timed from outside, every output checked.

    python3 bench/run.py --workload {cli-cold,solve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/bsbound`.  With --trace 0
the run measures for S seconds with nothing patched and reports the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it runs a fixed,
seeded set of operations untraced and traced, twice in turn, and reports
the per-layer metrics, the tracing overhead and the import breakdown, and
writes the spans to bench/.out/.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import probes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

WORKLOADS = {"cli-cold": "cli_cold", "solve": "solve"}
# fresh set-ups per untraced run, spread over the measured window
SETUP_COUNT = 11

# what the shared end-to-end metrics time on each workload
ROLES = {
    "cli-cold": {
        "main_p50_ms": "`bsbound bound --x 1 --omega 0.1` as a fresh process",
        "aux_p50_ms": "`bsbound --constants` as a fresh process (control)",
    },
    "solve": {
        "main_p50_ms": "`extract_alpha` with the default ladder",
        "aux_p50_ms": "`slab.evaluate` in the tolerance scan",
    },
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _loadavg() -> float:
    text = _read("/proc/loadavg")
    return float(text.split()[0]) if text else float("nan")


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def host_stamp() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "loadavg_1m_start": _loadavg(),
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and repeat counts, for the smoke test")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bsbound" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout holding src/bsbound and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    found = importlib.util.find_spec("bsbound")
    if found is None or Path(found.origin).parent != SRC / "bsbound":
        print("error: bsbound does not resolve to the checkout's src/", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    stamp = {"seed": args.seed, "workload": args.workload, "host": host_stamp()}
    print(f"bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    workload = importlib.import_module(WORKLOADS[args.workload])
    if args.trace:
        repeats = 1 if args.tiny else 3
        measured = workload.trace(args.seed, args.tiny)
        values = dict(measured.layers)
        values.update(probes.import_breakdown(repeats))
        values["interp.bare_s"] = probes.bare_seconds(repeats + 2)
        wanted = spec["per_layer"]
    else:
        setups = probes.SetupProbes(1 if args.tiny else SETUP_COUNT, args.seconds)
        measured = workload.measure(args.seconds, args.seed, args.tiny, setups)
        values = dict(measured.gated)
        values["setup_s"], setup_wall = setups.finish()
        measured.named.append(
            ("setup_s_wall", setup_wall, "s", f"wall time, n={len(setups.wall)}"))
        values["peak_rss_mb"] = _peak_rss_mb()
        wanted = spec["end_to_end"]
    stamp["host"]["loadavg_1m_end"] = _loadavg()
    stamp["inputs"] = measured.inputs
    print("stamp: " + json.dumps(stamp, sort_keys=True))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    roles = ROLES[args.workload]
    for name, metric in metrics.items():
        role = f"  ({roles[name]})" if name in roles else ""
        print(f"metric {name} = {_fmt(metric['value'])} {metric['unit']}{role}")
    for name, value, unit, note in measured.named:
        print(f"named {name} = {_fmt(value)} {unit}  ({note})")
    for name in sorted(set(values) - set(metrics)):
        print(f"layer {name} = {_fmt(values[name])}")
    if args.trace and args.workload == "solve":
        print("note: spans inside forked pool workers are not recorded")

    tally = measured.tally
    correct = not tally.wrong
    errors = ", ".join(f"{k}: {v}" for k, v in sorted(tally.errors.items())) or "none"
    print(f"verification: {'PASS' if correct else 'FAIL'}  attempted={tally.attempted} "
          f"failed={tally.failed} raised=[{errors}] wrong={len(tally.wrong)} "
          f"failed_frac={tally.failed / max(tally.attempted, 1):.4f}")
    for message in tally.wrong[:20]:
        print(f"  wrong: {message}")

    if measured.trace is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"stamp": stamp, **measured.trace}))
        print(f"trace written to {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
