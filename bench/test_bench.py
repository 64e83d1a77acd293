"""Smoke tests of the benchmark: tiny runs of every workload, traced and
untraced, plus the checks, the tracer and the import-time parser.

    python3 -m pytest bench/test_bench.py -q

They are outside the repository's tier-1 suite (pytest's testpaths) and
take under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import probes  # noqa: E402
from common import Tally, latency_lines, no_span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("optimizer.slab_evaluations", "optimizer.slices", "slab.working_index.calls",
         "slab.kernel.calls", "import.modules")


def run_bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT,
              script: Path = BENCH / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, trace=0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert metric["value"] > 0 and math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_writes_the_trace(workload):
    proc = run_bench(workload, trace=1)
    result = result_of(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "trace.overhead_pct" in result["metrics"]
    trace = json.loads((BENCH / ".out" / f"trace-{workload}-seed7.json").read_text())
    names = {s["name"] for s in trace["spans"]}
    assert "minimize" in names
    assert all(s["end"] >= s["start"] for s in trace["spans"])
    layer = "cli.main.self_ms" if workload == "cli-cold" else "pool.scaling_efficiency"
    assert f"layer {layer} = " in proc.stdout


def test_exact_counters_repeat_between_traced_runs():
    first, second = (result_of(run_bench("solve", trace=1))["metrics"] for _ in range(2))
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = run_bench("solve", trace=0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_checks_count_raises_and_catch_wrong_answers():
    import solve

    raised = next(a for a, _ in solve.DEFECT_PROBE if a["outcome"] == "raised")
    feasible = next(e for e in solve.MINIMIZE if e["outcome"] == "feasible")
    tally = Tally()
    samples = {"alpha": [], "minimize": [], "eval": []}
    solve.run_draw(raised, feasible, samples, tally, no_span)
    assert tally.errors["RuntimeError"] == 1 and not tally.wrong
    assert tally.attempted == 3  # alpha raised, minimize ok, one scan ok

    off = dict(feasible, alpha=feasible["alpha"] * (1 + 1e-3))
    tally = Tally()
    solve.run_draw(feasible | {"x": 1.0, "outcome": "infeasible"}, off, samples, tally,
                   no_span)
    assert len(tally.wrong) == 2  # feasibility flag and alpha both disagree


def test_drawn_domain_has_no_raising_ratio_and_the_probe_reports_them():
    import solve

    assert all(e["outcome"] != "raised" for e in solve.ALPHA + solve.MINIMIZE)
    tally = Tally()
    calls, known = solve.defect_probe(tally)
    assert calls == 2 * len(solve.DEFECT_PROBE_X)
    assert known == sum(e["outcome"] == "raised"
                        for pair in solve.DEFECT_PROBE for e in pair)
    assert tally.failed == 0 and not tally.wrong


def test_checks_accept_another_eps_s_with_the_same_minimum():
    import solve
    from bsbound import optimizer

    entry = next(e for e in solve.MINIMIZE if e["outcome"] == "feasible")
    cfg = optimizer.MinimizeConfig(
        x_target=entry["x"], gamma_tilde=entry["gamma"], omega_tilde=entry["omega"])
    res = optimizer.minimize_absorption(cfg)
    tally = Tally()
    solve._check(tally, "minimize", dict(entry, eps_s=entry["eps_s"] * 1.2), res, None,
                 cfg.gamma_tilde, cfg.omega_tilde, cfg.constraint_rtol)
    assert tally.attempted == 1 and not tally.wrong


def test_sweep_check_counts_missing_rows():
    import pool

    tally = Tally()
    pool._check_rows(tally, "sweep", [], pool.TINY_ROWS)
    assert tally.failed == 1 and tally.wrong

def test_tracer_self_time_excludes_children():
    from tracer import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.02)
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"]
    assert outer["self_s"] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]), abs=1e-4)
    assert 0.009 < outer["self_s"] < 0.019


def test_importtime_parser_counts_outermost_entries_only():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |       scipy",
        "import time:        20 |         30 |     scipy.optimize",
        "import time:         5 |        185 |   bsbound.optimizer",
        "import time:         1 |        336 | bsbound",
    ])
    assert probes._outermost_cumulative(stderr, "numpy") == pytest.approx(150e-6)
    assert probes._outermost_cumulative(stderr, "scipy") == pytest.approx(30e-6)
    assert probes._outermost_cumulative(stderr, "bsbound") == pytest.approx(336e-6)


def test_tail_needs_ten_samples_beyond():
    assert [n for n, *_ in latency_lines("t", [1.0] * 99, "ms", 1)] == ["t_p50"]
    assert [n for n, *_ in latency_lines("t", [1.0] * 100, "ms", 1)] == ["t_p50", "t_p90"]
    assert [n for n, *_ in latency_lines("t", [1.0] * 1000, "ms", 1)] == ["t_p50", "t_p99"]
