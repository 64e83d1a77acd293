import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsbound import cli, optimizer
from bsbound.optimizer import solve_thickness_for_ratio
from conftest import GOLDEN, REPO, make_goldens
from oracles import build_parser


def parse_csv_record(text):
    header, row = text.strip().split("\n")
    out = {}
    for key, raw in zip(header.split(","), row.split(",")):
        if raw in ("true", "false"):
            out[key] = raw == "true"
        else:
            try:
                out[key] = float(raw)
            except ValueError:
                out[key] = raw
    return out


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


def strict_json(line):
    """json.loads that rejects the NaN and Infinity tokens Python accepts."""
    return json.loads(line, parse_constant=_reject_constant)


class TestEval:
    def test_lossless_record(self, run_cli):
        res = run_cli("eval", "--eps-s", "6.2", "--gamma", "0", "--omega", "1e-3",
                      "--thickness", "100", "--allow-lossless")
        assert res.returncode == 0
        rec = parse_csv_record(res.stdout)
        assert abs(rec["p"]) < 1e-12

    def test_lossless_requires_flag(self, run_cli):
        res = run_cli("eval", "--eps-s", "6.2", "--gamma", "0", "--omega", "1e-3",
                      "--thickness", "100")
        assert res.returncode == 2
        assert res.stderr.startswith("error:")
        assert res.stdout == ""

    def test_zero_thickness(self, run_cli):
        res = run_cli("eval", "--eps-s", "6.2", "--gamma", "1e-3", "--omega", "1e-3",
                      "--thickness", "0")
        rec = parse_csv_record(res.stdout)
        assert rec["t_re"] == 1.0
        assert rec["r_abs2"] == 0.0
        assert rec["x"] == math.inf

    def test_overflowing_square_is_the_no_slab_identity(self, run_cli):
        # omega^2 overflows in the susceptibility, whose exact value is ~1e-310
        res = run_cli("eval", "--eps-s", "2", "--gamma", "1e154", "--omega", "1e155",
                      "--thickness", "0")
        assert res.returncode == 0
        rec = parse_csv_record(res.stdout)
        assert (rec["t_re"], rec["r_abs2"], rec["x"]) == (1.0, 0.0, math.inf)

    def test_optimum_thickness_coefficient(self, run_cli):
        d_star = solve_thickness_for_ratio(6.2, 1.0, 1e-3, 1e-3, branch="first")
        res = run_cli("eval", "--eps-s", "6.2", "--gamma", "1e-3", "--omega", "1e-3",
                      "--thickness", repr(d_star))
        rec = parse_csv_record(res.stdout)
        assert 0.85e-6 < rec["p"] < 0.95e-6

    def test_invalid_eps_rejected(self, run_cli):
        res = run_cli("eval", "--eps-s", "0.9", "--gamma", "1e-3", "--omega", "1e-3",
                      "--thickness", "1")
        assert res.returncode == 2

    @pytest.mark.parametrize("args", [
        # (1+n)^2 - (1-n)^2 cancels to exactly 0 at |n| >~ 4e16
        ("--eps-s", "1e80", "--gamma", "1e-3", "--omega", "1e-3", "--thickness", "1e-60"),
        # |t|^2 overflows
        ("--eps-s", "1e60", "--gamma", "0", "--omega", "1e-100", "--thickness", "1e-150",
         "--allow-lossless"),
        # the phase omega * thickness overflows: t, r and p come out NaN
        ("--eps-s", "6.2", "--gamma", "1e-3", "--omega", "1e200", "--thickness", "1e200"),
    ], ids=["denominator-cancels", "abs2-overflows", "phase-overflows"])
    def test_extreme_working_point_exit_2(self, run_cli, args):
        res = run_cli("eval", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        (line,) = res.stderr.splitlines()
        assert line.startswith("error: slab response out of float range at ScaledSlabParams(")
        assert "Traceback" not in res.stderr

    def test_round_trip_bitwise(self, run_cli):
        first = run_cli("eval", "--eps-s", "7.13", "--gamma", "3.7e-4", "--omega", "2.9e-3",
                        "--thickness", "123.456")
        rec = parse_csv_record(first.stdout)
        again = run_cli("eval", "--eps-s", repr(rec["eps_s"]), "--gamma", repr(rec["gamma"]),
                        "--omega", repr(rec["omega"]), "--thickness", repr(rec["thickness"]))
        assert again.stdout == first.stdout


class TestMinimize:
    def test_symmetric(self, run_cli):
        res = run_cli("minimize", "--x", "1")
        assert res.returncode == 0
        rec = parse_csv_record(res.stdout)
        assert 0.85 <= rec["alpha"] <= 0.95
        assert 6.0 <= rec["eps_s"] <= 6.4
        assert rec["feasible"] is True

    def test_infeasible_range_exit_3(self, run_cli):
        res = run_cli("minimize", "--x", "1", "--eps-s-max", "5")
        assert res.returncode == 3
        rec = parse_csv_record(res.stdout)
        assert rec["feasible"] is False

    def test_extreme_transmission(self, run_cli):
        res = run_cli("minimize", "--x", "1e6", "--refine-levels", "1")
        assert res.returncode == 0
        rec = parse_csv_record(res.stdout)
        assert rec["alpha"] < 0.05

    @pytest.mark.xfail(strict=True, reason="_PHI_LO = 1e-12 caps x(phi) on the first branch")
    def test_huge_ratio_is_feasible(self, run_cli):
        # x(phi) diverges as phi -> 0, so every ratio is reachable; the solver
        # starts its phase search at _PHI_LO and reports x = 1e38 infeasible
        res = run_cli("minimize", "--x", "1e38", "--refine-levels", "1")
        assert parse_csv_record(res.stdout)["feasible"] is True

    @pytest.mark.parametrize("args", [
        ("--gamma", "1e-200", "--omega", "1e-200", "--refine-levels", "1"),
        ("--refine-levels", "200"),  # the ladder underflows from level 159 on
    ], ids=["working-point", "ladder"])
    def test_underflowing_working_point_exit_2(self, run_cli, args):
        res = run_cli("minimize", "--x", "1", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: gamma_tilde * omega_tilde underflows to zero")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("count", [10**6, 10**400], ids=["1e6", "1e400"])
    def test_oversized_ladder_exit_2_before_it_is_built(self, capsys, count):
        # every level from 324 on is (0, 0), so the ladder must be rejected
        # before its levels are built: 10**6 of them take over 100 MB
        tracemalloc.start()
        try:
            code = cli.main(["minimize", "--x", "1", "--refine-levels", str(count)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 5e6
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: gamma_tilde * omega_tilde underflows to zero")

    def test_overflowing_eps_s_ratio_exit_2(self, run_cli):
        # (eps_s_max - 1)/(1e-6) overflows: the scan would put every slice
        # but the first at eps_s = inf and report an infeasible ratio
        res = run_cli("minimize", "--x", "1", "--eps-s-max", "2e302")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "eps_s_max" in res.stderr and "Traceback" not in res.stderr

    def test_json_format_keys(self, run_cli):
        res = run_cli("minimize", "--x", "1", "--refine-levels", "1", "--format", "json")
        rec = strict_json(res.stdout)
        assert rec["alpha_drift"] == "nan"
        assert list(rec) == [
            "x", "gamma", "omega", "eps_s_max", "refine_levels", "alpha",
            "alpha_drift", "eps_s", "d", "p_min", "phi", "branch", "feasible",
            "constraint_residual",
        ]

    def test_round_trip_bitwise(self, run_cli):
        first = run_cli("minimize", "--x", "0.7", "--refine-levels", "1")
        rec = parse_csv_record(first.stdout)
        again = run_cli("minimize", "--x", repr(rec["x"]), "--gamma", repr(rec["gamma"]),
                        "--omega", repr(rec["omega"]), "--eps-s-max", repr(rec["eps_s_max"]),
                        "--refine-levels", "1")
        assert again.stdout == first.stdout


class TestSweep:
    def test_header_and_order(self, run_cli):
        res = run_cli("sweep", "--x-min", "0.5", "--x-max", "2", "--points", "3", "--log")
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "x,alpha,eps_s,d,p_min,feasible"
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs == sorted(xs)
        assert len(xs) == 3

    def test_json_lines_format(self, run_cli):
        res = run_cli("sweep", "--x-min", "0.5", "--x-max", "2", "--points", "3",
                      "--log", "--format", "json")
        lines = res.stdout.strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            rec = strict_json(line)
            assert list(rec) == ["x", "alpha", "eps_s", "d", "p_min", "feasible"]

    @pytest.mark.parametrize("args, code", [
        (("minimize", "--x", "1", "--refine-levels", "1"), 0),
        (("minimize", "--x", "1e-4"), 3),
        (("sweep", "--x-min", "1e-4", "--x-max", "1", "--points", "2", "--log"), 0),
        (("eval", "--eps-s", "6.2", "--gamma", "1e-3", "--omega", "1e-3",
          "--thickness", "0"), 0),
        # no slice of either level reaches the ratio
        (("bound", "--x", "1e-3", "--omega", "0.1"), 3),
    ], ids=["drift-nan", "infeasible-row", "infeasible-sweep-row", "x-inf", "infeasible-bound"])
    def test_json_non_finite_written_as_csv_strings(self, capsys, args, code):
        assert cli.main([*args, "--format", "json"]) == code
        records = [strict_json(line) for line in capsys.readouterr().out.splitlines()]
        assert cli.main(list(args)) == code
        header, *rows = capsys.readouterr().out.splitlines()
        non_finite = 0
        for rec, row in zip(records, rows, strict=True):
            assert list(rec) == header.split(",")
            for value, raw in zip(rec.values(), row.split(",")):
                if raw in ("nan", "inf", "-inf"):
                    assert value == raw
                    non_finite += 1
                else:
                    assert not isinstance(value, str) or value == raw
        assert non_finite > 0

    def test_linear_grid_is_linspace(self):
        rng = np.random.default_rng(20261018)
        for _ in range(3000):
            lo = 10.0 ** rng.uniform(-4, 6)
            hi = lo + 10.0 ** rng.uniform(-4, 6)
            points = int(rng.integers(2, 60))
            if not lo < hi:
                continue
            assert cli._grid(lo, hi, points, False) == np.linspace(lo, hi, points).tolist()

    def test_log_grid_exact_ends_and_within_two_ulp_of_geomspace(self):
        # numpy's log10 and power may round differently from the C library's.
        # power alone moves a point by at most an ulp.  A log10(x_min) one ulp
        # off moves every interior point by up to ln(10)*|log10 x| ulp, so the
        # comparison with geomspace itself is made where the log10s agree.
        rng = np.random.default_rng(20261019)
        compared = 0
        for _ in range(3000):
            lo = 10.0 ** rng.uniform(-4, 6)
            hi = lo * 10.0 ** rng.uniform(1e-3, 8)
            points = int(rng.integers(2, 60))
            grid = cli._grid(lo, hi, points, True)
            assert len(grid) == points
            assert grid[0] == lo and grid[-1] == hi
            logs = np.linspace(math.log10(lo), math.log10(hi), points)
            for x, ref in zip(grid[1:-1], np.power(10.0, logs[1:-1]).tolist()):
                assert abs(x - ref) <= 2 * math.ulp(ref)
            if np.log10(lo) == math.log10(lo) and np.log10(hi) == math.log10(hi):
                compared += 1
                for x, ref in zip(grid, np.geomspace(lo, hi, points).tolist()):
                    assert abs(x - ref) <= 2 * math.ulp(ref)
        assert compared > 2000

    def test_bad_grid_rejected(self, run_cli):
        res = run_cli("sweep", "--x-min", "2", "--x-max", "1", "--points", "3")
        assert res.returncode == 2

    def test_jobs_is_unrecognized(self, run_cli):
        # the process count is not an option: every row runs in this process
        res = run_cli("sweep", "--x-min", "1", "--x-max", "2", "--points", "2", "--jobs", "2")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.endswith("error: unrecognized arguments: --jobs 2\n")


class TestBound:
    def test_headline_number(self, run_cli):
        res = run_cli("bound", "--x", "1", "--omega", "0.1", "--nvt", "1e9")
        assert res.returncode == 0
        rec = parse_csv_record(res.stdout)
        assert 0.5e-10 < rec["p_min"] < 2e-10

    def test_quartic_ratio_through_cli(self, run_cli):
        lo = parse_csv_record(run_cli("bound", "--x", "1", "--omega", "0.1").stdout)
        hi = parse_csv_record(run_cli("bound", "--x", "1", "--omega", "0.2").stdout)
        assert hi["p_min"] / lo["p_min"] == pytest.approx(16.0, rel=1e-12)

    def test_validity_warning(self, run_cli):
        res = run_cli("bound", "--x", "1", "--omega", "0.6")
        assert "warning" in res.stderr

    def test_infeasible_exit_3(self, run_cli):
        res = run_cli("bound", "--x", "1e-4", "--omega", "0.1")
        assert res.returncode == 3

    @pytest.mark.parametrize("omega", ["1e100", "1e200"])
    def test_overflowing_omega_exit_2(self, run_cli, omega):
        # 1e200 overflows the line-width bound, 1e100 only p_min
        res = run_cli("bound", "--x", "1", "--omega", omega)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "error: " in res.stderr and "overflows" in res.stderr
        assert "Traceback" not in res.stderr


    @pytest.mark.parametrize("omega", ["1e-80", "1e-300"])
    def test_underflowing_omega_exit_2(self, run_cli, omega):
        # 1e-80 rounds p_min to 0.0, 1e-300 already the line-width bound;
        # p_min = 0 would break p > 0
        res = run_cli("bound", "--x", "1", "--omega", omega)
        assert res.returncode == 2
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "underflows to zero" in lines[0]

    @pytest.mark.parametrize("nvt", ["1e-3", "1e-300"])
    def test_probability_not_below_one_exit_2(self, run_cli, nvt):
        # p_min would print as 89.74 and 8.97e298: no probability
        res = run_cli("bound", "--x", "1", "--omega", "0.1", "--nvt", nvt)
        assert res.returncode == 2
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: minimal absorption probability ")
        assert "is not below 1" in lines[0]


class TestSolveFailure:
    """A phase root that misses the 1e-10 ratio tolerance is an error line, exit 2.

    The library raises RuntimeError there; `main` turns it into the error
    line, as it does a ValueError [contract].
    """

    @pytest.mark.parametrize("args", [
        ["minimize", "--x", "1e8"],
        ["minimize", "--x", "1e9"],
        ["minimize", "--x", "1e30"],
        ["minimize", "--x", "1", "--eps-s-max", "1e11"],
        ["bound", "--x", "1e8", "--omega", "0.1"],
        ["bound", "--x", "1e30", "--omega", "0.1"],
        ["sweep", "--x-min", "1", "--x-max", "1e8", "--points", "2", "--log"],
        ["sweep", "--x-min", "1", "--x-max", "1e30", "--points", "2", "--log"],
        # the first row raises
        ["sweep", "--x-min", "22387211.385683396", "--x-max", "25118864.315095823",
         "--points", "2", "--log"],
        # the last row raises after two solved ones
        ["sweep", "--x-min", "25118864.315095823", "--x-max", "28183829.31264455",
         "--points", "3", "--log"],
    ], ids=["1e8", "1e9", "1e30", "eps-s-max-1e11", "bound", "bound-1e30", "sweep",
            "sweep-1e30", "sweep-first-row", "sweep-last-row"])
    def test_exit_2(self, run_cli, args):
        res = run_cli(*args)
        assert res.returncode == 2
        assert res.stdout == ""
        (line,) = res.stderr.splitlines()
        assert line.startswith("error: the constrained solve failed: inner solve left residual ")
        assert "Traceback" not in res.stderr


class TestFloatRangeEnds:
    """Ratios near the smallest float and an eps_s search past 1e154 end in a
    record, not a traceback: the lossless feasibility bound stays total
    where x * (eps_s - 1)**2 would underflow or (eps_s - 1)**2 overflow.
    """

    @pytest.mark.parametrize("args, code", [
        (["bound", "--x", "1e-320", "--omega", "0.1"], 3),
        (["minimize", "--x", "5e-324"], 3),
        (["sweep", "--x-min", "1e-320", "--x-max", "1", "--points", "2", "--log"], 0),
        (["minimize", "--x", "1e-300", "--eps-s-max", "1e200"], 3),
    ], ids=["bound-1e-320", "minimize-5e-324", "sweep-1e-320", "eps-s-max-1e200"])
    def test_record_not_traceback(self, run_cli, args, code):
        res = run_cli(*args)
        assert (res.returncode, res.stderr) == (code, "")
        header, *rows = [line.split(",") for line in res.stdout.splitlines()]
        column = header.index("feasible")
        # the sweep's x = 1 row is the only feasible one
        assert [row[column] for row in rows] == (
            ["false", "true"] if args[0] == "sweep" else ["false"]
        )


class TestScalingWarning:
    """A ladder drift above the scaling tolerance warns on stderr only."""

    @pytest.mark.parametrize("args, drift", [
        (("--eps-s-max", "5.8285", "--gamma", "0.1", "--omega", "0.1"), 0.01075),
        (("--gamma", "0.3", "--omega", "0.3"), 0.0167),
    ])
    def test_minimize_warns(self, run_cli, args, drift):
        res = run_cli("minimize", "--x", "1", *args)
        assert res.returncode == 0
        rec = parse_csv_record(res.stdout)
        assert rec["alpha_drift"] == pytest.approx(drift, rel=1e-3)
        (line,) = res.stderr.splitlines()
        assert line.startswith(f"warning: alpha_drift = {rec['alpha_drift']!r} exceeds 0.01;")

    def test_default_minimize_is_quiet(self, run_cli):
        # one level measures no drift (NaN), so it cannot warn either
        for levels in ("2", "1"):
            res = run_cli("minimize", "--x", "1", "--refine-levels", levels)
            assert res.returncode == 0
            assert res.stderr == ""

    def test_bound_warns(self, monkeypatch, capsys):
        # bound's ladder is DEFAULT_LEVELS, which drifts far less than 1% below x = 1e7
        monkeypatch.setattr(optimizer, "DEFAULT_LEVELS", optimizer.ladder(0.3, 0.3, 2))
        assert cli.main(["bound", "--x", "1", "--omega", "0.1"]) == 0
        out, err = capsys.readouterr()
        rec = parse_csv_record(out)
        assert rec["alpha_drift"] > 0.01
        (line,) = err.splitlines()
        assert line.startswith(f"warning: alpha_drift = {rec['alpha_drift']!r} exceeds 0.01;")


class TestUnresolvedAbsorption:
    """A working point below the resolution of p is an input error, not a result."""

    # the error names the first ladder level whose p_min is not positive
    @pytest.mark.parametrize("level, levels, gamma_omega", [
        ("1e-8", "2", "1.0000000000000001e-16"),
        ("1e-9", "2", "1e-18"),
        ("1e-9", "1", "1e-18"),
    ])
    def test_non_positive_p_min_exit_2(self, run_cli, level, levels, gamma_omega):
        res = run_cli("minimize", "--x", "1", "--gamma", level, "--omega", level,
                      "--refine-levels", levels)
        assert res.returncode == 2
        assert res.stdout == ""
        (line,) = res.stderr.splitlines()
        assert line.startswith("error: p_min = ")
        assert f" is not positive at gamma*omega = {gamma_omega}: " in line
        assert "resolves absorption only to about 2.220446049250313e-16" in line


class TestNonFiniteInputs:
    """Every float flag must be finite; the rejection names the flag."""

    @pytest.mark.parametrize("args, flag", [
        (["eval", "--eps-s", "inf", "--gamma", "1e-3", "--omega", "1e-3",
          "--thickness", "500"], "--eps-s"),
        (["eval", "--eps-s", "6.2", "--gamma", "1e-3", "--omega", "1e-3",
          "--thickness", "inf"], "--thickness"),
        (["eval", "--eps-s", "6.2", "--gamma", "nan", "--omega", "1e-3",
          "--thickness", "500"], "--gamma"),
        (["bound", "--x", "1", "--omega", "inf"], "--omega"),
        (["sweep", "--x-min", "1", "--x-max", "inf", "--points", "3", "--log"],
         "--x-max"),
        (["minimize", "--x", "inf"], "--x"),
    ])
    def test_rejected_with_flag_named(self, run_cli, args, flag):
        res = run_cli(*args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert f"argument {flag}: must be finite" in res.stderr
        assert "Traceback" not in res.stderr
        assert "Warning" not in res.stderr

    def test_unparsable_float_still_named(self, run_cli):
        res = run_cli("minimize", "--x", "abc")
        assert res.returncode == 2
        assert "argument --x: invalid float value: 'abc'" in res.stderr


# the help argparse printed at 80 columns, which the flag table reproduces
HELP = {
    "": (
        "usage: bsbound [-h] [--constants] {eval,minimize,sweep,bound} ...\n"
        "\n"
        "Absorption bounds for a planar-slab beam splitter.\n"
        "\n"
        "positional arguments:\n"
        "  {eval,minimize,sweep,bound}\n"
        "    eval                slab response at one working point\n"
        "    minimize            minimal absorption at a splitting ratio\n"
        "    sweep               alpha and eps_s over a grid of ratios\n"
        "    bound               minimal absorption probability chain\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --constants           print the compiled physical constants and exit\n"
    ),
    "eval": (
        "usage: bsbound eval [-h] --eps-s EPS_S --gamma GAMMA --omega OMEGA --thickness\n"
        "                    THICKNESS [--allow-lossless] [--format {csv,json}]\n"
        "                    [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --eps-s EPS_S\n"
        "  --gamma GAMMA\n"
        "  --omega OMEGA\n"
        "  --thickness THICKNESS\n"
        "  --allow-lossless\n"
        "  --format {csv,json}\n"
        "  --out OUT             output file (default stdout)\n"
    ),
    "minimize": (
        "usage: bsbound minimize [-h] --x X [--gamma GAMMA] [--omega OMEGA]\n"
        "                        [--eps-s-max EPS_S_MAX]\n"
        "                        [--refine-levels REFINE_LEVELS] [--format {csv,json}]\n"
        "                        [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --x X\n"
        "  --gamma GAMMA\n"
        "  --omega OMEGA\n"
        "  --eps-s-max EPS_S_MAX\n"
        "  --refine-levels REFINE_LEVELS\n"
        "  --format {csv,json}\n"
        "  --out OUT             output file (default stdout)\n"
    ),
    "sweep": (
        "usage: bsbound sweep [-h] --x-min X_MIN --x-max X_MAX --points POINTS [--log]\n"
        "                     [--format {csv,json}] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --x-min X_MIN\n"
        "  --x-max X_MAX\n"
        "  --points POINTS\n"
        "  --log                logarithmic grid\n"
        "  --format {csv,json}\n"
        "  --out OUT            output file (default stdout)\n"
    ),
    "bound": (
        "usage: bsbound bound [-h] --x X --omega OMEGA [--nvt NVT]\n"
        "                     [--format {csv,json}] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --x X\n"
        "  --omega OMEGA\n"
        "  --nvt NVT\n"
        "  --format {csv,json}\n"
        "  --out OUT            output file (default stdout)\n"
    ),
}

# each command's flags, the required ones first, as the reference declares them
FLAGS = {
    "eval": ["--eps-s", "--gamma", "--omega", "--thickness", "--allow-lossless",
             "--format", "--out"],
    "minimize": ["--x", "--gamma", "--omega", "--eps-s-max", "--refine-levels",
                 "--format", "--out"],
    "sweep": ["--x-min", "--x-max", "--points", "--log", "--format", "--out"],
    "bound": ["--x", "--omega", "--nvt", "--format", "--out"],
}
REQUIRED = {"eval": 4, "minimize": 1, "sweep": 3, "bound": 2}
SWITCHES = ("--allow-lossless", "--log")


def flag_values(flag):
    """Values for flag: valid ones, and text the flag rejects.

    Negative numbers are drawn only as digits with an optional fraction:
    "-1e-05" or "-inf" after a flag is a value to the flag table, but a
    missing value to argparse on Python 3.11.
    """
    if flag == "--format":
        return st.sampled_from(["csv", "json"] * 2 + ["xml", "CSV", ""])
    if flag == "--out":
        return st.sampled_from(["out.csv", "-", "-1", "a b", "x=y"])
    if flag in ("--refine-levels", "--points"):
        valid = st.integers(-10**6, 10**6).map(str)
    else:
        valid = st.floats(0.0, allow_infinity=False).map(repr)
    odd = st.sampled_from(["nan", "inf", "abc", "1.5", "-1", "-0.5", "-.5", "1e3", "", " 2"])
    return st.one_of(valid, valid, odd)


@st.composite
def command_lines(draw):
    """An argv over the four commands' flags, valid or not."""
    argv = draw(st.sampled_from([[]] * 4 + [["--constants"], ["-h"], ["--con"], ["--nope"]]
                                + [[]] * 4))
    command = draw(st.sampled_from([*FLAGS] * 4 + ["nope", None]))
    if command is None:
        return argv
    argv.append(command)
    flags = FLAGS.get(command, FLAGS["bound"])  # "nope" is given bound's flags
    given = [] if draw(st.integers(0, 3)) == 0 else flags[:REQUIRED.get(command, 0)]
    given += draw(st.lists(st.sampled_from(flags), max_size=4))
    for flag in given:
        kind = draw(st.sampled_from(
            ["pair"] * 24 + ["equals"] * 12 + ["missing"] * 2 + ["unknown"] * 2 + ["extra", "help"]
        ))
        # a prefix may name one flag or several
        spelled = flag[:draw(st.integers(3, len(flag)))] if draw(st.integers(0, 3)) == 0 else flag
        if kind == "unknown":
            argv.append(draw(st.sampled_from(["--nope", "-x", "--constants", "--x-", "-hx"])))
        elif kind == "help":
            argv.append(draw(st.sampled_from(["-h", "--help", "--he"])))
        elif kind == "extra":
            argv.append(draw(st.sampled_from(["extra", "1", "-1"])))
        elif flag in SWITCHES or kind == "missing":
            argv.append(spelled)
        else:
            value = draw(flag_values(flag))
            argv += [f"{spelled}={value}"] if kind == "equals" else [spelled, value]
    return argv


class TestParser:
    """The flag table parses what argparse parsed, and prints its bytes."""

    @staticmethod
    def parse(parse, argv):
        """(namespace as a dict or None, SystemExit code or None, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return vars(parse(argv)), None, out.getvalue(), err.getvalue()
            except SystemExit as exc:
                return None, exc.code, out.getvalue(), err.getvalue()

    @given(command_lines())
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def test_matches_the_argparse_reference(self, argv):
        expected, ref_code, ref_out, _ = self.parse(build_parser().parse_args, argv)
        got, code, out, err = self.parse(cli._parse, argv)
        assert code == ref_code, (out, err)
        if code is None:
            assert got == expected
        elif code == 0:
            # the help of the same command; argparse wraps it to COLUMNS
            assert out.split()[:3] == ref_out.split()[:3]
        else:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                with pytest.raises(SystemExit) as exc:
                    cli.main(argv)
            assert exc.value.code == 2
            assert stdout.getvalue() == ""
            assert re.match(r"(bsbound( \w+)?: )?error: ", stderr.getvalue().splitlines()[-1])
            assert "Traceback" not in stderr.getvalue()

    @pytest.mark.parametrize("command", list(HELP))
    def test_help_is_the_argparse_text(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([*command.split(), "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (HELP[command], "")

    @pytest.mark.parametrize("argv, command, message", [
        (["bound", "--x"], "bound", "argument --x: expected one argument"),
        (["bound", "--x", "-e", "--omega", "1"], "bound", "argument --x: expected one argument"),
        (["minimize", "--x", "1", "--o", "3"], "minimize",
         "ambiguous option: --o could match --omega, --out"),
        (["sweep", "--x=1"], "sweep", "ambiguous option: --x=1 could match --x-min, --x-max"),
        (["nope"], "", "argument command: invalid choice: 'nope' "
                       "(choose from 'eval', 'minimize', 'sweep', 'bound')"),
        (["minimize", "--x", "1", "--format", "xml"], "minimize",
         "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
        (["minimize", "--x", "1", "--refine-levels", "1.5"], "minimize",
         "argument --refine-levels: invalid int value: '1.5'"),
        (["eval", "--nope", "1"], "eval",
         "the following arguments are required: --eps-s, --gamma, --omega, --thickness"),
        (["bound", "--x", "1", "--omega", "1", "extra", "--nope"], "",
         "unrecognized arguments: extra --nope"),
        (["bound", "-hx"], "bound", "argument -h/--help: ignored explicit argument 'x'"),
        (["--constants=1"], "", "argument --constants: ignored explicit argument '1'"),
    ])
    def test_usage_error_is_the_argparse_text(self, capsys, argv, command, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        usage = HELP[command].split("\n\n")[0]
        prog = f"bsbound {command}".strip()
        assert capsys.readouterr() == ("", f"{usage}\n{prog}: error: {message}\n")

    def test_accepted_syntax(self):
        args = cli._parse(["--con", "bound", "--om=0.5", "--x", "2", "--x=-3",
                           "--nvt", "-1e-05", "--f", "json", "--out", "-"])
        assert vars(args) == {
            "constants": True, "command": "bound", "func": cli.cmd_bound,
            "x": -3.0, "omega": 0.5, "nvt": -1e-05, "format": "json", "out": "-",
        }


class TestContract:
    """Exit 0, 2 or 3 and no escaping exception for any input, run in process."""

    @staticmethod
    def check(argv):
        """The record main printed, or None for an exit 2."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # the parser rejects the command line
                assert exc.code == 2, err.getvalue()
                return None
        assert code in (0, 2, 3), err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().splitlines()[-1].startswith("error: ")
            return None
        assert out.getvalue().count("\n") == 2  # header and one row
        return parse_csv_record(out.getvalue())

    # every decade of the finite floats equally likely, with either sign, plus
    # Hypothesis's own edge cases (zeros, subnormals, the largest floats)
    ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99), st.integers(-307, 307),
    )

    @given(st.tuples(*[ANY_FLOAT] * 4), st.booleans())
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def test_eval(self, values, lossless):
        flags = ("--eps-s", "--gamma", "--omega", "--thickness")
        argv = ["eval", *(f"{flag}={v!r}" for flag, v in zip(flags, values))]
        record = self.check(argv + ["--allow-lossless"] * lossless)
        if record is not None:
            # x = inf is exact where r = 0; every other field is finite
            assert record["x"] == math.inf or math.isfinite(record["x"]), record
            del record["x"]
            assert all(math.isfinite(v) for v in record.values()), record

    # x >= 1.7e7 can miss the ratio tolerance: exit 2, not a traceback
    # [contract]; x runs down to the smallest float and eps_s_max up to
    # 1.7e302, where the lossless feasibility bound must still not raise
    @given(
        st.floats(5e-324, 1e38),
        st.floats(1e-6, 0.5),
        st.floats(1e-6, 0.5),
        st.integers(1, 3),
        st.floats(1.0001, 1.7e302),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_minimize(self, x, gamma, omega, levels, eps_s_max):
        self.check(["minimize", f"--x={x!r}", f"--gamma={gamma!r}", f"--omega={omega!r}",
                    f"--refine-levels={levels}", f"--eps-s-max={eps_s_max!r}"])

    @given(st.floats(1e-4, 1e38), st.floats(1e-6, 0.5))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_bound(self, x, omega):
        self.check(["bound", f"--x={x!r}", f"--omega={omega!r}"])


class TestValidationLines:
    """A command rejects an input it cannot take with one error line and
    exit 2, before any solve."""

    @pytest.mark.parametrize("args, line", [
        (["minimize", "--x", "1", "--refine-levels", "0"],
         "error: --refine-levels must be at least 1"),
        (["sweep", "--x-min", "2", "--x-max", "1", "--points", "3"],
         "error: --x-min must be below --x-max, got 2.0 >= 1.0"),
        (["sweep", "--x-min", "1", "--x-max", "2", "--points", "1"],
         "error: --points must be at least 2"),
        (["sweep", "--x-min", "-1", "--x-max", "1", "--points", "2"],
         "error: --x-min must be positive"),
        (["bound", "--x", "1", "--omega", "0.1", "--nvt", "0"],
         "error: --nvt must be positive, got 0.0"),
        (["bound", "--x", "1", "--omega", "0"], "error: --omega must be positive, got 0.0"),
        (["eval", "--eps-s", "6.2", "--gamma", "0", "--omega", "0.1", "--thickness", "1"],
         "error: gamma = 0 requires --allow-lossless"),
    ], ids=["refine-levels", "x-range", "points", "x-min", "nvt", "omega", "lossless"])
    def test_error_line(self, monkeypatch, capsys, args, line):
        monkeypatch.setattr(optimizer, "minimize_absorption", pytest.fail)
        assert cli.main(args) == 2
        assert capsys.readouterr() == ("", line + "\n")


class TestOutputFile:
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exit_2(self, run_cli, tmp_path, where):
        out = tmp_path / "no" / "x.csv" if where == "missing_dir" else tmp_path
        res = run_cli(
            "eval", "--eps-s", "6.2", "--gamma", "1e-3", "--omega", "1e-3",
            "--thickness", "500", "--out", str(out),
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: cannot write --out ")
        assert "Traceback" not in res.stderr

    def test_unwritable_out_fails_before_any_work(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(optimizer, "sweep", pytest.fail)
        out = tmp_path / "no" / "x.csv"
        args = ["sweep", "--x-min", "0.5", "--x-max", "2", "--points", "20",
                "--out", str(out)]
        assert cli.main(args) == 2
        assert capsys.readouterr().err.startswith("error: cannot write --out ")

    # exit 2 after --out was checked: from the command itself, and from the solve
    FAILURES = [
        ["sweep", "--x-min", "1", "--x-max", "2", "--points", "1"],
        ["minimize", "--x", "1", "--gamma", "1e-9", "--omega", "1e-9"],
    ]

    @pytest.mark.parametrize("args", FAILURES)
    def test_failed_command_keeps_existing_out(self, run_cli, tmp_path, args):
        out = tmp_path / "x.csv"
        out.write_bytes(b"earlier,output\n")
        res = run_cli(*args, "--out", str(out))
        assert res.returncode == 2
        assert out.read_bytes() == b"earlier,output\n"

    @pytest.mark.parametrize("args", FAILURES)
    def test_failed_command_leaves_no_new_file(self, run_cli, tmp_path, args):
        out = tmp_path / "x.csv"
        res = run_cli(*args, "--out", str(out))
        assert res.returncode == 2
        assert not out.exists()


class TestImports:
    def test_cli_import_loads_neither_scipy_nor_numpy(self, cli_env):
        # dataclasses would pull in inspect, ast, dis and tokenize
        code = (
            "import sys, bsbound.cli\n"
            "heavy = ('json', 'scipy', 'numpy', 'dataclasses', 'inspect')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=cli_env, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_cli_import_loads_neither_typing_nor_re(self, cli_env):
        # -S, because a site .pth file may import typing, which imports re
        code = "import sys, bsbound.cli\nprint(sorted({'typing', 're'} & set(sys.modules)))\n"
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True,
            env=cli_env, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_cli_process_loads_no_argparse_gettext_or_locale(self, cli_env):
        # python -m bsbound bound ..., with main wrapped to list them on its return
        code = (
            "import runpy, sys\n"
            "import bsbound.cli as cli\n"
            "main = cli.main\n"
            "def listed(argv=None):\n"
            "    code = main(argv)\n"
            "    loaded = {'argparse', 'gettext', 'locale'} & set(sys.modules)\n"
            "    sys.stderr.write(f'loaded: {sorted(loaded)}')\n"
            "    return code\n"
            "cli.main = listed\n"
            "runpy.run_module('bsbound', run_name='__main__')\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code, "bound", "--x", "1", "--omega", "0.1"],
            capture_output=True, text=True, env=cli_env, timeout=180,
        )
        assert (res.returncode, res.stderr) == (0, "loaded: []")
        assert res.stdout == (GOLDEN / "bound_headline.csv").read_text()

    @pytest.mark.parametrize("args, code, solver", [
        (["--constants"], 0, {"dielectric", "linewidth"}),
        (["--help"], 0, set()),
        (["minimize", "--x"], 2, set()),
        (make_goldens.CASES["eval_point.csv"], 0, {"dielectric", "slab"}),
        (make_goldens.CASES["bound_headline.csv"], 0,
         {"dielectric", "slab", "optimizer", "linewidth"}),
    ], ids=["constants", "help", "usage-error", "eval", "bound"])
    def test_cli_process_loads_only_the_modules_its_command_runs(
            self, cli_env, args, code, solver):
        # python -m bsbound ARGS, with main wrapped to list the bsbound
        # modules loaded when it returns or raises (--help, a usage error)
        wrapper = (
            "import runpy, sys\n"
            "import bsbound.cli as cli\n"
            "main = cli.main\n"
            "def listed(argv=None):\n"
            "    try:\n"
            "        return main(argv)\n"
            "    finally:\n"
            "        loaded = [m for m in sys.modules if m.startswith('bsbound.')]\n"
            "        sys.stderr.write('\\nloaded: ' + ' '.join(loaded))\n"
            "cli.main = listed\n"
            "runpy.run_module('bsbound', run_name='__main__')\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", wrapper, *args], capture_output=True, text=True,
            env=cli_env, timeout=180,
        )
        assert res.returncode == code, res.stderr
        loaded = set(res.stderr.rpartition("\nloaded: ")[2].split())
        modules = {"bsbound." + name for name in ("dielectric", "slab", "optimizer", "linewidth")}
        assert "bsbound.cli" in loaded
        assert loaded & modules == {"bsbound." + name for name in solver}

    def test_scan_valleys_load_only_for_a_solve(self, cli_env):
        # the shipped valley table is imported on the first default-level
        # slice the optimizer searches, not by the import, --constants or eval
        code = (
            "import contextlib, io, sys, bsbound.cli as cli\n"
            "def loaded(*args):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(list(args)) == 0\n"
            "    return 'bsbound._scan_valleys' in sys.modules\n"
            "print(loaded('--constants'),\n"
            f"      loaded(*{make_goldens.CASES['eval_point.csv']!r}),\n"
            f"      loaded(*{make_goldens.CASES['bound_headline.csv']!r}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=cli_env, check=True,
        )
        assert out.stdout.split() == ["False", "False", "True"]

    def test_sweep_and_sum_rule_run_without_numpy(self, cli_env):
        # None in sys.modules makes every `import numpy` raise ImportError
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from bsbound import cli\n"
            "from bsbound.dielectric import DrudeLorentzModel, Resonance, "
            "superconvergence_residual\n"
            f"assert cli.main({make_goldens.CASES['sweep_small.csv']!r}) == 0\n"
            "model = DrudeLorentzModel([Resonance(1.0, 1.0, 0.1)])\n"
            "print(superconvergence_residual(model, 1e3))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env,
        )
        assert res.returncode == 0, res.stderr
        golden = (GOLDEN / "sweep_small.csv").read_text()
        assert res.stdout.startswith(golden)
        assert 0.0 < float(res.stdout[len(golden):]) < 1e-9


class TestOneProcess:
    """bound and minimize solve their ladder levels, and sweep its rows, one
    after the other in the command's own process: nothing forks.
    """

    def test_no_command_forks(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork called"))
        for name in ["bound_headline.csv", "minimize_three_levels.csv", "sweep_small.csv"]:
            assert cli.main(make_goldens.CASES[name]) == 0
            assert capsys.readouterr() == ((GOLDEN / name).read_text(), "")
        xs = [0.5, 1.0, 2.0]
        assert optimizer.sweep(xs, jobs=2) == optimizer.sweep(xs)

    # name -> (args, exit code, minimizations: one per level or row)
    CASES = {
        "bound": (["bound", "--x", "1", "--omega", "0.1"], 0, 2),
        # no slice of either level can reach the ratio
        "bound-infeasible": (["bound", "--x", "1e-3", "--omega", "0.1"], 3, 2),
        "minimize-reflective": (["minimize", "--x", "0.05"], 0, 2),
        "minimize-3-levels": (["minimize", "--x", "1", "--refine-levels", "3"], 0, 3),
        "minimize-infeasible": (["minimize", "--x", "1e-4"], 3, 2),
        # the first level raises and ends the run
        "minimize-failing": (["minimize", "--x", "1e8"], 2, 1),
        # as above, from a first-branch root
        "minimize-failing-first-branch": (["minimize", "--x", "1e30"], 2, 1),
        "sweep": (["sweep", "--x-min", "0.5", "--x-max", "2", "--points", "3", "--log"], 0, 3),
        # the 1e-4 row has no slice to solve
        "sweep-one-working-row": (["sweep", "--x-min", "1e-4", "--x-max", "1", "--points", "2",
                                   "--log"], 0, 2),
        "sweep-failing": (["sweep", "--x-min", "1", "--x-max", "1e8", "--points", "2",
                           "--log"], 2, 2),
        "sweep-failing-first-branch": (["sweep", "--x-min", "1", "--x-max", "1e30",
                                        "--points", "2", "--log"], 2, 2),
        # the first row raises
        "sweep-first-row-raises": (["sweep", "--x-min", "22387211.385683396",
                                    "--x-max", "25118864.315095823", "--points", "2",
                                    "--log"], 2, 1),
        # the last row raises after two solved ones
        "sweep-last-row-raises": (["sweep", "--x-min", "25118864.315095823",
                                   "--x-max", "28183829.31264455", "--points", "3",
                                   "--log"], 2, 3),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_in_process_run_is_the_fresh_process_run(self, run_cli, monkeypatch, capsys, name):
        args, code, solves = self.CASES[name]
        fresh = run_cli(*args)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork called"))
        solved = []
        solve = optimizer.minimize_absorption

        def counted(config):
            solved.append(config)
            return solve(config)

        monkeypatch.setattr(optimizer, "minimize_absorption", counted)
        out, err = cli.main(args), capsys.readouterr()
        assert (out, err.out, err.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert out == code
        # each level or row once, in order, up to the first that raises
        assert len(solved) == solves
        assert len(set(solved)) == solves

    def test_interrupt_ends_the_run_at_its_level(self, monkeypatch, capsys):
        solved = []

        def interrupted(config):
            solved.append(config)
            raise KeyboardInterrupt

        monkeypatch.setattr(optimizer, "minimize_absorption", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["minimize", "--x", "1", "--refine-levels", "3"])
        assert len(solved) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("cpus", [1, 8, None])
    def test_output_ignores_the_cpu_count(self, monkeypatch, capsys, cpus):
        # 324 levels at a ratio with slices to solve, each stubbed by one
        # infeasible result, which keeps the 324 solves cheap
        infeasible = optimizer.minimize_absorption(optimizer.MinimizeConfig(1e-4))
        solved = []

        def solve(config):
            solved.append(config)
            return infeasible

        monkeypatch.setattr(optimizer, "minimize_absorption", solve)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork called"))
        args = ["minimize", "--x", "1", "--gamma", "1e300", "--omega", "1e300",
                "--refine-levels", "324"]
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = cli.main(args), capsys.readouterr()
        assert serial[0] == 3
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert (cli.main(args), capsys.readouterr()) == serial
        assert len(solved) == 2 * 324


class TestMisc:
    def test_constants_flag(self, run_cli):
        res = run_cli("--constants")
        assert res.returncode == 0
        assert len(res.stdout.strip().split("\n")) == 3
        assert "hbar" in res.stdout

    def test_no_command_usage_error(self, run_cli):
        res = run_cli()
        assert res.returncode == 2

    def test_unknown_flag(self, run_cli):
        res = run_cli("eval", "--nope", "1")
        assert res.returncode == 2


class TestProcessEntry:
    """cli.app is the one process entry: main, a flush, then os._exit."""

    @pytest.mark.parametrize("argv, code", [
        (["--constants"], 0),
        (["minimize", "--x", "1", "--refine-levels", "0"], 2),
        (["eval", "--nope", "1"], None),  # the parser exits by SystemExit(2)
    ])
    def test_main_leaves_the_collector_as_it_found_it(self, argv, code):
        before = gc.isenabled(), gc.get_freeze_count()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                assert cli.main(argv) == code
            except SystemExit as exc:
                assert code is None and exc.code == 2
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_python_m_runs_app_which_flushes_before_it_exits(self, cli_env):
        # bytes with no newline stay buffered until app flushes them; the
        # atexit hook and the print after app never run under os._exit
        code = (
            "import atexit, os, runpy, sys\n"
            "import bsbound.cli as cli\n"
            "atexit.register(os.write, 1, b' atexit')\n"
            "def main(argv=None):\n"
            "    sys.stdout.write('out, no newline')\n"
            "    sys.stderr.write('err, no newline')\n"
            "    return 3\n"
            "cli.main = main\n"
            "runpy.run_module('bsbound', run_name='__main__')\n"
            "print('after app')\n"
        )
        env = {k: v for k, v in cli_env.items() if k != "PYTHONUNBUFFERED"}
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env,
        )
        assert (res.returncode, res.stdout, res.stderr) == (
            3, b"out, no newline", b"err, no newline"
        )

    @pytest.mark.parametrize("argv, code", [
        (["--constants"], 0),
        (["bound", "--x", "1", "--omega", "0.1"], 0),
        (["minimize", "--x", "1e-4"], 3),
        (["--help"], 0),
    ])
    def test_closed_stdout_descriptor_is_left_alone(self, cli_env, argv, code):
        # sys.stdout is None then: records, constants and help write nothing
        res = subprocess.run(
            ["sh", "-c", 'exec "$0" -m bsbound "$@" >&-', sys.executable, *argv],
            capture_output=True, env=cli_env, timeout=180,
        )
        assert (res.returncode, res.stderr) == (code, b"")

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["eval", "--nope", "1"], 2),
    ])
    def test_parser_exit_keeps_its_code_and_bytes(self, cli_env, argv, code):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
        assert exc.value.code == code
        res = subprocess.run(
            [sys.executable, "-m", "bsbound", *argv], capture_output=True, env=cli_env,
        )
        assert (res.returncode, res.stdout, res.stderr) == (
            code, out.getvalue().encode(), err.getvalue().encode()
        )

    def test_console_script_targets_app(self):
        pyproject = (REPO / "pyproject.toml").read_text()
        assert '\nbsbound = "bsbound.cli:app"\n' in pyproject


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFailedWrite:
    """Output that cannot be written exits 2 with an error line, not a traceback."""

    @pytest.fixture(params=["/dev/full", "closed pipe"])
    def stdout_fd(self, request):
        if request.param == "/dev/full":
            fd = os.open("/dev/full", os.O_WRONLY)
        else:
            r, fd = os.pipe()
            os.close(r)  # the reader is gone before the first write
        yield fd
        os.close(fd)

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("args", [
        ["--constants"],
        ["--help"],
        ["bound", "--x", "1", "--omega", "0.1"],
    ])
    def test_exit_2_without_traceback(self, cli_env, stdout_fd, unbuffered, args):
        # buffered, the flush in app fails; unbuffered, the write in main does
        env = {k: v for k, v in cli_env.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        res = subprocess.run(
            [sys.executable, "-m", "bsbound", *args], stdout=stdout_fd,
            stderr=subprocess.PIPE, text=True, env=env, timeout=180,
        )
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: cannot write output: ")
        assert res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr
        assert "Exception ignored" not in res.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestUnwritableWarning:
    """A warning goes to stderr after the record: a stderr that cannot take it
    exits 2, and stdout keeps the record.
    """

    WARNS = {
        "omega": ["bound", "--x", "1", "--omega", "0.6"],
        "drift": ["minimize", "--x", "1", "--gamma", "0.3", "--omega", "0.3"],
    }
    OMEGA_WARNING = ("warning: omega = 0.6 is outside the low-frequency validity range "
                     "(recommended omega < 0.5)\n")

    @staticmethod
    def env(cli_env, unbuffered):
        env = {k: v for k, v in cli_env.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return env

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("stderr, code", [
        ("/dev/full", 2),
        # what `2>&-` leaves when a launcher, say a shell-script shim, takes
        # the free fd 2 for a file it reads: writes fail with EBADF
        ("read-only", 2),
        # closed for good, sys.stderr is None and takes nothing, as a closed stdout
        ("closed", 0),
    ])
    @pytest.mark.parametrize("name", list(WARNS))
    def test_record_survives(self, cli_env, name, stderr, code, unbuffered):
        argv = [sys.executable, "-m", "bsbound", *self.WARNS[name]]
        env = self.env(cli_env, unbuffered)
        quiet = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                               env=env, timeout=180)
        assert quiet.returncode == 0
        assert quiet.stdout.startswith(b"x,")
        if stderr == "closed":
            argv = ["sh", "-c", 'exec "$0" "$@" 2>&-', *argv]
            res = subprocess.run(argv, stdout=subprocess.PIPE, env=env, timeout=180)
        else:
            path, mode = ("/dev/full", "wb") if stderr == "/dev/full" else (os.devnull, "rb")
            with open(path, mode) as fh:
                res = subprocess.run(argv, stdout=subprocess.PIPE, stderr=fh, env=env,
                                     timeout=180)
        # a traceback would exit 1
        assert (res.returncode, res.stdout) == (code, quiet.stdout)

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_quiet_run_never_writes_stderr(self, cli_env, unbuffered):
        # not even an empty write, which an unbuffered stderr passes to the descriptor
        with open(os.devnull, "rb") as read_only:
            res = subprocess.run(
                [sys.executable, "-m", "bsbound", *make_goldens.CASES["bound_headline.csv"]],
                stdout=subprocess.PIPE, stderr=read_only, env=self.env(cli_env, unbuffered),
                timeout=180,
            )
        assert (res.returncode, res.stdout) == (0, (GOLDEN / "bound_headline.csv").read_bytes())

    # the failed solve's root is on the second branch at 1e8, the first at 1e30
    FAILING_X = ["1e8", "1e30"]

    @pytest.mark.parametrize("x", FAILING_X)
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_warning_then_error_line(self, cli_env, unbuffered, x):
        # the omega warning is written before the failed solve's error line
        res = subprocess.run(
            [sys.executable, "-m", "bsbound", "bound", "--x", x, "--omega", "0.6"],
            capture_output=True, text=True, env=self.env(cli_env, unbuffered), timeout=180,
        )
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr.startswith(self.OMEGA_WARNING + "error: the constrained solve failed: ")
        assert res.stderr.count("\n") == 2

    @pytest.mark.parametrize("x", FAILING_X)
    def test_closed_stderr_puts_nothing_on_stdout(self, cli_env, x):
        # print(file=None) would write the warning and the error line to stdout
        res = subprocess.run(
            ["sh", "-c", 'exec "$0" -m bsbound "$@" 2>&-', sys.executable,
             "bound", "--x", x, "--omega", "0.6"],
            stdout=subprocess.PIPE, env=cli_env, timeout=180,
        )
        assert (res.returncode, res.stdout) == (2, b"")

    def test_unbuffered_warning_follows_the_record(self, cli_env):
        res = subprocess.run(
            [sys.executable, "-m", "bsbound", *self.WARNS["omega"]],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=self.env(cli_env, True), timeout=180,
        )
        assert res.returncode == 0
        assert res.stdout.startswith("x,")
        assert res.stdout.endswith(",true\n" + self.OMEGA_WARNING)


class TestGolden:
    """Frozen output formats; regenerate with scripts/make_goldens.py."""

    @pytest.mark.parametrize("name", list(make_goldens.CASES))
    def test_output_matches_golden(self, run_cli, name):
        res = run_cli(*make_goldens.CASES[name])
        assert res.stdout == (GOLDEN / name).read_text()

    def test_make_goldens_leaves_identical_bytes_alone(self, tmp_path, capsys):
        # an unchanged _scan_valleys.py keeps its mtime, so its cached bytecode stays valid
        path = tmp_path / "golden.csv"
        make_goldens._write(path, "a,b\n")
        os.utime(path, (0, 0))
        make_goldens._write(path, "a,b\n")
        assert path.stat().st_mtime == 0
        make_goldens._write(path, "a,c\n")
        assert (path.read_bytes(), path.stat().st_mtime > 0) == (b"a,c\n", True)
        assert capsys.readouterr().out.split() == [
            "wrote", str(path), "unchanged", str(path), "wrote", str(path),
        ]

    def test_every_golden_file_is_generated(self):
        generated = {*make_goldens.CASES, make_goldens.SOLVER_GOLDEN}
        assert {path.name for path in GOLDEN.iterdir()} <= generated
