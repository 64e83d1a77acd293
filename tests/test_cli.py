import contextlib
import io
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsbound import cli, optimizer
from bsbound.optimizer import solve_thickness_for_ratio
from conftest import GOLDEN, make_goldens


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

    def test_jobs_byte_identical(self, run_cli, tmp_path):
        args = ("sweep", "--x-min", "0.2", "--x-max", "5", "--points", "5", "--log")
        one = tmp_path / "one.csv"
        many = tmp_path / "many.csv"
        run_cli(*args, "--jobs", "1", "--out", str(one))
        run_cli(*args, "--jobs", "4", "--out", str(many))
        assert one.read_bytes() == many.read_bytes()

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
    ], ids=["drift-nan", "infeasible-row", "infeasible-sweep-row", "x-inf"])
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

    def test_jobs_below_one_rejected(self, run_cli):
        res = run_cli("sweep", "--x-min", "1", "--x-max", "2", "--points", "2", "--jobs", "0")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "--jobs" in res.stderr


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
        ["sweep", "--x-min", "1", "--x-max", "1e8", "--points", "2", "--log"],
        ["sweep", "--x-min", "1", "--x-max", "1e8", "--points", "2", "--log", "--jobs", "2"],
    ], ids=["1e8", "1e9", "1e30", "eps-s-max-1e11", "bound", "sweep", "sweep-jobs-2"])
    def test_exit_2(self, run_cli, args):
        res = run_cli(*args)
        assert res.returncode == 2
        assert res.stdout == ""
        (line,) = res.stderr.splitlines()
        assert line.startswith("error: the constrained solve failed: inner solve left residual ")
        assert "Traceback" not in res.stderr


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


class TestContract:
    """Exit 0, 2 or 3 and no escaping exception for any input, run in process."""

    @staticmethod
    def check(argv):
        """The record main printed, or None for an exit 2."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
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

    # x >= 1.7e7 can miss the ratio tolerance: exit 2, not a traceback [contract]
    @given(
        st.floats(1e-4, 1e38),
        st.floats(1e-6, 0.5),
        st.floats(1e-6, 0.5),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_minimize(self, x, gamma, omega, levels):
        self.check(["minimize", f"--x={x!r}", f"--gamma={gamma!r}", f"--omega={omega!r}",
                    f"--refine-levels={levels}"])

    @given(st.floats(1e-4, 1e38), st.floats(1e-6, 0.5))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_bound(self, x, omega):
        self.check(["bound", f"--x={x!r}", f"--omega={omega!r}"])


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


class TestGolden:
    """Frozen output formats; regenerate with scripts/make_goldens.py."""

    @pytest.mark.parametrize("name", list(make_goldens.CASES))
    def test_output_matches_golden(self, run_cli, name):
        res = run_cli(*make_goldens.CASES[name])
        assert res.stdout == (GOLDEN / name).read_text()

    def test_every_golden_file_is_generated(self):
        generated = {*make_goldens.CASES, make_goldens.SOLVER_GOLDEN}
        assert {path.name for path in GOLDEN.iterdir()} <= generated
