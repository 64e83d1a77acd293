import json
import math
import subprocess
import sys

import pytest

from bsbound import cli, optimizer
from bsbound.optimizer import solve_thickness_for_ratio
from conftest import GOLDEN


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

    def test_json_format_keys(self, run_cli):
        res = run_cli("minimize", "--x", "1", "--refine-levels", "1", "--format", "json")
        rec = json.loads(res.stdout)
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
            rec = json.loads(line)
            assert list(rec) == ["x", "alpha", "eps_s", "d", "p_min", "feasible"]

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
        res = run_cli("minimize", "--x", "1")
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


class TestImports:
    def test_cli_import_loads_neither_scipy_nor_numpy(self, cli_env):
        code = (
            "import sys, bsbound.cli\n"
            "print(sorted(m for m in ('json', 'scipy', 'numpy') if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=cli_env, check=True,
        )
        assert out.stdout.strip() == "[]"


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

    def test_eval_csv(self, run_cli):
        res = run_cli("eval", "--eps-s", "6.2", "--gamma", "1e-3", "--omega", "1e-3",
                      "--thickness", "500")
        assert res.stdout == (GOLDEN / "eval_point.csv").read_text()

    def test_eval_json(self, run_cli):
        res = run_cli("eval", "--eps-s", "6.2", "--gamma", "1e-3", "--omega", "1e-3",
                      "--thickness", "500", "--format", "json")
        assert res.stdout == (GOLDEN / "eval_point.jsonl").read_text()

    def test_sweep_csv(self, run_cli):
        res = run_cli("sweep", "--x-min", "0.5", "--x-max", "2", "--points", "3", "--log")
        assert res.stdout == (GOLDEN / "sweep_small.csv").read_text()

    def test_minimize_reflective_csv(self, run_cli):
        res = run_cli("minimize", "--x", "0.05")
        assert res.stdout == (GOLDEN / "minimize_reflective.csv").read_text()

    def test_bound_headline_csv(self, run_cli):
        res = run_cli("bound", "--x", "1", "--omega", "0.1")
        assert res.stdout == (GOLDEN / "bound_headline.csv").read_text()

    def test_minimize_single_level_csv(self, run_cli):
        res = run_cli("minimize", "--x", "1", "--refine-levels", "1")
        assert res.stdout == (GOLDEN / "minimize_single_level.csv").read_text()

    def test_minimize_three_levels_csv(self, run_cli):
        res = run_cli("minimize", "--x", "1", "--refine-levels", "3")
        assert res.stdout == (GOLDEN / "minimize_three_levels.csv").read_text()
