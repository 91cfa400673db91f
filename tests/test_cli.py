import json
from pathlib import Path

import pytest

from dpsched.cli import build_parser, main
from dpsched.model import ThresholdPolicy, threshold_to_policy, validate_params
from dpsched.pareto import algorithm1
from dpsched.policies import DEFAULT_ENUMERATION_CAP, count_deterministic

VI_FLAGS = ["--alpha", "0.4", "--A", "2", "--M", "3", "--Q", "5", "--power", "0,1,4,9"]


class TestPareto:
    def test_outputs(self, tmp_path, capsys):
        rc = main(["pareto", *VI_FLAGS, "--out-dir", str(tmp_path)])
        assert rc == 0
        for name in (
            "pareto_curve.csv",
            "pareto_curve.json",
            "pareto_curve.dat",
            "pareto_cloud.csv",
            "pareto_cloud.dat",
            "plot.gp",
        ):
            assert (tmp_path / name).exists(), name
        doc = json.loads((tmp_path / "pareto_curve.json").read_text())
        assert len(doc["vertices"]) == 6
        assert doc["vertices"][0]["power"] == pytest.approx(1.6)
        assert len((tmp_path / "pareto_cloud.csv").read_text().splitlines()) == 1766

    def test_no_cloud(self, tmp_path):
        rc = main(["pareto", *VI_FLAGS, "--no-cloud", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert not (tmp_path / "pareto_cloud.csv").exists()

    def test_cap_exceeded_exit_3_curve_still_written(self, tmp_path, capsys):
        rc = main(["pareto", *VI_FLAGS, "--cap", "100", "--out-dir", str(tmp_path)])
        assert rc == 3
        assert (tmp_path / "pareto_curve.csv").exists()
        assert not (tmp_path / "pareto_cloud.csv").exists()
        assert not (tmp_path / "pareto_cloud.dat").exists()
        assert "cloud skipped" in capsys.readouterr().err

    def test_out_dir_is_an_existing_file(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        assert main(["pareto", *VI_FLAGS, "--no-cloud", "--out-dir", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_cap_defaults_to_the_enumeration_cap(self):
        assert build_parser().parse_args(["pareto"]).cap == DEFAULT_ENUMERATION_CAP

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "params.txt"
        cfg.write_text("alpha=0.9\nA=2\nM=3\nQ=5\npower=0,1,4,9\n")
        rc = main(
            [
                "pareto",
                "--config",
                str(cfg),
                "--alpha",
                "0.4",
                "--no-cloud",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        # flag wins: first vertex power is alpha * P_A = 1.6, not 3.6
        first = (tmp_path / "pareto_curve.csv").read_text().splitlines()[1]
        assert float(first.split(",")[0]) == pytest.approx(1.6)


class TestLp:
    def test_single_budget(self, capsys):
        rc = main(["lp", *VI_FLAGS, "--pth", "1.6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p_th=1.600000" in out
        assert "delay=0.000000" in out
        assert "status=optimal" in out

    def test_infeasible_budget(self, capsys):
        rc = main(["lp", *VI_FLAGS, "--pth", "0"])
        assert rc == 0
        assert "status=infeasible" in capsys.readouterr().out

    def test_failed_solve_prints_no_delay(self, capsys, monkeypatch):
        from dpsched import lp as lp_module
        from dpsched.errors import SimplexBreakdown

        def breakdown(lp):
            raise SimplexBreakdown("basis LU has an exactly zero pivot")

        monkeypatch.setattr(lp_module, "solve_simplex", breakdown)
        assert main(["lp", *VI_FLAGS, "--pth", "1.3"]) == 0
        assert "delay=nan status=breakdown" in capsys.readouterr().out

    def test_policy_out_roundtrips(self, tmp_path, capsys):
        pol_path = tmp_path / "policy.csv"
        rc = main(["lp", *VI_FLAGS, "--pth", "1.6", "--policy-out", str(pol_path)])
        assert rc == 0
        params = validate_params(0.4, 2, 3, 5, [0, 1, 4, 9])
        from dpsched.model import Policy

        pol = Policy.from_csv(params, pol_path.read_text())
        assert pol.f.shape == (8, 4)

    def test_sweep_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["lp", *VI_FLAGS, "--sweep", "0.9:1.6:5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p_th,delay,status"
        assert len(lines) == 6

    def test_sweep_ladder_k43(self, tmp_path):
        # ladder rung K=43: all 50 budgets over [P_min, P_max] are optimal
        # and within 1e-6 of the walk's frontier
        params = validate_params(0.5, 3, 5, 40, [0, 1, 4, 9, 16, 25])
        curve = algorithm1(params)
        out = tmp_path / "sweep.csv"
        spec = f"{curve.min_power!r}:{curve.max_power!r}:50"
        flags = ["--alpha", "0.5", "--A", "3", "--M", "5", "--Q", "40", "--power", "0,1,4,9,16,25"]
        assert main(["lp", *flags, "--sweep", spec, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 50
        for p_th, delay, status in rows:
            assert status == "optimal"
            assert abs(float(delay) - curve.interpolate(float(p_th))) <= 1e-6

    def test_bad_sweep_spec(self, capsys):
        assert main(["lp", *VI_FLAGS, "--sweep", "1.6:0.9:5"]) == 2
        assert main(["lp", *VI_FLAGS, "--sweep", "nonsense"]) == 2

    def test_missing_mode(self, capsys):
        assert main(["lp", *VI_FLAGS]) == 2

    def test_pth_and_sweep_together(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["lp", *VI_FLAGS, "--pth", "1.6", "--sweep", "0.9:1.6:3",
                     "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "not allowed with argument" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode, flag, message", [
        (["--pth", "1.6"], "--out", "--out needs --sweep"),
        (["--sweep", "0.9:1.6:3"], "--policy-out", "--policy-out needs --pth"),
    ])
    def test_output_flag_of_the_other_mode(self, tmp_path, capsys, mode, flag, message):
        # a usage error, not a flag dropped in silence
        path = tmp_path / "out.csv"
        assert main(["lp", *VI_FLAGS, *mode, flag, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not path.exists()

    def test_negative_budget(self, capsys):
        assert main(["lp", *VI_FLAGS, "--pth", "-1"]) == 2

    @pytest.mark.parametrize("mode", [
        ["--pth", "nan"], ["--pth", "inf"], ["--sweep", "nan:1:3"], ["--sweep", "1:inf:3"],
    ])
    def test_non_finite_budget(self, tmp_path, capsys, mode):
        # a usage error: no status line and no sweep rows
        out = tmp_path / "sweep.csv"
        assert main(["lp", *VI_FLAGS, *mode, "--out", str(out)]) == 2
        assert not out.exists()
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert "error: power budget must be finite and nonnegative" in err


class TestSimulate:
    def test_run(self, tmp_path, capsys):
        params = validate_params(0.4, 2, 3, 5, [0, 1, 4, 9])
        pol = threshold_to_policy(params, ThresholdPolicy((0, 1, 7, 7)))
        path = tmp_path / "policy.csv"
        path.write_text(pol.to_csv())
        rc = main(
            ["simulate", *VI_FLAGS, "--policy", str(path), "--slots", "20000", "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "empirical_delay=0.000000000" in out
        assert "overflow_violations=0" in out
        # the 95% half-widths follow the existing lines
        assert out.splitlines()[-1].startswith("power_halfwidth=")
        assert " delay_halfwidth=0.000000000" in out

    def test_missing_policy_file(self, capsys):
        assert main(["simulate", *VI_FLAGS, "--policy", "/nonexistent.csv", "--slots", "10"]) == 2

    def test_policy_path_is_a_directory(self, tmp_path, capsys):
        assert main(["simulate", *VI_FLAGS, "--policy", str(tmp_path), "--slots", "10"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("text, message", [
        ("1,0,0,x\n", "policy line 1 field 4 must be a number, got 'x'"),
        ("1,0,0,0\n0,1,0\n", "policy line 2 has 3 fields, expected 4"),
        ("1,0,0,0\n" * 2 + "nan,0.5,0.5,0\n" + "0,0,1,0\n" * 5,
         "f[2][0] = nan must lie in [0, 1]"),
    ])
    def test_malformed_policy_file(self, tmp_path, capsys, text, message):
        # a usage error (exit 2) naming the line and field, not a traceback
        path = tmp_path / "policy.csv"
        path.write_text(text)
        assert main(["simulate", *VI_FLAGS, "--policy", str(path), "--slots", "10"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_bad_slots(self, tmp_path, capsys):
        params = validate_params(0.4, 2, 3, 5, [0, 1, 4, 9])
        pol = threshold_to_policy(params, ThresholdPolicy((0, 1, 7, 7)))
        path = tmp_path / "policy.csv"
        path.write_text(pol.to_csv())
        assert main(["simulate", *VI_FLAGS, "--policy", str(path), "--slots", "0"]) == 2
        assert capsys.readouterr().err == "error: slots must be >= 1, got 0\n"

    def test_negative_seed(self, tmp_path, capsys):
        params = validate_params(0.4, 2, 3, 5, [0, 1, 4, 9])
        pol = threshold_to_policy(params, ThresholdPolicy((0, 1, 7, 7)))
        path = tmp_path / "policy.csv"
        path.write_text(pol.to_csv())
        rc = main(["simulate", *VI_FLAGS, "--policy", str(path), "--slots", "10", "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


class TestErrors:
    def test_missing_params(self, capsys):
        assert main(["pareto", "--alpha", "0.4"]) == 2
        assert "missing parameters" in capsys.readouterr().err

    def test_partial_config_completed_by_flags(self, tmp_path, capsys):
        cfg = tmp_path / "params.txt"
        cfg.write_text("alpha=0.4\nA=2\nM=3\npower=0,1,4,9\n")
        assert main(["lp", "--config", str(cfg), "--pth", "1.6"]) == 2
        assert capsys.readouterr() == ("", "error: missing parameters: ['Q']\n")
        assert main(["lp", "--config", str(cfg), "--Q", "5", "--pth", "1.6"]) == 0
        assert main(["lp", *VI_FLAGS, "--pth", "1.6"]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == second == "p_th=1.600000 delay=0.000000 status=optimal"

    def test_flag_replaces_an_invalid_config_value(self, tmp_path, capsys):
        # a 3-entry power table is invalid for M=3 on its own
        cfg = tmp_path / "params.txt"
        cfg.write_text("alpha=0.4\nA=2\nM=3\nQ=5\npower=0,1,4\n")
        assert main(["lp", "--config", str(cfg), "--pth", "1.6"]) == 2
        assert capsys.readouterr() == (
            "", "error: power table must have M+1=4 entries, got 3\n")
        assert main(["lp", "--config", str(cfg), "--power", "0,1,4,9", "--pth", "1.6"]) == 0
        assert capsys.readouterr().out == "p_th=1.600000 delay=0.000000 status=optimal\n"

    def test_config_and_flags_are_validated_once(self, tmp_path, capsys, monkeypatch):
        from dpsched import model

        calls = []

        def spy(**fields):
            calls.append(fields)
            return validate_params(**fields)

        monkeypatch.setattr(model, "validate_params", spy)
        cfg = tmp_path / "params.txt"
        cfg.write_text("alpha=0.9\nA=2\nM=3\nQ=5\npower=0,1,4,9\n")
        assert main(["lp", "--config", str(cfg), "--alpha", "0.4", "--pth", "1.6"]) == 0
        assert calls == [dict(alpha=0.4, A=2, M=3, Q=5, power=[0.0, 1.0, 4.0, 9.0])]

    @pytest.mark.parametrize("flag, value, message", [
        ("--A", "2.5", "A must be an integer, got '2.5'"),
        ("--Q", "five", "Q must be an integer, got 'five'"),
        ("--alpha", "0.4.1", "alpha must be a number, got '0.4.1'"),
    ])
    def test_malformed_scalar_flag(self, capsys, flag, value, message):
        # the wording of the same value in a config file; the last flag wins
        assert main(["lp", *VI_FLAGS, flag, value, "--pth", "1"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_invalid_params(self, capsys):
        assert main(["lp", "--alpha", "1.5", "--A", "2", "--M", "3", "--Q", "5",
                     "--power", "0,1,4,9", "--pth", "1"]) == 2

    def test_malformed_config_number(self, tmp_path, capsys):
        cfg = tmp_path / "params.txt"
        cfg.write_text("alpha=0.4\nA=2.5\nM=3\nQ=5\npower=0,1,4,9\n")
        assert main(["pareto", "--config", str(cfg), "--no-cloud", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", "error: A must be an integer, got '2.5'\n")
        assert not (tmp_path / "pareto_curve.csv").exists()

    def test_malformed_power_flag(self, capsys):
        flags = ["--alpha", "0.4", "--A", "2", "--M", "3", "--Q", "5", "--power", "0,1,4,x"]
        assert main(["lp", *flags, "--pth", "1"]) == 2
        assert capsys.readouterr() == ("", "error: power[3] must be a number, got 'x'\n")

    def test_non_finite_power(self, capsys):
        # rejected before any check runs, so nothing is printed to stdout
        flags = ["--alpha", "0.4", "--A", "2", "--M", "3", "--Q", "5", "--power", "0,1,4,inf"]
        assert main(["verify", *flags]) == 2
        assert capsys.readouterr() == ("", "error: power[3] must be finite, got inf\n")


class TestVerify:
    def test_battery_passes(self, capsys):
        rc = main(["verify", *VI_FLAGS, "--trials", "5", "--slots", "200000"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 6
        assert all(l.startswith("PASS") for l in lines)

    def test_bad_slots(self, capsys):
        # a usage error, not a failed check: exit 2 with one error line
        rc = main(["verify", *VI_FLAGS, "--trials", "3", "--slots", "0"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "error: slots must be >= 1, got 0"

    def test_negative_seed(self, capsys):
        # rejected before any check runs, so nothing is printed to stdout
        assert main(["verify", *VI_FLAGS, "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("trials", ("0", "-3"))
    def test_no_trials(self, capsys, trials):
        # zero trials would check nothing and still report PASS
        assert main(["verify", *VI_FLAGS, "--trials", trials]) == 2
        assert capsys.readouterr() == ("", f"error: trials must be >= 1, got {trials}\n")

    def test_q0_has_no_mixing_pairs(self, capsys):
        rc = main(["verify", "--alpha", "0.5", "--A", "2", "--M", "2", "--Q", "0",
                   "--power", "0,1,3", "--trials", "3", "--slots", "20000"])
        out = capsys.readouterr().out
        assert rc == 0
        (line,) = [l for l in out.splitlines() if "mixing-geometry" in l]
        assert line.startswith("PASS")
        assert "worst=0.000e+00" in line
        assert "no state has two feasible actions (0 pairs)" in line

    def test_enumeration_over_the_cap_exit_3(self, capsys):
        # ladder K=22 has more deterministic policies than the cap, so
        # frontier-equivalence cannot run: the documented exit 3, no
        # traceback, and the other five checks still run and print
        params = validate_params(0.5, 3, 5, 19, [0, 1, 4, 9, 16, 25])
        rc = main(["verify", "--alpha", "0.5", "--A", "3", "--M", "5", "--Q", "19",
                   "--power", "0,1,4,9,16,25", "--trials", "1", "--slots", "1000"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert err == ""
        lines = out.splitlines()
        assert [l.split()[1] for l in lines] == [
            "transition-equivalence", "frontier-equivalence", "lp-curve-overlap",
            "mixing-geometry", "lp-equalities", "simulation-agreement"]
        skipped = [l for l in lines if l.startswith("SKIP")]
        assert skipped == [lines[1]]
        assert lines[1].split(None, 2)[2] == (
            f"not run: {count_deterministic(params)} deterministic policies "
            f"exceed the cap of {DEFAULT_ENUMERATION_CAP}")
        assert all(l.startswith(("PASS", "FAIL")) for l in lines if l != lines[1])


def test_readme_quotes_the_cli(tmp_path, capsys):
    """The CLI outputs that README quotes, from the commands it shows: the
    reference frontier's end vertices, the `lp --pth 1.6` line (also from a
    config without Q completed by `--Q 5`) and the five `simulate` lines for
    the LP policy at `--pth 1.2`."""
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())

    def quoted(text):
        assert " ".join(text.split()) in readme, text
        return text

    assert main(["pareto", *VI_FLAGS, "--no-cloud", "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "pareto_curve.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    p0, d0 = map(float, rows[0].split(",")[:2])
    p1, d1 = map(float, rows[-1].split(",")[:2])
    quoted(f"six vertices from `(power {p0:g}, delay {d0:g})` down to `({p1:.4f}, {d1:.4f})`")

    capsys.readouterr()
    assert main(["lp", *VI_FLAGS, "--pth", "1.6"]) == 0
    assert capsys.readouterr().out == quoted("p_th=1.600000 delay=0.000000 status=optimal") + "\n"

    # a config without Q, completed by --Q: the line of the all-flags command
    cfg = tmp_path / "ref.cfg"
    cfg.write_text(quoted("# the reference instance, Q left to the flags\n"
                          "alpha=0.4\nA=2\nM=3\npower=0,1,4,9\n"))
    quoted("dpsched lp --config ref.cfg --Q 5 --pth 1.6")
    assert main(["lp", "--config", str(cfg), "--Q", "5", "--pth", "1.6"]) == 0
    assert capsys.readouterr().out == "p_th=1.600000 delay=0.000000 status=optimal\n"

    policy = tmp_path / "policy.csv"
    assert main(["lp", *VI_FLAGS, "--pth", "1.2", "--policy-out", str(policy)]) == 0
    capsys.readouterr()
    assert main(["simulate", *VI_FLAGS, "--policy", str(policy), "--slots", "1000000",
                 "--seed", "7", "--trace", str(tmp_path / "trace.csv")]) == 0
    assert capsys.readouterr().out == quoted(
        "slots=1000000 burn_in=10000 seed=7\n"
        "empirical_power=1.198249495\n"
        "empirical_delay=0.415205808\n"
        "overflow_violations=0 underflow_violations=0\n"
        "power_halfwidth=0.003643212 delay_halfwidth=0.001283117\n")
