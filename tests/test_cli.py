import json

import numpy as np
import pytest

from dpsched.cli import main
from dpsched.model import ThresholdPolicy, threshold_to_policy, validate_params

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
        assert "cloud skipped" in capsys.readouterr().err

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

    def test_bad_sweep_spec(self, capsys):
        assert main(["lp", *VI_FLAGS, "--sweep", "1.6:0.9:5"]) == 2
        assert main(["lp", *VI_FLAGS, "--sweep", "nonsense"]) == 2

    def test_missing_mode(self, capsys):
        assert main(["lp", *VI_FLAGS]) == 2

    def test_negative_budget(self, capsys):
        assert main(["lp", *VI_FLAGS, "--pth", "-1"]) == 2


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

    def test_missing_policy_file(self, capsys):
        assert main(["simulate", *VI_FLAGS, "--policy", "/nonexistent.csv", "--slots", "10"]) == 2

    def test_bad_slots(self, tmp_path, capsys):
        params = validate_params(0.4, 2, 3, 5, [0, 1, 4, 9])
        pol = threshold_to_policy(params, ThresholdPolicy((0, 1, 7, 7)))
        path = tmp_path / "policy.csv"
        path.write_text(pol.to_csv())
        assert main(["simulate", *VI_FLAGS, "--policy", str(path), "--slots", "0"]) == 2


class TestErrors:
    def test_missing_params(self, capsys):
        assert main(["pareto", "--alpha", "0.4"]) == 2
        assert "missing parameters" in capsys.readouterr().err

    def test_invalid_params(self, capsys):
        assert main(["lp", "--alpha", "1.5", "--A", "2", "--M", "3", "--Q", "5",
                     "--power", "0,1,4,9", "--pth", "1"]) == 2


class TestVerify:
    def test_battery_passes(self, capsys):
        rc = main(["verify", *VI_FLAGS, "--trials", "5", "--slots", "200000"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 6
        assert all(l.startswith("PASS") for l in lines)
