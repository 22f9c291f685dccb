"""Command-line front-end tests."""

import json
import math

import numpy as np
import pytest

from mwright import cli


def run(argv):
    return cli.main(argv)


class TestEval:
    def test_mwright_json(self, capsys, tmp_path):
        assert run(["eval", "--function", "mwright", "--nu", "0.5",
                    "--x", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.43939128946772239705)
        assert doc["method"] == "closed_form"

    def test_missing_parameter_is_domain_error(self, capsys):
        assert run(["eval", "--function", "mwright", "--x", "1.0"]) == 2
        assert "requires --nu" in capsys.readouterr().err

    def test_out_of_domain_parameter(self, capsys):
        assert run(["eval", "--function", "mwright", "--nu", "1.5",
                    "--x", "1.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nu" in err

    def test_unknown_flag_nonzero_exit(self):
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--function", "mwright", "--nu", "0.5",
                 "--x", "1", "--bogus", "3"])
        assert exc.value.code != 0

    def test_drift_eval(self, capsys):
        assert run(["eval", "--function", "drift", "--beta", "0.5",
                    "--x", "0.0", "--t", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.56418958354775628695)

    def test_remaining_eval_functions(self, capsys):
        cases = [
            (["--function", "wright", "--lam", "0", "--mu", "1",
              "--x", "1"], math.e),
            (["--function", "fwright", "--nu", "0.5", "--x", "1"],
             0.5 * 0.43939128946772239705),
            (["--function", "mlf", "--nu", "1", "--s", "1"],
             math.exp(-1.0)),
            (["--function", "moment", "--nu", "0.5", "--delta", "2"], 2.0),
            (["--function", "mellin", "--nu", "0.5", "--s", "3"], 2.0),
            (["--function", "green", "--alpha", "1", "--beta", "1",
              "--x", "0", "--t", "1"], 0.28209479177387814347),
        ]
        for argv, want in cases:
            assert run(["eval"] + argv) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["value"] == pytest.approx(want, rel=1e-12)


class TestTabulate:
    def test_limit_columns_match_closed_forms(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert run(["tabulate", "--function", "mwright",
                    "--params", "0,0.125,0.25,0.375,0.5",
                    "--xmin", "-5", "--xmax", "5", "--step", "0.01",
                    "--log10", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")]
        header = lines[0].split(",")
        rows = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        assert header[0] == "x"
        assert rows.shape[0] == 1001
        x = rows[:, 0]
        np.testing.assert_allclose(rows[:, 1], np.exp(-np.abs(x)),
                                   atol=1e-14)
        np.testing.assert_allclose(
            rows[:, 5], np.exp(-x * x / 4.0) / math.sqrt(math.pi),
            atol=1e-14)
        # log panels mirror the linear ones
        np.testing.assert_allclose(rows[:, 6], np.log10(rows[:, 1]),
                                   atol=1e-13)

    def test_round_trip_exact(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["tabulate", "--function", "mwright", "--params", "0.3",
                    "--xmin", "0", "--xmax", "2", "--step", "0.25",
                    "--out", str(out), "--tol", "1e-10"]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")][1:]
        from mwright import specfun
        xs = np.array([float(l.split(",")[0]) for l in lines])
        ys = np.array([float(l.split(",")[1]) for l in lines])
        want = specfun.m_wright_values(0.3, np.abs(xs), 1e-10)
        # 17-significant-digit serialization parses back bit-exactly
        assert np.array_equal(ys, want)

    def test_mlf_exponential_column(self, tmp_path):
        out = tmp_path / "mlf.csv"
        assert run(["tabulate", "--function", "mlf", "--params", "1",
                    "--xmin", "0", "--xmax", "5", "--step", "0.5",
                    "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        for line in rows:
            s, y = (float(v) for v in line.split(","))
            assert y == pytest.approx(math.exp(-s), rel=1e-12)

    def test_drift_column_matches_library(self, tmp_path):
        out = tmp_path / "drift.csv"
        assert run(["tabulate", "--function", "drift", "--params", "0.5",
                    "--t", "1", "--xmin", "0", "--xmax", "6",
                    "--step", "0.5", "--out", str(out)]) == 0
        from mwright import greens
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        spec = greens.DriftSpec(0.5)
        for line in rows:
            x, y = (float(v) for v in line.split(","))
            assert y == greens.drift_green(spec, x, 1.0)

    def test_domain_error_names_parameter(self, capsys):
        assert run(["tabulate", "--function", "fwright", "--params", "1.5",
                    "--xmin", "0", "--xmax", "1", "--step", "0.5"]) == 2
        assert "fwright order" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["0", "-0.5"])
    def test_non_positive_step_names_flag(self, capsys, step):
        assert run(["tabulate", "--function", "mwright", "--params", "0.5",
                    "--xmin", "0", "--xmax", "1", "--step", step]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--step" in err

    def test_green_non_positive_step_names_flag(self, capsys):
        assert run(["green", "--alpha", "1", "--beta", "0.5", "--t", "1",
                    "--step", "0"]) == 2
        assert "--step" in capsys.readouterr().err


class TestIOErrors:
    def test_missing_config_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert run(["eval", "--function", "mwright", "--nu", "0.5",
                    "--x", "1", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "missing.json" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--function", "mwright", "--nu", "0.5", "--x", "1"],
        ["tabulate", "--function", "mwright", "--params", "0.5",
         "--xmin", "0", "--xmax", "1", "--step", "0.5"],
    ])
    def test_out_path_in_missing_directory(self, capsys, tmp_path, argv):
        out = tmp_path / "no_such_dir" / "out.csv"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestGreenSolveSimulate:
    def test_green_profile_header(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["green", "--alpha", "1", "--beta", "0.5", "--t", "1",
                    "--xmin", "-2", "--xmax", "2", "--step", "0.5",
                    "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# alpha=1.0 beta=0.5 K=1.0 t=1.0")
        from mwright.gridfn import GridFunction
        gf = GridFunction.from_csv(str(out))
        assert len(gf) == 9

    def test_solve_runs(self, tmp_path):
        out = tmp_path / "u.csv"
        assert run(["solve", "--alpha", "1", "--beta", "1", "--t-end", "0.1",
                    "--nt", "32", "--nx", "201", "--halfwidth", "6",
                    "--out", str(out)]) == 0
        from mwright.gridfn import GridFunction
        gf = GridFunction.from_csv(str(out))
        dx = gf.xs[1] - gf.xs[0]
        assert gf.ys.sum() * dx == pytest.approx(1.0, abs=1e-6)

    def test_simulate_stats_variance(self, tmp_path):
        assert run(["simulate", "--alpha", "1", "--beta", "1",
                    "--times-n", "64", "--t-max", "1", "--n-paths", "10000",
                    "--seed", "42", "--out", str(tmp_path / "e")]) == 0
        stats = json.loads((tmp_path / "e_stats.json").read_text())
        var, se = stats["variance"][-1], stats["variance_se"][-1]
        assert abs(var - 2.0) < 3.0 * se

    def test_simulate_reproducible(self, tmp_path):
        args = ["simulate", "--alpha", "1", "--beta", "1", "--times-n", "16",
                "--t-max", "1", "--n-paths", "300", "--seed", "42"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.csv").read_bytes() \
            == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()
        stats = json.loads((tmp_path / "a_stats.json").read_text())
        assert stats["n_paths"] == 300

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nu": 0.5, "x": 1.0}))
        assert run(["eval", "--function", "mwright",
                    "--config", str(cfg)]) == 0
        v_cfg = json.loads(capsys.readouterr().out)["value"]
        assert v_cfg == pytest.approx(0.43939128946772239705)
        # explicit flag wins over the config entry
        assert run(["eval", "--function", "mwright", "--config", str(cfg),
                    "--x", "0.0"]) == 0
        v_flag = json.loads(capsys.readouterr().out)["value"]
        assert v_flag == pytest.approx(0.56418958354775628695)


class TestFlagsAndConfig:
    def test_config_overrides_flag_defaults(self, tmp_path):
        # nt and nx have non-None defaults; the config must still win
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nt": 16, "nx": 21}))
        base = ["solve", "--alpha", "1", "--beta", "0.8", "--t-end", "0.1",
                "--halfwidth", "6"]
        assert run(base + ["--config", str(cfg),
                           "--out", str(tmp_path / "cfg.csv")]) == 0
        assert run(base + ["--nt", "16", "--nx", "21",
                           "--out", str(tmp_path / "flags.csv")]) == 0
        assert (tmp_path / "cfg.csv").read_bytes() \
            == (tmp_path / "flags.csv").read_bytes()

    def test_per_subcommand_tol_defaults(self):
        ap = cli.build_parser()
        assert ap.parse_args(["verify"]).tol == 1e-6
        assert ap.parse_args(["eval", "--function", "mwright"]).tol == 1e-10

    @pytest.mark.parametrize("argv", [
        ["eval", "--function", "mwright", "--nu", "0.5", "--x", "1",
         "--seed", "3"],
        ["verify", "--suite", "fraccalc", "--seed", "3"],
        ["solve", "--alpha", "1", "--beta", "1", "--t-end", "0.1",
         "--tol", "1e-8"],
        ["green", "--alpha", "1", "--beta", "1", "--t", "1", "--tol", "1e-8"],
    ])
    def test_unused_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_subset_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run(["verify", "--suite", "fraccalc", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] is True
        names = [c["name"] for c in rep["suites"]["fraccalc"]]
        assert "semigroup on power laws" in names
        for c in rep["suites"]["fraccalc"]:
            assert set(c) >= {"name", "residual", "threshold", "passed"}

    def test_unknown_suite(self, capsys):
        assert run(["verify", "--suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err
