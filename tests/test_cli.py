"""Command-line front-end tests."""

import json
import math
import warnings

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

    def test_unknown_flag_nonzero_exit(self, capsys):
        assert run(["eval", "--function", "mwright", "--nu", "0.5",
                    "--x", "1", "--bogus", "3"]) == 2
        err = capsys.readouterr().err
        assert err == "error: mwright: unrecognized arguments: --bogus 3\n"

    def test_function_choices_are_the_table(self):
        sub = cli.build_parser()._subparsers._group_actions[0].choices
        for command, table in (("eval", cli._EVAL),
                               ("tabulate", cli._TABULATE)):
            (action,) = [a for a in sub[command]._actions
                         if a.dest == "function"]
            assert action.choices == list(table)

    @pytest.mark.parametrize("function", list(cli._EVAL))
    def test_each_missing_flag_is_named(self, capsys, function):
        needs = cli._EVAL[function][0]
        for missing in needs:
            argv = ["eval", "--function", function]
            for n in needs:
                if n != missing:
                    argv += [f"--{n}", "0.5"]
            assert run(argv) == 2
            assert capsys.readouterr().err == (
                f"error: function {function!r} requires --{missing}\n")

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam, mu", [("inf", "1"), ("0.5", "nan")])
    def test_wright_non_finite_index_is_an_order_error(self, capsys, lam, mu):
        assert run(["eval", "--function", "wright", "--lam", lam,
                    "--mu", mu, "--x", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("mu", ["0", "-2"])
    def test_wright_at_the_origin_of_a_gamma_pole(self, capsys, mu):
        # W_(lam,mu)(0) = 1/Gamma(mu) = 0 exactly
        assert run(["eval", "--function", "wright", "--lam", "0.5",
                    "--mu", mu, "--x", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["value"], doc["abs_err_estimate"]) == (0.0, 0.0)

    @pytest.mark.parametrize("argv,ref", [
        # Gamma(delta+1)/Gamma(nu delta+1) at the decimal inputs, 40 digits
        (["moment", "--nu", "0.3", "--delta", "200"],  # log-space route
         "9.477936411620799745276998721803732158075e+292"),
        (["mellin", "--nu", "0.3", "--s", "201"],
         "9.477936411620799745276998721803732158075e+292"),
        (["moment", "--nu", "0.99", "--delta", "170"],
         "6169.351978564240040244332282461021159832"),
        (["moment", "--nu", "0.25", "--delta", "150.3"],
         "2.315087589914843633109660618081550290763e+219"),
        (["moment", "--nu", "0.37", "--delta", "160.3"],
         "4.374901921837542912977296174805076680899e+204"),
        (["moment", "--nu", "0.5", "--delta", "0.5"],
         "0.977741067446923797631535468224759234145"),
        (["moment", "--nu", "0", "--delta", "-0.25"],
         "1.225416702465177645129098303362890526851"),
        (["moment", "--nu", "0.01", "--delta", "-0.999"],
         "993.5953352770504497885626765589532277316"),
        (["mellin", "--nu", "0.25", "--s", "2"],
         "1.10326265132083725743978215995325199903"),
    ])
    def test_moment_estimate_is_honest(self, capsys, argv, ref):
        assert run(["eval", "--function"] + argv) == 0
        doc = json.loads(capsys.readouterr().out)
        ref = float(ref)
        assert abs(doc["value"] - ref) <= doc["abs_err_estimate"]
        assert 0.0 < doc["abs_err_estimate"] <= 1e-11 * ref

    @pytest.mark.parametrize("argv", [
        ["wright", "--lam", "0.5", "--mu", "1", "--x", "-2"],
        ["mwright", "--nu", "0.3", "--x", "12"],
        ["fwright", "--nu", "0.3", "--x", "2"],
        ["mlf", "--nu", "0.6", "--s", "3"],
        ["moment", "--nu", "0.3", "--delta", "2"],
        ["mellin", "--nu", "0.3", "--s", "3"],
        ["green", "--alpha", "0.6", "--beta", "0.4", "--x", "1", "--t", "2"],
        ["drift", "--beta", "0.3", "--x", "2", "--t", "1.5"],
        ["drift", "--beta", "0.3", "--x=-2", "--t", "1.5"],
    ])
    def test_output_is_strict_json(self, capsys, argv):
        assert run(["eval", "--function"] + argv) == 0
        doc = json.loads(capsys.readouterr().out,
                         parse_constant=_refuse_constant)
        assert set(doc) == {"value", "abs_err_estimate", "method"}
        assert math.isfinite(doc["abs_err_estimate"])

    @pytest.mark.parametrize("argv, method, ref", [
        # 40 digits at the decimal inputs: the M_nu power series summed
        # with mpmath at 200 digits (150 digits agree to 1e-100)
        (["green", "--alpha", "1", "--beta", "1", "--K", "1", "--x", "0.5",
          "--t", "1"], "closed_form",
         "0.2650035323440285608743546334806666609708"),
        # the factor 1/(2 K^(1/2) t^(alpha/2)) is 5e4 here
        (["green", "--alpha", "1", "--beta", "0.4", "--K", "1e-6", "--x",
          "2e-5", "--t", "1e-4"], "series",
         "7744.100037581891891523868049803161565164"),
        (["green", "--alpha", "1.5", "--beta", "0.6", "--K", "2", "--x",
          "30", "--t", "0.8", "--tol", "0.1"], "asymptotic",
         "8.791985438010313415012350863640257575504e-20"),
        (["green", "--alpha", "0.8", "--beta", "0.5", "--K", "0.5",
          "--x=-12", "--t", "3"], "asymptotic",
         "1.550378315052198116413335785785443285168e-6"),
        (["drift", "--beta", "0.3", "--x", "2", "--t", "1.5"], "series",
         "0.1830973741517843482275117187901477706297"),
        (["drift", "--beta", "0.5", "--x", "1", "--t", "1", "--tol", "0.1"],
         "closed_form", "0.4393912894677223970468619774122289491813"),
        (["drift", "--beta", "0.25", "--x", "40", "--t", "2"], "asymptotic",
         "9.99213209497090040079409337247943179664e-24"),
        (["drift", "--beta", "0.6", "--x", "0.01", "--t", "4"], "series",
         "0.1965573857415877172806927374954969736398"),
    ])
    def test_green_and_drift_estimates_are_honest(self, capsys, argv,
                                                  method, ref):
        from mwright import greens
        assert run(["eval", "--function"] + argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == method
        assert abs(doc["value"] - float(ref)) <= doc["abs_err_estimate"]
        # the stable-integral route's rounding grows with the radius
        assert 0.0 < doc["abs_err_estimate"] <= 1e-8 * float(ref)
        # the library's value at 1e-12, whatever --tol says
        tokens = [t for a in argv[1:] for t in a.split("=")]
        v = {k[2:]: float(x) for k, x in zip(tokens[::2], tokens[1::2])}
        if argv[0] == "green":
            want = greens.green_density(
                greens.GreenSpec(v["alpha"], v["beta"], v["K"]), v["x"],
                v["t"])
        else:
            want = greens.drift_green(greens.DriftSpec(v["beta"]), v["x"],
                                      v["t"])
        assert doc["value"] == want

    def test_drift_behind_the_front(self, capsys):
        assert run(["eval", "--function", "drift", "--beta", "0.3",
                    "--x=-0.5", "--t", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"value": 0.0, "abs_err_estimate": 0.0,
                       "method": "closed_form"}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [
        ["tabulate", "--function", "mwright", "--params", "0.3"],
        ["green", "--alpha", "1", "--beta", "0.5", "--t", "1"],
    ])
    def test_grid_too_large_to_allocate(self, capsys, command):
        # 1e18 cells, 6.94 EiB: numpy refuses the array without allocating
        assert run(command + ["--xmin", "0", "--xmax", "1e12",
                              "--step", "1e-6"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, bound", [
        (["tabulate", "--function", "mwright", "--params", "0.3"],
         "--xmin=nan"),
        (["tabulate", "--function", "mwright", "--params", "0.3"],
         "--xmax=inf"),
        (["green", "--alpha", "1", "--beta", "0.5", "--t", "1"],
         "--xmin=-inf"),
        (["green", "--alpha", "1", "--beta", "0.5", "--t", "1"],
         "--xmax=nan"),
    ])
    def test_non_finite_bound_names_flag(self, capsys, command, bound):
        flag = bound.split("=")[0]
        other = "--xmax=1" if flag == "--xmin" else "--xmin=0"
        assert run(command + [bound, other, "--step", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{flag} must be finite" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["solve", "--alpha", "1", "--beta", "0.5", "--t-end", "inf"],
        ["green", "--alpha", "1", "--beta", "0.5", "--t", "inf"],
        ["eval", "--function", "drift", "--beta", "0.5", "--x", "1",
         "--t", "nan"],
        ["eval", "--function", "green", "--alpha", "1", "--beta", "0.5",
         "--x", "1", "--t", "1", "--K", "inf"],
        # the truncation terms at the stop overflow: NonConvergence, quietly
        ["eval", "--function", "wright", "--lam", "-0.155", "--mu", "-170.5",
         "--x", "1.575"],
        # an initial Gaussian that is no density: DomainError
        *(["solve", "--alpha", "1", "--beta", "0.5", "--t-end", "0.1",
           "--u0-std", std] for std in ("-1", "0", "nan", "inf", "5e-324")),
        *(["solve", "--alpha", "1", "--beta", "0.5", "--t-end", "0.1",
           "--halfwidth", hw] for hw in ("0", "-8", "inf", "1e-322")),
        # (2/dx)^2, and the stretched time 1e20^20, past the double range:
        # InvalidArgument
        ["solve", "--alpha", "1", "--beta", "0.5", "--t-end", "0.1",
         "--halfwidth", "1e-300"],
        ["solve", "--alpha", "2", "--beta", "0.1", "--t-end", "1e20"],
        # the Green function itself past the double range: ResultOverflow
        ["eval", "--function", "green", "--alpha", "2", "--beta", "0.5",
         "--x", "0", "--t", "5e-324"],
        ["verify", "--suite", "nope"],
    ])
    def test_rejected_input_writes_nothing_and_one_line(
            self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


class TestIOErrors:
    def test_missing_config_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert run(["eval", "--function", "mwright", "--nu", "0.5",
                    "--x", "1", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "missing.json" in err

    @pytest.mark.filterwarnings("error")
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

    @pytest.mark.parametrize("out", [None, "-"])
    def test_simulate_without_out_fails_before_sampling(self, capsys,
                                                        monkeypatch, out):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking --out")

        monkeypatch.setattr(cli.ggbm, "sample_paths", no_sampling)
        argv = ["simulate", "--alpha", "1", "--beta", "0.5",
                "--n-paths", "200000"]
        assert run(argv + ([] if out is None else ["--out", out])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--out" in err


    def test_result_overflow_is_one_error_line(self, capsys, tmp_path,
                                               monkeypatch):
        from mwright.errors import ResultOverflow

        def overflow(alpha, beta, p, t):
            raise ResultOverflow(f"the quantile at p=0.05, t={t!r} exceeds "
                                 f"the double range")

        monkeypatch.setattr(cli.ggbm, "marginal_quantile", overflow)
        assert run(["simulate", "--alpha", "1", "--beta", "0.5",
                    "--n-paths", "100", "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "p=0.05" in err

    def test_overflowing_covariance_is_one_error_line(self, capsys,
                                                       tmp_path):
        assert run(["simulate", "--alpha", "1.99", "--beta", "0.5",
                    "--times", "1.7e308", "--n-paths", "200",
                    "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "t=1.7e+308" in err and "alpha=1.99" in err
        assert list(tmp_path.iterdir()) == []


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

    def test_solve_from_a_narrow_gaussian_quietly(self, tmp_path):
        # std 1e-300: (x/std)^2 overflows off the centre node, where the
        # Gaussian is 0, and the peak 4e299 squared is past the double range
        out = tmp_path / "u.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["solve", "--alpha", "1", "--beta", "0.5", "--t-end",
                        "0.1", "--u0-std", "1e-300", "--out", str(out)]) == 0
        from mwright.gridfn import GridFunction
        gf = GridFunction.from_csv(str(out))
        dx = gf.xs[1] - gf.xs[0]
        assert np.isfinite(gf.ys).all()
        assert gf.ys.sum() * dx == pytest.approx(
            dx / (1e-300 * math.sqrt(2 * math.pi)), rel=1e-9)

    def test_simulate_stats_variance(self, tmp_path):
        assert run(["simulate", "--alpha", "1", "--beta", "1",
                    "--times-n", "64", "--t-max", "1", "--n-paths", "10000",
                    "--seed", "42", "--out", str(tmp_path / "e")]) == 0
        stats = json.loads((tmp_path / "e_stats.json").read_text())
        var, se = stats["variance"][-1], stats["variance_se"][-1]
        assert abs(var - 2.0) < 3.0 * se

    def test_simulate_at_a_small_order(self, tmp_path):
        # at beta = 0.001, 502 of these paths were inf and the stats NaN
        assert run(["simulate", "--alpha", "1", "--beta", "0.001", "--times",
                    "0.5,1", "--n-paths", "4096", "--seed", "1", "--out",
                    str(tmp_path / "p")]) == 0
        rows = np.loadtxt(tmp_path / "p.csv", delimiter=",")
        assert rows.shape == (4096, 2) and np.isfinite(rows).all()
        stats = json.loads((tmp_path / "p_stats.json").read_text(),
                           parse_constant=_refuse_constant)
        assert stats["chi2_pvalue"] > 0.01

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

    @pytest.mark.parametrize("times", ["1", "0.5,1", "1e200"])
    def test_simulate_with_fewer_than_three_times(self, tmp_path, times):
        # RuntimeWarnings are errors (pyproject.toml), so an empty mean, a
        # 0/0 or a fourth central moment past the double range (1e200)
        # fails the run
        assert run(["simulate", "--alpha", "1", "--beta", "0.5",
                    "--times", times, "--n-paths", "200",
                    "--out", str(tmp_path / "e")]) == 0

        def no_constant(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads((tmp_path / "e_stats.json").read_text(),
                         parse_constant=no_constant)
        assert doc["lag1_increment_corr"] is None
        assert doc["lag1_increment_corr_se"] is None
        assert len(doc["variance"]) == len(times.split(","))

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

    def test_config_defaults_stay_with_their_call(self, tmp_path,
                                                   monkeypatch):
        # the parser is built once per process; a --config call must not
        # leave its defaults in it
        seen = []

        def record(u0, spec, t_end, nt, halfwidth):
            seen.append(nt)
            return u0

        monkeypatch.setattr(cli.greens, "solve_volterra", record)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nt": 16}))
        base = ["solve", "--alpha", "1", "--beta", "0.8", "--t-end", "0.1",
                "--nx", "21", "--out", str(tmp_path / "u.csv")]
        assert run(base + ["--config", str(cfg)]) == 0
        assert run(base) == 0
        assert run(base + ["--config", str(cfg)]) == 0
        assert seen == [16, 256, 16]

    SOLVE = ["solve", "--alpha", "1", "--beta", "0.5", "--t-end", "0.1"]
    SIMULATE = ["simulate", "--alpha", "1", "--beta", "0.5", "--n-paths",
                "10"]
    TABULATE = ["tabulate", "--function", "mwright", "--params", "0.3",
                "--xmin", "0", "--xmax", "1", "--step", "0.5"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,entry", [
        (SOLVE, {"nt": 20.5}),
        (SOLVE, {"nx": 21.0}),
        (SOLVE, {"halfwidth": "wide"}),
        (SOLVE, {"u0-std": [1.0]}),
        (SIMULATE, {"seed": 1.5}),
        (SIMULATE, {"seed": True}),
        (TABULATE, {"log10": "no"}),
        (["eval", "--function", "mwright", "--x", "1"], {"nu": "abc"}),
    ])
    def test_config_value_of_the_wrong_type_names_its_key(
            self, capsys, tmp_path, argv, entry):
        # each entry converts as its flag converts a command-line string
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        out = ["--out", str(tmp_path / "o")]
        assert run(argv + out + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config entry ") and err.count("\n") == 1
        assert repr(next(iter(entry))) in err

    def test_config_strings_convert_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nt": "16", "nx": 21, "halfwidth": "6"}))
        assert run(self.SOLVE + ["--config", str(cfg),
                                 "--out", str(tmp_path / "cfg.csv")]) == 0
        flags = ["--nt", "16", "--nx", "21", "--halfwidth", "6"]
        assert run(self.SOLVE + flags
                   + ["--out", str(tmp_path / "flags.csv")]) == 0
        assert (tmp_path / "cfg.csv").read_bytes() \
            == (tmp_path / "flags.csv").read_bytes()

    def test_config_switch_takes_a_boolean(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for flag in (True, False):
            cfg.write_text(json.dumps({"log10": flag}))
            path = tmp_path / f"t_{flag}.csv"
            assert run(self.TABULATE + ["--config", str(cfg),
                                        "--out", str(path)]) == 0
            assert ("log10|" in path.read_text()) is flag

    def test_per_subcommand_tol_defaults(self):
        ap = cli.build_parser()
        assert ap.parse_args(["eval", "--function", "mwright"]).tol == 1e-10

    @pytest.mark.parametrize("argv", [
        ["eval", "--function", "mwright", "--nu", "0.5", "--x", "1",
         "--seed", "3"],
        ["verify", "--suite", "fraccalc", "--seed", "3"],
        ["solve", "--alpha", "1", "--beta", "1", "--t-end", "0.1",
         "--tol", "1e-8"],
        ["green", "--alpha", "1", "--beta", "1", "--t", "1", "--tol", "1e-8"],
        ["verify", "--tol", "1e-8"],
        ["verify", "--paths", "1000"],
    ])
    def test_unused_flags_rejected(self, capsys, argv):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mwright") and err.count("\n") == 1
        assert "unrecognized arguments" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (["verify", "--paths", "10"],
         "mwright: unrecognized arguments: --paths 10"),
        (["tabulate", "--function", "mwright"],
         "mwright tabulate: the following arguments are required: "
         "--params, --xmin, --xmax, --step"),
        (["eval", "--function", "mwright", "--nu", "abc", "--x", "1"],
         "mwright eval: argument --nu: invalid float value: 'abc'"),
        (["nosuch"], "mwright: argument command: invalid choice: 'nosuch'"),
    ])
    def test_usage_error_is_one_line(self, capsys, argv, message):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: " + message)
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out


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


def _per_value(rows) -> str:
    """The CSV body as a per-value "%.17g" writer prints it."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)


def _parse(lines) -> np.ndarray:
    return np.array([[float(v) for v in line.split(",")] for line in lines])


@pytest.fixture
def written(monkeypatch):
    """Every array a writer hands to the encoder, in call order."""
    from mwright import _csv
    seen = []
    encode = _csv.write_rows

    def spy(fh, values):
        seen.append(np.array(values, dtype=float))
        encode(fh, values)

    monkeypatch.setattr(_csv, "write_rows", spy)
    return seen


class TestCsvRoundTrip:
    """CLI CSVs parse back to the computed arrays, bit for bit, and equal
    the per-value writer's text."""

    @pytest.mark.parametrize("log10", [False, True])
    def test_tabulate(self, tmp_path, written, log10):
        from mwright import greens
        out = tmp_path / "t.csv"
        # drift is zero for x < 0, so the log panel holds -inf cells
        assert run(["tabulate", "--function", "drift", "--params", "0.3,0.7",
                    "--xmin", "-1", "--xmax", "7", "--step", "0.125",
                    "--out", str(out)] + ["--log10"] * log10) == 0
        (table,) = written
        xs = np.arange(-1.0, 7.0 + 0.0625, 0.125)
        linear = [xs] + [greens.drift_green_values(greens.DriftSpec(b), xs,
                                                   1.0) for b in (0.3, 0.7)]
        logs = [[math.log10(abs(y)) if abs(y) > 0 else -math.inf for y in c]
                for c in linear[1:]] if log10 else []
        want = np.column_stack(linear + logs)
        assert table.tobytes() == want.tobytes()
        assert np.isneginf(table).any() == log10
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[3:] == (
            ["log10|drift_0.3|", "log10|drift_0.7|"] if log10 else [])
        assert "\n".join(lines[2:]) + "\n" == _per_value(want)
        assert _parse(lines[2:]).tobytes() == want.tobytes()

    def test_tabulate_fwright(self, tmp_path, written):
        from mwright import specfun
        out = tmp_path / "f.csv"
        assert run(["tabulate", "--function", "fwright", "--params",
                    "0.25,0.6", "--xmin", "-2", "--xmax", "12", "--step",
                    "0.25", "--tol", "1e-9", "--out", str(out)]) == 0
        (table,) = written
        xs = np.arange(-2.0, 12.0 + 0.125, 0.25)
        want = np.column_stack([xs] + [
            p * np.abs(xs) * specfun.m_wright_values(p, np.abs(xs), 1e-9)
            for p in (0.25, 0.6)])
        assert table.tobytes() == want.tobytes()
        assert out.read_text() == (
            "# tabulate function=fwright params=0.25,0.6 xmin=-2.0 "
            "xmax=12.0 step=0.25\nx,fwright_0.25,fwright_0.6\n"
            + _per_value(want))

    def test_tabulate_green(self, tmp_path, written):
        from mwright import greens
        out = tmp_path / "g.csv"
        assert run(["tabulate", "--function", "green", "--params", "0.4,1",
                    "--alpha", "0.7", "--K", "2", "--t", "0.5", "--xmin",
                    "-3", "--xmax", "3", "--step", "0.5", "--out",
                    str(out)]) == 0
        (table,) = written
        xs = np.arange(-3.0, 3.0 + 0.25, 0.5)
        want = np.column_stack([xs] + [greens.green_density_values(
            greens.GreenSpec(0.7, b, 2.0), xs, 0.5) for b in (0.4, 1.0)])
        assert table.tobytes() == want.tobytes()
        assert out.read_text() == (
            "# tabulate function=green params=0.4,1 xmin=-3.0 xmax=3.0 "
            "step=0.5 alpha=0.7 K=2.0 t=0.5\nx,green_0.4,green_1\n"
            + _per_value(want))

    def test_green(self, tmp_path, written):
        from mwright import greens
        out = tmp_path / "g.csv"
        assert run(["green", "--alpha", "0.6", "--beta", "0.4", "--t", "0.5",
                    "--xmin", "-3", "--xmax", "3", "--step", "0.05",
                    "--out", str(out)]) == 0
        (table,) = written
        xs = np.arange(-3.0, 3.0 + 0.025, 0.05)
        ys = greens.green_density_values(greens.GreenSpec(0.6, 0.4, 1.0),
                                         xs, 0.5)
        assert table.tobytes() == np.column_stack([xs, ys]).tobytes()
        lines = out.read_text().splitlines()[1:]
        assert "\n".join(lines) + "\n" == _per_value(table)
        assert _parse(lines).tobytes() == table.tobytes()

    def test_solve(self, tmp_path, written, monkeypatch):
        from mwright import greens
        solved = []
        solve = greens.solve_volterra

        def keep(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(cli.greens, "solve_volterra", keep)
        out = tmp_path / "u.csv"
        assert run(["solve", "--alpha", "1", "--beta", "0.6", "--t-end",
                    "0.2", "--nt", "16", "--nx", "101", "--out",
                    str(out)]) == 0
        (table,) = written
        want = np.column_stack([solved[0].xs, solved[0].ys])
        assert table.tobytes() == want.tobytes()
        lines = out.read_text().splitlines()[1:]
        assert "\n".join(lines) + "\n" == _per_value(want)
        assert _parse(lines).tobytes() == want.tobytes()

    @pytest.mark.parametrize("argv", [
        ["green", "--alpha", "0.6", "--beta", "0.4", "--t", "0.5", "--xmin",
         "-3", "--xmax", "3", "--step", "0.25"],
        ["solve", "--alpha", "1", "--beta", "0.6", "--t-end", "0.2", "--nt",
         "16", "--nx", "51"],
        ["tabulate", "--function", "drift", "--params", "0.3,0.7", "--xmin",
         "-1", "--xmax", "3", "--step", "0.25", "--log10"],
        ["eval", "--function", "mlf", "--nu", "0.5", "--s", "2"],
        ["verify", "--suite", "fraccalc"],
    ])
    def test_stdout(self, tmp_path, capsys, argv):
        # "--out -" and no --out print the bytes that --out FILE writes
        out = tmp_path / "f.csv"
        assert run(argv + ["--out", str(out)]) == 0
        for tail in (["--out", "-"], []):
            capsys.readouterr()
            assert run(argv + tail) == 0
            assert capsys.readouterr().out == out.read_text()

    def test_simulate(self, tmp_path, written):
        from mwright import ggbm
        assert run(["simulate", "--alpha", "0.7", "--beta", "0.4",
                    "--times", "0.001,0.5,1,1000", "--n-paths", "700",
                    "--seed", "9", "--out", str(tmp_path / "e")]) == 0
        spec = ggbm.CovSpec(0.7, 0.4, np.array([0.001, 0.5, 1.0, 1000.0]))
        want = ggbm.sample_paths(spec, 700, 9).paths
        assert np.concatenate(written).tobytes() == want.tobytes()
        lines = (tmp_path / "e.csv").read_text().splitlines()
        assert lines[1] == "# " + _per_value([spec.times]).rstrip("\n")
        assert "\n".join(lines[2:]) + "\n" == _per_value(want)
        assert _parse(lines[2:]).tobytes() == want.tobytes()
