"""Command-line interface tests."""

import csv
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

import yaml

from stablegarch.cli import _accuracy_from_config, main
from stablegarch.data import read_returns_csv, write_returns_csv, ReturnSeries
from stablegarch.estimate import FitResult
from stablegarch.risk import var_series
from stablegarch.stable import DensityAccuracy


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


class TestSimulateCommand:
    def test_deterministic_byte_identical(self, runner, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            r = invoke(runner, ["simulate", "--output", str(path), "--n", "200",
                                "--seed", "5"])
            assert r.exit_code == 0, r.output
        assert a.read_bytes() == b.read_bytes()

    def test_k_infinity_stable_innovations(self, runner, tmp_path):
        out = tmp_path / "r.csv"
        r = invoke(runner, ["simulate", "--output", str(out), "--n", "300",
                            "--seed", "1", "--k", "inf", "--alpha", "1.6"])
        assert r.exit_code == 0
        series = read_returns_csv(out)
        assert len(series) == 300

    def test_zero_n_usage_error(self, runner):
        r = invoke(runner, ["simulate", "--n", "0"])
        assert r.exit_code != 0
        assert "n must be" in r.output

    def test_negative_burn_in_usage_error(self, runner):
        r = invoke(runner, ["simulate", "--burn-in", "-5"])
        assert r.exit_code != 0
        assert "--burn-in must be >= 0" in r.output

    @pytest.mark.parametrize("k_args", [[], ["--k", "inf"]], ids=["stable", "summed"])
    def test_negative_seed_usage_error(self, runner, tmp_path, k_args):
        out = tmp_path / "x.csv"
        r = invoke(runner, ["simulate", "--seed", "-1", *k_args, "--output", str(out)])
        assert r.exit_code == 2
        assert "'--seed'" in r.output
        assert not out.exists()

    def test_explosion_surfaces_parameters(self, runner, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("model: {omega: 0.01, a: [3.0], b: [0.9]}\n"
                       "innovation: {alpha: 1.2}\n")
        r = invoke(runner, ["simulate", "--config", str(cfg), "--n", "5000",
                            "--output", str(tmp_path / "x.csv")])
        assert r.exit_code != 0
        assert "omega=0.01" in r.output

    @pytest.mark.parametrize("block, text", [
        ("model", "model: {omega: -1}\n"),
        ("innovation", "innovation: {alpha: 2.5}\n"),
    ])
    def test_invalid_config_block_names_the_block(self, runner, tmp_path, block, text):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        r = invoke(runner, ["simulate", "--config", str(cfg), "--n", "50",
                            "--output", str(tmp_path / "x.csv")])
        assert r.exit_code != 0
        assert r.output.startswith(f"Error: {block}:")

    def test_invalid_alpha_option_is_a_message(self, runner, tmp_path):
        r = invoke(runner, ["simulate", "--alpha", "3", "--n", "50",
                            "--output", str(tmp_path / "x.csv")])
        assert r.exit_code != 0
        assert r.output.startswith("Error: --alpha:")

    def test_invalid_experiment_model_is_a_message(self, runner, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("model: {omega: -1}\n")
        r = invoke(runner, ["experiment", "--config", str(cfg),
                            "--output", str(tmp_path / "t.csv")])
        assert r.exit_code != 0
        assert r.output.startswith("Error: model:")


class TestFitCommand:
    @pytest.fixture(scope="class")
    def sim_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fitdata") / "returns.csv"
        CliRunner().invoke(main, ["simulate", "--output", str(path), "--n", "900",
                                  "--seed", "2"], catch_exceptions=False)
        return path

    def test_stable_fit_round_trip(self, runner, sim_csv, tmp_path):
        out = tmp_path / "fit.json"
        r = invoke(runner, ["fit", "--input", str(sim_csv), "--output", str(out),
                            "--n-starts", "2", "--seed", "0"])
        assert r.exit_code == 0, r.output
        doc = json.loads(out.read_text())
        assert doc["method"] == "stable"
        est = dict(zip(doc["names"], doc["estimates"]))
        assert abs(est["b1"] - 0.7) < 0.25
        assert abs(est["alpha"] - 1.6) < 0.25
        assert doc["data"]["n"] == 900

    def test_negative_seed_usage_error(self, runner, sim_csv, tmp_path):
        out = tmp_path / "fit.json"
        r = invoke(runner, ["fit", "--input", str(sim_csv), "--seed", "-1",
                            "--output", str(out)])
        assert r.exit_code == 2
        assert "'--seed'" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("method", ["gaussian", "stable"])
    def test_dated_fit_document_round_trips(self, runner, sim_csv, tmp_path, method):
        # the API reads the CLI's document, data window included, and
        # writes it back unchanged
        series = read_returns_csv(sim_csv)
        dates = [str(d) for d in np.datetime64("2001-01-01") + np.arange(len(series))]
        dated = tmp_path / "dated.csv"
        write_returns_csv(dated, ReturnSeries(series.values, dates))
        first, second = tmp_path / "fit.json", tmp_path / "again.json"
        r = invoke(runner, ["fit", "--input", str(dated), "--output", str(first),
                            "--method", method, "--n-starts", "1"])
        assert r.exit_code in (0, 3), r.output
        doc = json.loads(first.read_text())
        assert doc["data"] == {"n": 900, "first_date": dates[0], "last_date": dates[-1]}
        assert "n_obs" not in doc
        FitResult.from_json(first).to_json(second)
        assert second.read_text() == first.read_text()

    @pytest.mark.parametrize("value", ["0", "-2", "6"])
    def test_n_starts_outside_its_range_is_a_usage_error(self, runner, sim_csv, value):
        r = invoke(runner, ["fit", "--input", str(sim_csv), "--n-starts", value])
        assert r.exit_code == 2
        assert f"'--n-starts': {value} is not in the range 1<=x<=5" in r.output

    def test_gaussian_dispatch(self, runner, sim_csv, tmp_path):
        out = tmp_path / "g.json"
        r = invoke(runner, ["fit", "--input", str(sim_csv), "--output", str(out),
                            "--method", "gaussian"])
        assert r.exit_code == 0, r.output
        doc = json.loads(out.read_text())
        assert doc["method"] == "gaussian"
        assert doc["names"] == ["omega", "a1", "b1"]

    def test_empty_file_is_parse_error(self, runner, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        r = invoke(runner, ["fit", "--input", str(path)])
        assert r.exit_code == 1
        assert "empty" in r.output

    def test_non_finite_values_rejected_with_rows(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("return\n0.1\nnan\n0.2\n")
        r = invoke(runner, ["fit", "--input", str(path)])
        assert r.exit_code == 1
        assert "non-finite" in r.output

    def test_malformed_cell_names_row_and_column(self, runner, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("date,return\n2020-01-01,0.1\n2020-01-02,oops\n")
        r = invoke(runner, ["fit", "--input", str(path)])
        assert r.exit_code == 1
        assert "row 3" in r.output and "return" in r.output

    def test_negative_column_is_parse_error(self, runner, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("date,return\n2020-01-01,0.1\n")
        r = invoke(runner, ["fit", "--input", str(path), "--column", "-5"])
        assert r.exit_code == 1
        assert "'-5'" in r.output
        with pytest.raises(ValueError, match="out of range"):
            read_returns_csv(path, -5)

    def test_unknown_accuracy_setting_named(self, runner, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("return\n0.1\n-0.2\n0.05\n")
        cfg = tmp_path / "c.yaml"
        cfg.write_text("accuracy: {fft_domain_halfwidth: 3.0}\n")
        r = invoke(runner, ["fit", "--input", str(path), "--config", str(cfg)])
        assert r.exit_code == 1
        assert "fft_domain_halfwidth" in r.output

    def test_accuracy_settings_replace_fit_accuracy(self):
        acc = _accuracy_from_config(yaml.safe_load("accuracy: {abs_tol: 1e-5}"))
        assert acc == DensityAccuracy(1e-5, 260, 2 ** 16)


class TestVarCommand:
    def test_reports_and_series(self, runner, tmp_path):
        data = tmp_path / "r.csv"
        outs = tmp_path / "o.csv"
        invoke(runner, ["simulate", "--output", str(data), "--n", "900", "--seed", "3"])
        invoke(runner, ["simulate", "--output", str(outs), "--n", "700", "--seed", "4"])
        fit_json = tmp_path / "f.json"
        invoke(runner, ["fit", "--input", str(data), "--output", str(fit_json),
                        "--method", "gaussian"])
        rep = tmp_path / "report.json"
        var_csv = tmp_path / "var.csv"
        r = invoke(runner, ["var", "--fit", str(fit_json), "--outsample", str(outs),
                            "--p", "0.01,0.05", "--report", str(rep),
                            "--series-output", str(var_csv)])
        assert r.exit_code == 0, r.output
        doc = json.loads(rep.read_text())
        assert len(doc["reports"]) == 2
        ps = sorted(d["p"] for d in doc["reports"])
        assert ps == [0.01, 0.05]
        header = var_csv.read_text().splitlines()[0]
        assert "var_gaussian_p0.01" in header and "hit_gaussian_p0.05" in header

    def test_report_hits_are_the_csv_hit_column(self, runner, tmp_path, monkeypatch):
        import stablegarch.cli
        import stablegarch.risk
        data, outs = tmp_path / "r.csv", tmp_path / "o.csv"
        invoke(runner, ["simulate", "--output", str(data), "--n", "900", "--seed", "3"])
        invoke(runner, ["simulate", "--output", str(outs), "--n", "700", "--seed", "4"])
        fit_json = tmp_path / "f.json"
        invoke(runner, ["fit", "--input", str(data), "--output", str(fit_json),
                        "--method", "gaussian"])
        calls = []

        def counted(fit, outsample, p):
            calls.append(p)
            return var_series(fit, outsample, p)
        # under both names, so a backtest inside the command counts too
        monkeypatch.setattr(stablegarch.cli, "var_series", counted)
        monkeypatch.setattr(stablegarch.risk, "var_series", counted)
        rep, var_csv = tmp_path / "report.json", tmp_path / "var.csv"
        r = invoke(runner, ["var", "--fit", str(fit_json), "--fit", str(fit_json),
                            "--outsample", str(outs), "--p", "0.01,0.05",
                            "--report", str(rep), "--series-output", str(var_csv)])
        assert r.exit_code == 0, r.output
        assert calls == [0.01, 0.05, 0.01, 0.05]
        with open(var_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for d in json.loads(rep.read_text())["reports"]:
            column = [float(row[f"hit_gaussian_p{d['p']:g}"]) for row in rows]
            assert d["hits"] == sum(column) > 0
            assert d["total"] == len(rows) - 1

    def test_each_fit_keeps_its_columns(self, runner, tmp_path):
        # two fits of one method: the second writes its own columns, so
        # each report's hits are the sum of that fit's hit column
        outs, fits = tmp_path / "o.csv", []
        invoke(runner, ["simulate", "--output", str(outs), "--n", "700", "--seed", "4"])
        for seed in ("3", "5"):
            data, fit_json = tmp_path / f"r{seed}.csv", tmp_path / f"f{seed}.json"
            invoke(runner, ["simulate", "--output", str(data), "--n", "900", "--seed", seed])
            invoke(runner, ["fit", "--input", str(data), "--output", str(fit_json),
                            "--method", "gaussian"])
            fits += ["--fit", str(fit_json)]
        rep, var_csv = tmp_path / "report.json", tmp_path / "var.csv"
        r = invoke(runner, ["var", *fits, "--outsample", str(outs), "--p", "0.05",
                            "--report", str(rep), "--series-output", str(var_csv)])
        assert r.exit_code == 0, r.output
        with open(var_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        reports = json.loads(rep.read_text())["reports"]
        assert [d["method"] for d in reports] == ["gaussian", "gaussian"]
        for d, tag in zip(reports, ("gaussian", "gaussian_2")):
            assert d["hits"] == sum(float(row[f"hit_{tag}_p0.05"]) for row in rows)
        assert reports[0]["hits"] != reports[1]["hits"]
        assert any(row["sigma_gaussian"] != row["sigma_gaussian_2"] for row in rows)

    def test_missing_fit_file_usage_error(self, runner, tmp_path):
        outs = tmp_path / "o.csv"
        write_returns_csv(outs, ReturnSeries(np.array([0.1, -0.2])))
        r = invoke(runner, ["var", "--fit", str(tmp_path / "nope.json"),
                            "--outsample", str(outs)])
        assert r.exit_code != 0

    def test_fit_file_without_fields_named(self, runner, tmp_path):
        outs = tmp_path / "o.csv"
        write_returns_csv(outs, ReturnSeries(np.array([0.1, -0.2])))
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        r = invoke(runner, ["var", "--fit", str(bad), "--outsample", str(outs)])
        assert r.exit_code == 1
        assert "bad.json" in r.output and "order" in r.output

    def test_single_return_outsample_named(self, runner, tmp_path):
        # the first return has no forecast, so one return leaves nothing to test
        outs = tmp_path / "o.csv"
        write_returns_csv(outs, ReturnSeries(np.array([0.1])))
        fit = tmp_path / "f.json"
        fit.write_text("{}")
        r = invoke(runner, ["var", "--fit", str(fit), "--outsample", str(outs)])
        assert r.exit_code == 1
        assert "two returns" in r.output

    def test_uncertified_quantile_named(self, runner, tmp_path):
        # near alpha = 1 the shift tau = beta tan(alpha pi/2) is huge: no
        # series certifies the cdf of S(1.001, 0.5) at the default levels
        # 0.01 and 0.05 and its spline certifies nothing, so the quantile has
        # nothing to invert: the error names the fit, and no output is written
        outs = tmp_path / "o.csv"
        write_returns_csv(outs, ReturnSeries(np.array([0.1, -0.2, 0.05])))
        fit = tmp_path / "f.json"
        fit.write_text(json.dumps({
            "method": "stable", "order": {"p": 1, "q": 1},
            "names": ["omega", "a1", "b1", "alpha", "beta", "mu"],
            "estimates": [0.01, 0.05, 0.8, 1.001, 0.5, 0.0], "std_errors": None,
            "neg_loglik": 1.0, "J_n": None, "iterations": 1, "converged": True,
            "data": {"n": 900, "first_date": None, "last_date": None}}))
        rep, var_csv = tmp_path / "report.json", tmp_path / "var.csv"
        r = invoke(runner, ["var", "--fit", str(fit), "--outsample", str(outs),
                            "--report", str(rep), "--series-output", str(var_csv)])
        assert r.exit_code == 1
        assert f"Error: {fit}: no certified cdf" in r.output
        assert not rep.exists() and not var_csv.exists()

    @pytest.mark.parametrize("level", ["x", "0.05,1.5"])
    def test_bad_level_named(self, runner, tmp_path, level):
        outs = tmp_path / "o.csv"
        write_returns_csv(outs, ReturnSeries(np.array([0.1, -0.2])))
        fit = tmp_path / "f.json"
        fit.write_text("{}")
        r = invoke(runner, ["var", "--fit", str(fit), "--outsample", str(outs),
                            "--p", level])
        assert r.exit_code == 1
        assert "--p" in r.output

    def test_overlap_warning(self, runner, tmp_path):
        dates = [f"2020-01-{d:02d}" for d in range(1, 21)]
        vals = np.random.default_rng(1).standard_normal(20) * 0.1
        data = tmp_path / "in.csv"
        write_returns_csv(data, ReturnSeries(vals, dates))
        fit_json = tmp_path / "f.json"
        # tiny sample: lock the dynamics so the gaussian fit is defined
        invoke(runner, ["simulate", "--output", str(tmp_path / "big.csv"),
                        "--n", "900", "--seed", "3"])
        invoke(runner, ["fit", "--input", str(tmp_path / "big.csv"),
                        "--output", str(fit_json), "--method", "gaussian"])
        doc = json.loads(fit_json.read_text())
        doc["data"] = {"n": 900, "first_date": "2019-01-01", "last_date": "2020-01-10"}
        fit_json.write_text(json.dumps(doc))
        rep = tmp_path / "rep.json"
        r = invoke(runner, ["var", "--fit", str(fit_json), "--outsample", str(data),
                            "--p", "0.05", "--report", str(rep),
                            "--series-output", str(tmp_path / "v.csv")])
        assert r.exit_code == 0
        assert json.loads(rep.read_text())["warnings"]


class TestFrontierCommand:
    def test_single_point_rows(self, runner, tmp_path):
        out = tmp_path / "fr.csv"
        r = invoke(runner, ["frontier", "--alpha", "1.8,1.2", "--b-grid", "0.5",
                            "--horizon", "1200", "--replications", "6",
                            "--output", str(out)])
        assert r.exit_code == 0, r.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,b,a_star,stderr"
        assert len(lines) == 3

    def test_b_near_one_small_a(self, runner, tmp_path):
        out = tmp_path / "fr.csv"
        r = invoke(runner, ["frontier", "--alpha", "2.0", "--b-grid", "0.99",
                            "--horizon", "1500", "--replications", "8",
                            "--output", str(out)])
        rows = out.read_text().strip().splitlines()[1:]
        a_star = float(rows[0].split(",")[2])
        assert a_star < 0.06

    def test_a_star_falls_with_b(self, runner, tmp_path):
        out = tmp_path / "fr.csv"
        r = invoke(runner, ["frontier", "--alpha", "1.6", "--b-grid", "0,0.6",
                            "--horizon", "1000", "--replications", "4",
                            "--output", str(out)])
        assert r.exit_code == 0, r.output
        header, *rows = out.read_text().strip().splitlines()
        assert header == "alpha,b,a_star,stderr"
        assert len(rows) == 2
        (_, _, a0, se0), (_, _, a6, se6) = [map(float, row.split(",")) for row in rows]
        assert 0.0 < a6 < a0
        assert se0 > 0.0 and se6 > 0.0

    @pytest.mark.parametrize("args, text", [
        (["--alpha", "3"], "alpha must be in (0, 2]"),
        (["--b-grid", "-0.1"], "lag coefficients must be nonnegative"),
        (["--horizon", "10"], "horizon must be at least 1000"),
    ])
    def test_out_of_range_input_is_a_message(self, runner, tmp_path, args, text):
        out = tmp_path / "fr.csv"
        r = invoke(runner, ["frontier", *args, "--output", str(out)])
        assert r.exit_code == 1
        assert r.output.startswith("Error: ") and text in r.output
        assert not out.exists()

    def test_unparsable_alpha_named(self, runner, tmp_path):
        r = invoke(runner, ["frontier", "--alpha", "x",
                            "--output", str(tmp_path / "fr.csv")])
        assert r.exit_code == 1
        assert "--alpha" in r.output

    def test_negative_seed_usage_error(self, runner, tmp_path):
        out = tmp_path / "fr.csv"
        r = invoke(runner, ["frontier", "--seed", "-1", "--output", str(out)])
        assert r.exit_code == 2
        assert "'--seed'" in r.output
        assert not out.exists()


class TestExperimentCommand:
    def test_reference_only_table(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        r = invoke(runner, ["experiment", "--k-list", "inf", "--reps", "2",
                            "--n", "400", "--output", str(out)])
        assert r.exit_code == 0, r.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "parameter,inf"
        for line in lines[1:]:
            assert float(line.split(",")[1]) == 1.0

    def test_config_file_round_trip(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "model: {omega: 0.01, a: [0.02], b: [0.7]}\n"
            "experiment:\n"
            "  alpha: 1.6\n"
            "  k_list: [inf]\n"
            "  n: 400\n"
            "  reps: 2\n"
            "seed: 3\n")
        out = tmp_path / "t.csv"
        r = invoke(runner, ["experiment", "--config", str(cfg), "--output", str(out)])
        assert r.exit_code == 0, r.output
        assert out.exists()

    @pytest.mark.parametrize("args, message", [(["--reps", "1"], "reps must be at least 2"),
                                               (["--k-list", "ten"], "'ten'"),
                                               (["--k-list", "10"], "k_list must hold inf")])
    def test_invalid_setting_is_usage_error(self, runner, tmp_path, args, message):
        r = invoke(runner, ["experiment", *args, "--output", str(tmp_path / "t.csv")])
        assert r.exit_code == 1
        assert message in r.output

    def test_negative_seed_usage_error(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        r = invoke(runner, ["experiment", "--seed", "-1", "--output", str(out)])
        assert r.exit_code == 2
        assert "'--seed'" in r.output
        assert not out.exists()
