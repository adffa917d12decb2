"""Command-line interface tests."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

import yaml

from stablegarch.cli import _accuracy_from_config, main
from stablegarch.data import read_returns_csv, write_returns_csv, ReturnSeries
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

    def test_unparsable_alpha_named(self, runner, tmp_path):
        r = invoke(runner, ["frontier", "--alpha", "x",
                            "--output", str(tmp_path / "fr.csv")])
        assert r.exit_code == 1
        assert "--alpha" in r.output


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
                                               (["--k-list", "ten"], "'ten'")])
    def test_invalid_setting_is_usage_error(self, runner, tmp_path, args, message):
        r = invoke(runner, ["experiment", *args, "--output", str(tmp_path / "t.csv")])
        assert r.exit_code == 1
        assert message in r.output
