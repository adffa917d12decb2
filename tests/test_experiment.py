"""Simulation-study runner tests (desk scale)."""

import json
import math
import re

import numpy as np
import pytest

from stablegarch.errors import ExplosionError
from stablegarch.experiment import ExperimentConfig, ExperimentResult, run_experiment
from stablegarch.garch import GarchParams


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(reps=1)
        with pytest.raises(ValueError):
            ExperimentConfig(n=50)
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=2.3)
        # Q is every K's RMSE against K = inf
        with pytest.raises(ValueError, match="k_list must hold inf"):
            ExperimentConfig(k_list=(10,))


class TestRun:
    @pytest.fixture(scope="class")
    def tiny_result(self, tmp_path_factory):
        cfg = ExperimentConfig(k_list=(math.inf,), n=400, reps=3, seed=5,
                               calibration_reps=10, calibration_samples=200,
                               cache_path=str(tmp_path_factory.mktemp("jk") / "jk.json"))
        return run_experiment(cfg)

    def test_cache_keys_read_alike_under_every_numpy(self, tiny_result):
        # the calibration seed is a numpy integer, which numpy 2 prints as
        # np.int64(...) and numpy 1.x as a bare number
        with open(tiny_result.config.cache_path, encoding="utf-8") as fh:
            keys = list(json.load(fh))
        assert len(keys) == 1 and "np." not in keys[0]
        assert re.fullmatch(r".*,seed=\d+", keys[0])

    def test_reference_only_gives_unit_ratios(self, tiny_result):
        np.testing.assert_allclose(tiny_result.q_rmse[math.inf], 1.0)
        np.testing.assert_allclose(tiny_result.q_mse[math.inf], 1.0)

    def test_shapes_and_names(self, tiny_result):
        assert tiny_result.names == ["omega", "a1", "b1", "alpha", "beta", "mu"]
        assert tiny_result.estimates[math.inf].shape == (3, 6)

    def test_csv_outputs(self, tiny_result, tmp_path):
        table = tmp_path / "table.csv"
        details = tmp_path / "details.csv"
        tiny_result.write_csv(table)
        tiny_result.write_details_csv(details)
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "parameter,inf"
        assert len(lines) == 7
        assert "q_rmse" in details.read_text().splitlines()[0]

    def test_exploding_replication_is_a_failure(self, monkeypatch):
        from stablegarch import experiment
        calls = []
        simulate = experiment.simulate

        def exploding_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise ExplosionError("sigma^2 exceeded the guard", t=7, sigma2=1e13)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(experiment, "simulate", exploding_once)
        cfg = ExperimentConfig(k_list=(math.inf,), n=400, reps=5, seed=5)
        res = run_experiment(cfg)
        assert res.failures[math.inf] == 1
        assert res.estimates[math.inf].shape == (4, 6)

    def test_small_k_smoke_runs_and_ratios_sensible(self):
        cfg = ExperimentConfig(k_list=(5, math.inf), n=400, reps=4, seed=11,
                               calibration_reps=10, calibration_samples=300)
        res = run_experiment(cfg)
        # mixing in far-from-stable innovations cannot make estimation exact
        assert np.isfinite(res.q_rmse[5]).all()
        assert res.jk[5] > 1.0
        assert res.failures[5] <= 1
