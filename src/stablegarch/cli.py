"""Command-line front end: fit, simulate, experiment, frontier, var."""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import click
import yaml

from .data import read_returns_csv, write_returns_csv
from .domain_attraction import SummedInnovationSpec, summed_innovations
from .errors import ExplosionError, NonFiniteLikelihood, NotConverged, StableGarchError
from .estimate import FitResult, fit_gaussian_qmle, fit_stable_mle
from .estimate.fit import _PSI_START_GRID
from .experiment import ExperimentConfig, run_experiment
from .garch.params import GarchOrder, GarchParams
from .garch.recursion import simulate as garch_simulate
from .garch.stability import stationarity_frontier
from .risk import BacktestReport, var_series
from .stable import FIT_ACCURACY, DensityAccuracy, StableParams


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    return data or {}


def _theta_from_config(cfg: dict) -> GarchParams:
    try:
        model = cfg.get("model", {})
        return GarchParams(omega=float(model.get("omega", 0.01)),
                           a=tuple(model.get("a", [0.02])),
                           b=tuple(model.get("b", [0.7])))
    except (AttributeError, TypeError, ValueError) as exc:
        raise click.ClickException(f"model: {exc}")


def _psi_from_config(cfg: dict) -> StableParams:
    try:
        innov = cfg.get("innovation", {})
        return StableParams(alpha=float(innov.get("alpha", 1.6)),
                            beta=float(innov.get("beta", 0.0)),
                            mu=float(innov.get("mu", 0.0)),
                            gamma=float(innov.get("gamma", 1.0)))
    except (AttributeError, TypeError, ValueError) as exc:
        raise click.ClickException(f"innovation: {exc}")


def _accuracy_from_config(cfg: dict) -> DensityAccuracy:
    """FIT_ACCURACY with the settings the config's ``accuracy`` block gives."""
    acc = cfg.get("accuracy")
    if not acc:
        return FIT_ACCURACY
    known = {f.name for f in dataclasses.fields(DensityAccuracy)}
    unknown = sorted(set(acc) - known)
    if unknown:
        raise click.ClickException(
            f"unknown accuracy setting {', '.join(unknown)}; use {', '.join(sorted(known))}")
    try:
        # each value takes its field's type: YAML reads 1e-5 as a string
        return dataclasses.replace(
            FIT_ACCURACY, **{k: type(getattr(FIT_ACCURACY, k))(v) for k, v in acc.items()})
    except ValueError as exc:
        raise click.ClickException(f"accuracy: {exc}")


def _float_list(text: str, option: str) -> list[float]:
    """Comma-separated numbers of a command-line option."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise click.ClickException(f"{option}: expected comma-separated numbers, got {text!r}")


def _parse_k(text: str) -> float:
    text = text.strip().lower()
    if text in ("inf", "infinity", "oo"):
        return math.inf
    return int(text)


@click.group()
def main():
    """Stable GARCH estimation, simulation studies and Value-at-Risk."""


@main.command("fit")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--output", "output_path", default="fit.json", show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--method", type=click.Choice(["stable", "gaussian"]), default="stable",
              show_default=True)
@click.option("--column", default="return", show_default=True,
              help="Name or 0-based index of the return column.")
@click.option("--date-column", default="date", show_default=True)
@click.option("--p", "p_order", type=int, default=1, show_default=True)
@click.option("--q", "q_order", type=int, default=1, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--n-starts", type=click.IntRange(1, len(_PSI_START_GRID)), default=5,
              show_default=True)
def cmd_fit(input_path, output_path, config_path, method, column, date_column,
            p_order, q_order, seed, n_starts):
    """Estimate a GARCH model from a CSV of returns; writes a JSON fit."""
    cfg = _load_config(config_path)
    try:
        column_sel = int(column) if column.isdigit() else column
        series = read_returns_csv(input_path, column_sel, date_column)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    order = GarchOrder(p=p_order, q=q_order)
    acc = _accuracy_from_config(cfg)
    try:
        if method == "gaussian":
            fit = fit_gaussian_qmle(series, order=order)
        else:
            fit = fit_stable_mle(series, order=order, seed=seed,
                                 n_starts=n_starts, acc=acc)
    except NotConverged as exc:
        exc.result.to_json(output_path)
        click.echo(f"did not converge: {exc}", err=True)
        sys.exit(3)
    except (NonFiniteLikelihood, ExplosionError, ValueError) as exc:
        raise click.ClickException(str(exc))
    fit.to_json(output_path)
    click.echo(f"wrote {output_path}: "
               + ", ".join(f"{n}={v:.6g}" for n, v in zip(fit.names(), fit.param_array())))


@main.command("simulate")
@click.option("--output", "output_path", default="returns.csv", show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--n", type=int, default=1000, show_default=True)
@click.option("--burn-in", type=int, default=500, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--k", "k_text", default=None,
              help="Summed-Student innovations with this K ('inf' for the stable limit).")
@click.option("--jk", type=float, default=1.0, show_default=True,
              help="Scale divisor for summed innovations.")
@click.option("--alpha", type=float, default=None, help="Override innovation alpha.")
def cmd_simulate(output_path, config_path, n, burn_in, seed, k_text, jk, alpha):
    """Simulate the GARCH model with stable or summed-Student innovations."""
    if n < 1:
        raise click.UsageError("n must be >= 1")
    if burn_in < 0:
        raise click.UsageError("--burn-in must be >= 0")
    cfg = _load_config(config_path)
    theta = _theta_from_config(cfg)
    psi = _psi_from_config(cfg)
    if alpha is not None:
        try:
            psi = StableParams(alpha, psi.beta, psi.mu, psi.gamma)
        except ValueError as exc:
            raise click.ClickException(f"--alpha: {exc}")
    innovations = None
    if k_text is not None:
        try:
            spec = SummedInnovationSpec(alpha=psi.alpha, K=_parse_k(k_text), jK=jk)
        except ValueError as exc:
            raise click.ClickException(f"--k: {exc}")
        innovations = summed_innovations(spec, n + burn_in, seed)
    try:
        eps, _ = garch_simulate(theta, psi, n, burn_in=burn_in, seed=seed,
                                innovations=innovations)
    except ExplosionError as exc:
        raise click.ClickException(
            f"{exc} (omega={theta.omega}, a={theta.a}, b={theta.b})")
    write_returns_csv(output_path, eps)
    click.echo(f"wrote {output_path}: {len(eps)} returns")


@main.command("experiment")
@click.option("--output", "output_path", default="table.csv", show_default=True)
@click.option("--details", "details_path", default=None,
              help="Optional long-format CSV with both error conventions.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--k-list", default=None, help="Comma-separated K values, e.g. 10,1000,inf")
@click.option("--n", type=int, default=None)
@click.option("--reps", type=int, default=None)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--cache", "cache_path", default=None,
              help="JSON sidecar for calibration results.")
@click.option("--convention", type=click.Choice(["rmse", "mse"]), default="rmse",
              show_default=True)
def cmd_experiment(output_path, details_path, config_path, alpha, k_list, n,
                   reps, seed, cache_path, convention):
    """Run the summed-innovation estimation study and write the ratio table."""
    cfg = _load_config(config_path)
    exp = cfg.get("experiment", {})
    calib = exp.get("calibration", {})
    # a flag overrides the config file; what neither gives keeps the
    # ExperimentConfig default
    given = [("alpha", float, alpha, exp.get("alpha", cfg.get("innovation", {}).get("alpha"))),
             ("n", int, n, exp.get("n")),
             ("reps", int, reps, exp.get("reps")),
             ("seed", int, seed, cfg.get("seed")),
             ("calibration_samples", int, None, calib.get("samples")),
             ("calibration_reps", int, None, calib.get("reps"))]
    kw = dict(theta0=_theta_from_config(cfg), cache_path=cache_path,
              accuracy=_accuracy_from_config(cfg))
    try:
        for key, conv, flag, value in given:
            if flag is not None or value is not None:
                kw[key] = conv(flag if flag is not None else value)
        if k_list is not None:
            kw["k_list"] = tuple(_parse_k(v) for v in k_list.split(","))
        elif "k_list" in exp:
            kw["k_list"] = tuple(_parse_k(str(v)) for v in exp["k_list"])
        config = ExperimentConfig(**kw)
        result = run_experiment(config, log=lambda msg: click.echo(msg, err=True))
    except (StableGarchError, ValueError) as exc:
        raise click.ClickException(str(exc))
    result.write_csv(output_path, convention)
    if details_path:
        result.write_details_csv(details_path)
    click.echo(f"wrote {output_path}")


@main.command("frontier")
@click.option("--output", "output_path", default="frontier.csv", show_default=True)
@click.option("--alpha", "alpha_list", default="2.0,1.6,1.2,0.8", show_default=True,
              help="Comma-separated tail exponents.")
@click.option("--b-grid", default="0.0,0.2,0.4,0.6,0.8,0.9", show_default=True)
@click.option("--horizon", type=int, default=4000, show_default=True)
@click.option("--replications", type=int, default=24, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def cmd_frontier(output_path, alpha_list, b_grid, horizon, replications, seed):
    """Locate the strict-stationarity frontier a*(b) for each alpha.

    Writes alpha, b, a_star and stderr, the standard error (se) of a*.
    For each alpha the innovation draws are taken once and shared by every
    Lyapunov estimate and every b (common random numbers).
    """
    alphas = _float_list(alpha_list, "--alpha")
    grid = _float_list(b_grid, "--b-grid")
    try:
        points = [pt for al in alphas
                  for pt in stationarity_frontier(al, grid, horizon, replications, seed)]
    except ValueError as exc:
        raise click.ClickException(str(exc))
    import csv as _csv
    with open(output_path, "w", newline="", encoding="utf-8") as fh:
        w = _csv.writer(fh)
        w.writerow(["alpha", "b", "a_star", "stderr"])
        for pt in points:
            w.writerow([f"{pt.alpha:g}", f"{pt.b:g}",
                        f"{pt.a_star:.6g}", f"{pt.stderr:.3g}"])
    click.echo(f"wrote {output_path}")


@main.command("var")
@click.option("--fit", "fit_paths", multiple=True, required=True,
              type=click.Path(exists=True),
              help="Fit JSON (repeatable; the k-th fit of a method writes "
                   "columns named <method>_<k>).")
@click.option("--outsample", "outsample_path", required=True,
              type=click.Path(exists=True))
@click.option("--p", "p_list", default="0.01,0.05", show_default=True)
@click.option("--report", "report_path", default="report.json", show_default=True)
@click.option("--series-output", "series_path", default="var.csv", show_default=True)
@click.option("--column", default="return", show_default=True)
def cmd_var(fit_paths, outsample_path, p_list, report_path, series_path, column):
    """Backtest VaR forecasts from fitted models on an out-of-sample CSV."""
    try:
        column_sel = int(column) if column.isdigit() else column
        outsample = read_returns_csv(outsample_path, column_sel)
        if len(outsample) < 2:
            raise ValueError(f"{outsample_path}: need at least two returns to backtest")
    except ValueError as exc:
        raise click.ClickException(str(exc))
    ps = _float_list(p_list, "--p")
    if not all(0.0 < p < 1.0 for p in ps):
        raise click.ClickException(f"--p: levels must lie in (0, 1), got {p_list}")
    reports = []
    series_cols = {}
    warnings = []
    fits_of = {}
    for path in fit_paths:
        try:
            fit = FitResult.from_json(path)
        except (KeyError, TypeError, ValueError) as exc:
            raise click.ClickException(f"{path}: not a fit JSON ({exc!r})")
        if outsample.dates and fit.last_date and outsample.dates[0] <= fit.last_date:
            warnings.append(f"{path}: outsample starts at {outsample.dates[0]}, "
                            f"inside the fit window ending {fit.last_date}")
        # the k-th fit of a method writes its columns as <method>_<k>, k >= 2
        fits_of[fit.method] = k = fits_of.get(fit.method, 0) + 1
        tag = fit.method if k == 1 else f"{fit.method}_{k}"
        for p in ps:
            try:
                vv, sig, hits = var_series(fit, outsample, p)
            except StableGarchError as exc:
                raise click.ClickException(f"{path}: {exc}")
            reports.append(BacktestReport.from_hits(p, hits, fit.method).to_dict())
            series_cols[f"var_{tag}_p{p:g}"] = vv
            series_cols[f"hit_{tag}_p{p:g}"] = hits.astype(float)
            series_cols.setdefault(f"sigma_{tag}", sig)
    write_returns_csv(series_path, outsample, extra=series_cols)
    doc = {"reports": reports, "warnings": warnings}
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for rep in reports:
        click.echo(f"{rep['method']}: p={rep['p']:g} "
                   f"hits={rep['hits']}/{rep['total']} freq={rep['hit_frequency']:.4f}")
    for wmsg in warnings:
        click.echo("warning: " + wmsg, err=True)


if __name__ == "__main__":
    main()
