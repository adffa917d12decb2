"""Span tracing around the public layer boundaries of ``stablegarch``.

The tracer patches callables at the name their caller looks them up by
(``fit.py`` imports ``likelihood_and_score`` by name, so the span sits on
``stablegarch.estimate.fit.likelihood_and_score``).  Spans are kept in memory
as ``[name, start, end, parent]`` and written out when the run ends.  With
``spans=False`` the same boundaries only count their calls: that is the
untraced run, which needs the count of objective evaluations and Lyapunov
estimates for its unit figures.  A boundary that does not resolve raises, so a
renamed or moved layer stops the benchmark instead of reading zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


# (module, attribute, span name, counter).  The span name's prefix is the
# layer.  A counter receives (counts, args, kwargs, result) after the call.
BOUNDARIES = [
    # stable.engine: engine cache, construction and evaluation methods
    ("stablegarch.stable", "get_engine", "engine.get", None),
    ("stablegarch.estimate.likelihood", "get_engine", "engine.get", None),
    ("stablegarch.estimate.fit", "get_engine", "engine.get", None),
    ("stablegarch.domain_attraction", "get_engine", "engine.get", None),
    ("stablegarch.stable.engine", "StandardDensity.__init__", "engine.build", None),
    ("stablegarch.stable.engine", "StandardDensity.pdf_with_err", "engine.pdf",
     lambda c, a, k, r: c.update({"engine.pdf_points": _size(a[1])})),
    ("stablegarch.stable.engine", "StandardDensity.dpdf_with_err", "engine.dpdf", None),
    ("stablegarch.stable.engine", "StandardDensity.cdf_with_err", "engine.cdf", None),
    ("stablegarch.stable.engine", "StandardDensity.ppf", "engine.ppf", None),
    # stable.fourier: table builds and the per-point quadrature fallback
    ("stablegarch.stable.engine", "FourierTable", "fourier.table", None),
    ("stablegarch.stable.engine", "quad_pdf_point", "fourier.quad", None),
    # stable.sample
    ("stablegarch.garch.recursion", "stable_sample", "sample.draw",
     lambda c, a, k, r: c.update({"sample.draws": _size(r)})),
    ("stablegarch.garch.stability", "stable_sample", "sample.draw",
     lambda c, a, k, r: c.update({"sample.draws": _size(r)})),
    ("stablegarch.domain_attraction", "stable_sample", "sample.draw",
     lambda c, a, k, r: c.update({"sample.draws": _size(r)})),
    # estimate.likelihood
    ("stablegarch.estimate.fit", "likelihood_and_score", "likelihood.likelihood_and_score", None),
    ("stablegarch.estimate.information", "score_full", "likelihood.score_full", None),
    # estimate.fit and estimate.information
    ("stablegarch.estimate", "fit_stable_mle", "fit.fit_stable_mle", None),
    ("stablegarch.estimate.fit", "fit_gaussian_qmle", "fit.qmle", None),
    ("stablegarch.estimate.fit", "compute_Jn", "information.Jn", None),
    # garch.recursion
    ("stablegarch.garch.recursion", "volatility_path", "recursion.volatility_path", None),
    ("stablegarch.estimate.likelihood", "volatility_path", "recursion.volatility_path", None),
    ("stablegarch.risk", "volatility_path", "recursion.volatility_path", None),
    ("stablegarch.estimate.likelihood", "variance_derivatives",
     "recursion.variance_derivatives", None),
    ("stablegarch.estimate.fit", "variance_derivatives", "recursion.variance_derivatives", None),
    ("stablegarch.garch", "simulate", "recursion.simulate",
     lambda c, a, k, r: c.update({"recursion.simulate_steps":
                                  _arg(a, k, 2, "n") + _arg(a, k, 3, "burn_in", 500)})),
    # garch.stability
    ("stablegarch.garch.stability", "lyapunov_exponent", "stability.lyapunov", None),
    ("stablegarch.garch", "stationarity_frontier", "stability.frontier", None),
    # domain_attraction
    ("stablegarch.domain_attraction", "summed_innovations", "domain_attraction.summed_draws", None),
    ("stablegarch.domain_attraction", "fit_stable_iid", "domain_attraction.fit_stable_iid", None),
    # risk
    ("stablegarch.risk", "var_forecast", "risk.var_forecast", None),
    ("stablegarch.risk", "backtest", "risk.backtest", None),
    ("stablegarch.risk", "innovation_quantile", "risk.quantile", None),
]

# the optimizer is wrapped separately: its objective is counted and given a
# span of the calling layer, so objective work is not booked as optimizer time
OPTIMIZER_SITES = [
    ("stablegarch.estimate.fit", "minimize_bounded", "fit.objective"),
    ("stablegarch.domain_attraction", "minimize_bounded", "domain_attraction.objective"),
]
# fit_gaussian_qmle, the stable fit's warm start, calls the same
# minimize_bounded as the stable MLE.  Inside its span the optimizer is not
# wrapped, so its runs and evaluations count as fit.qmle time and stay out of
# the optim.* metrics and the evaluation units, which describe the stable MLE.
QUIET_OPTIMIZER = {"fit.qmle"}

# Which end-to-end figure each per-layer metric should move, on which
# workload.  The figures in brackets are the bounded metrics that carry them.
MOVES = [
    ("engine.get_calls engine.builds engine.hit_ratio",
     "rep_s_p50, calib_fit_s_p50 on study and fit_s on desk_fit [unit_ms_p50]; "
     "flat on var_desk, one build per asset whatever the design"),
    ("engine.pdf_* engine.dpdf_*", "study and desk_fit [unit_ms_p50]"),
    ("engine.cdf_self_s engine.ppf_* fourier.tables_built fourier.table_build_s",
     "var_s_p50 on var_desk [unit_ms_p50]; small on study (start building)"),
    ("fourier.quad_* engine.accuracy_errors", "var_s_p90 on var_desk, and the slow desk "
     "fits [unit_ms_mean, unbounded]; failed"),
    ("likelihood.calls likelihood.self_s likelihood.call_ms_p50",
     "rep_s_p50 on study, fit_s on desk_fit [unit_ms_p50]"),
    ("optim.*", "failed, and rep_s_p50 and fit_s through evaluations per fit [unbounded: "
     "the unit figures are per evaluation]"),
    ("fit.qmle_* information.Jn_* likelihood.score_full_calls",
     "fit_s on desk_fit only [unit_ms_p50]"),
    ("domain_attraction.*", "calib_fit_s_p50 on study [unit_ms_p50]"),
    ("recursion.volatility_path_* recursion.variance_derivatives_s",
     "study [unit_ms_p50], a small share of var_desk"),
    ("recursion.simulate_*", "sim_steps_per_s on garch_paths [unit_ms_p50], setup_s on "
     "var_desk; about 1% of study"),
    ("stability.* sample.*", "frontier_point_s_p50 on garch_paths [unit_ms_p50]"),
    ("risk.*", "var_desk [unit_ms_p50]"),
]

LAYERS = ("engine", "fourier", "sample", "likelihood", "optim", "fit", "information",
          "recursion", "stability", "domain_attraction", "risk")


def _resolve(module: str, attr: str):
    """(owner, name) for ``module.attr``, where attr may be ``Class.method``."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, name):
        raise RuntimeError(f"layer boundary {module}.{attr} not found: the package has "
                           "moved it, and the benchmark must follow")
    return owner, name


class Tracer:
    """Span recorder, or call counter, at the layer boundaries.

    ``calls`` counts the calls of every boundary in both modes.  Only the span
    mode records spans, per-boundary counters and errors.
    """

    def __init__(self, spans: bool = True):
        self.record = spans
        self.calls: Counter = Counter()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._seen_errors: set[int] = set()
        self._patched: list[tuple] = []
        self._quiet = 0
        # set while the benchmark runs its own checks between ops
        self.paused = False

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _note_error(self, exc: BaseException):
        # booked once, at the innermost span it leaves
        if id(exc) not in self._seen_errors:
            self._seen_errors.add(id(exc))
            self.errors[type(exc).__name__] += 1

    def traced(self, fn, name: str, counter=None):
        """fn counted, and in span mode recorded as a span called ``name``.

        counter(counts, args, kwargs, result) runs after the call in span mode.
        """
        quiet = name in QUIET_OPTIMIZER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            self._quiet += quiet
            span = self._open(name) if self.record else None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if span is not None:
                    self._note_error(exc)
                raise
            finally:
                if span is not None:
                    self._close(span)
                self._quiet -= quiet
            if counter is not None and span is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return wrapper

    def _optimizer(self, fn, objective_name: str):
        """minimize_bounded whose objective is counted and spanned as the caller's."""
        def count_run(c, args, kwargs, res):
            c.update({"optim.iterations": int(res.iterations),
                      "optim.converged": int(bool(res.converged))})

        traced = self.traced(fn, "optim.minimize_bounded", count_run)

        @functools.wraps(fn)
        def minimize_bounded(fun_grad, *args, **kwargs):
            if self._quiet:
                return fn(fun_grad, *args, **kwargs)
            return traced(self.traced(fun_grad, objective_name), *args, **kwargs)
        return minimize_bounded

    # -- patching -------------------------------------------------------

    def _patch(self, module: str, attr: str, make):
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        self._patched.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self):
        try:
            for module, attr, name, counter in BOUNDARIES:
                self._patch(module, attr, lambda fn, n=name, c=counter: self.traced(fn, n, c))
            for module, attr, objective_name in OPTIMIZER_SITES:
                self._patch(module, attr, lambda fn, o=objective_name: self._optimizer(fn, o))
        except Exception:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- reporting ------------------------------------------------------

    def by_name(self) -> dict:
        """Per span name: call count, total and self seconds, durations."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        child = np.zeros(len(self.spans))
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        for s, d, c in zip(self.spans, dur, child):
            row = out[s[0]]
            row["calls"] += 1
            row["total_s"] += float(d)
            row["self_s"] += float(d - c)
            row["durations"].append(float(d))
        return out

    def write(self, path):
        """Spans as [name, start, end, parent] rows, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows,
                       "counts": dict(self.counts), "errors": dict(self.errors)}, fh)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the traced run as {name: (value, unit)}."""
    rows = tracer.by_name()

    def calls(*names):
        return sum(tracer.calls[n] for n in names)

    def total(name):
        return rows[name]["total_s"] if name in rows else 0.0

    def self_s(*names):
        return sum(rows[n]["self_s"] for n in names if n in rows)

    c = tracer.counts
    gets, builds = calls("engine.get"), calls("engine.build")
    starts = calls("optim.minimize_bounded")
    lik = rows["likelihood.likelihood_and_score"]["durations"] \
        if "likelihood.likelihood_and_score" in rows else []
    m = {
        "engine.get_calls": (gets, "count"),
        "engine.builds": (builds, "count"),
        "engine.hit_ratio": (1.0 - builds / gets if gets else 0.0, "ratio"),
        "engine.pdf_calls": (calls("engine.pdf"), "count"),
        "engine.pdf_points": (c["engine.pdf_points"], "count"),
        "engine.pdf_self_s": (self_s("engine.pdf"), "s"),
        "engine.dpdf_calls": (calls("engine.dpdf"), "count"),
        "engine.dpdf_self_s": (self_s("engine.dpdf"), "s"),
        "engine.cdf_self_s": (self_s("engine.cdf"), "s"),
        "engine.ppf_calls": (calls("engine.ppf"), "count"),
        "engine.ppf_self_s": (self_s("engine.ppf"), "s"),
        "engine.accuracy_errors": (tracer.errors["AccuracyNotReached"], "count"),
        "fourier.tables_built": (calls("fourier.table"), "count"),
        "fourier.table_build_s": (total("fourier.table"), "s"),
        "fourier.quad_points": (calls("fourier.quad"), "count"),
        "fourier.quad_s": (total("fourier.quad"), "s"),
        "likelihood.calls": (calls("likelihood.likelihood_and_score"), "count"),
        "likelihood.call_ms_p50": (1e3 * float(np.median(lik)) if lik else 0.0, "ms"),
        "likelihood.score_full_calls": (calls("likelihood.score_full"), "count"),
        "optim.starts": (starts, "count"),
        "optim.iterations": (c["optim.iterations"], "count"),
        "optim.evals_per_start": (calls("fit.objective", "domain_attraction.objective")
                                  / starts if starts else 0.0, "count"),
        "optim.converged_share": (c["optim.converged"] / starts if starts else 0.0, "ratio"),
        "fit.qmle_calls": (calls("fit.qmle"), "count"),
        "fit.qmle_s": (total("fit.qmle"), "s"),
        "information.Jn_calls": (calls("information.Jn"), "count"),
        "information.Jn_s": (total("information.Jn"), "s"),
        "domain_attraction.iid_fits": (calls("domain_attraction.fit_stable_iid"), "count"),
        "domain_attraction.iid_fit_self_s": (self_s("domain_attraction.fit_stable_iid",
                                                    "domain_attraction.objective"), "s"),
        "domain_attraction.summed_draws_s": (total("domain_attraction.summed_draws"), "s"),
        "recursion.volatility_path_calls": (calls("recursion.volatility_path"), "count"),
        "recursion.volatility_path_s": (total("recursion.volatility_path"), "s"),
        "recursion.variance_derivatives_s": (total("recursion.variance_derivatives"), "s"),
        "recursion.simulate_steps": (c["recursion.simulate_steps"], "count"),
        "recursion.simulate_s": (total("recursion.simulate"), "s"),
        "stability.lyapunov_calls": (calls("stability.lyapunov"), "count"),
        "stability.lyapunov_s": (total("stability.lyapunov"), "s"),
        "sample.draws": (c["sample.draws"], "count"),
        "risk.backtest_s": (total("risk.backtest"), "s"),
        "risk.quantile_s": (total("risk.quantile"), "s"),
    }
    for layer in LAYERS:
        names = [n for n in rows if n.split(".", 1)[0] == layer]
        m[f"{layer}.self_s"] = (self_s(*names), "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m
