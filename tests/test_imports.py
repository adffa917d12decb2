"""The package loads numpy and the scipy modules it computes with, no more."""

import os
import subprocess
import sys

import stablegarch

# scipy.stats and scipy.signal cost about a third of a second each to import
# and back no computation here.  The baseline is what the scipy modules the
# package uses load themselves, so a scipy release that pulls either in from
# them keeps this check true.
FOOTPRINT = """
import sys
import scipy.special, scipy.optimize, scipy.interpolate, scipy.integrate, scipy.linalg

def heavy():
    return {m for m in sys.modules if m.split(".")[:2] in (["scipy", "stats"], ["scipy", "signal"])}

baseline = heavy()
import numpy as np
import stablegarch, stablegarch.cli
from stablegarch.data import ReturnSeries
from stablegarch.estimate import FitResult, ModelParams
from stablegarch.garch import GarchParams, volatility_path
from stablegarch.garch.recursion import variance_derivatives
from stablegarch.risk import var_forecast

eps = ReturnSeries(np.random.default_rng(0).standard_normal(300) * 0.1)
theta = GarchParams(0.01, a=(0.05,), b=(0.9,))
volatility_path(eps, theta)
variance_derivatives(eps, theta)
fit = FitResult(tau_hat=ModelParams(theta, 2.0, 0.0, 0.0), neg_loglik=0.0, J_n=None,
                std_errors=None, iterations=0, converged=True, constraint_active=None,
                method="gaussian", n_obs=0)
var_forecast(fit, eps, 0.05)
print(sorted(heavy() - baseline))
"""


def test_no_scipy_stats_or_signal():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stablegarch.__file__)))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
