"""Print a sha256 of the package's outputs on two fixed sets of inputs.

    python tools/output_digest.py

The digest covers the float hex of

* the 60 cold study-model ``likelihood_and_score`` results: a path of the
  study's GARCH(1, 1) model with S(1.6, 0.1) innovations (n = 1000, seed 5),
  evaluated at alpha = linspace(1.5, 1.7, 60), beta = 0.1, mu = 0, each on a
  cold engine;
* var_desk's seed-0 quantiles: the innovation quantile of each of the
  workload's 100 assets at each of its levels, each asset on a cold engine.

A change that should leave every value bit for bit as it was prints the same
digest before and after.  The inputs come from ``perfbench/workloads.py``,
which is only read.  With ``--verbose`` each part's own digest is printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import stablegarch as sg  # noqa: E402
import workloads  # noqa: E402
from stablegarch.estimate.likelihood import likelihood_and_score  # noqa: E402
from stablegarch.stable import engine  # noqa: E402


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in np.ravel(values))


def study_lines():
    """One line per cold ``likelihood_and_score`` call of the study model."""
    theta = sg.garch.GarchParams(workloads.THETA0[0], a=(workloads.THETA0[1],),
                                 b=(workloads.THETA0[2],))
    eps, _ = sg.garch.simulate(theta, sg.stable.StableParams(workloads.STUDY_ALPHA, 0.1),
                               n=workloads.STUDY_N, burn_in=workloads.STUDY_BURN_IN, seed=5)
    for alpha in np.linspace(1.5, 1.7, 60):
        engine._engine.cache_clear()
        f, g = likelihood_and_score(
            eps, sg.estimate.ModelParams(theta, float(alpha), 0.1, 0.0))
        yield _hex([f, *g])


def var_desk_lines():
    """One line per var_desk asset of seed 0: its innovation quantiles at each level."""
    inputs = workloads.VarDesk().make_inputs(sg, 0, 0.0)
    for _, spec in inputs["ops"]:
        engine._engine.cache_clear()
        yield _hex([sg.risk.innovation_quantile(spec["fit"], p) for p in workloads.VAR_LEVELS])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--verbose", action="store_true", help="print each part's digest too")
    args = ap.parse_args(argv)
    total = hashlib.sha256()
    for name, lines in (("study", study_lines()), ("var_desk", var_desk_lines())):
        part = hashlib.sha256()
        for line in lines:
            part.update(line.encode() + b"\n")
            total.update(line.encode() + b"\n")
        if args.verbose:
            print(f"{name} {part.hexdigest()}")
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
