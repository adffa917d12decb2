"""Parameter containers for stable (pseudo-)maximum-likelihood estimation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..garch.params import GarchOrder, GarchParams
from ..stable import StableParams


@dataclass(frozen=True)
class ModelParams:
    """Full estimand tau = (theta, psi) with the innovation scale pinned to 1.

    The scale of the stable innovation is not identified jointly with omega
    and the ARCH coefficients, so gamma = 1 throughout and psi carries only
    (alpha, beta, mu).
    """

    theta: GarchParams
    alpha: float
    beta: float
    mu: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not (-1.0 < self.beta < 1.0) and not (self.alpha == 2.0 and -1 <= self.beta <= 1):
            raise ValueError(f"beta must be in (-1, 1), got {self.beta}")
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")

    @property
    def gamma(self) -> float:
        return 1.0

    @property
    def psi(self) -> StableParams:
        return StableParams(self.alpha, self.beta, self.mu, 1.0)

    @property
    def order(self) -> GarchOrder:
        return self.theta.order

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.theta.as_array(), [self.alpha, self.beta, self.mu]])

    @classmethod
    def from_array(cls, tau: np.ndarray, order: GarchOrder) -> "ModelParams":
        tau = np.asarray(tau, dtype=float)
        d = order.dim
        return cls(theta=GarchParams.from_array(tau[:d], order),
                   alpha=float(tau[d]), beta=float(tau[d + 1]), mu=float(tau[d + 2]))


def param_names(order: GarchOrder) -> list[str]:
    names = ["omega"] + [f"a{i}" for i in range(1, order.q + 1)] \
        + [f"b{j}" for j in range(1, order.p + 1)]
    return names + ["alpha", "beta", "mu"]


@dataclass(frozen=True)
class BoundsConfig:
    """Componentwise box realizing the compact parameter space.

    lower == upper freezes a coordinate (used e.g. to lock the dynamics for
    i.i.d. fits); otherwise lower < upper is required.  Defaults keep alpha
    away from 2 so the asymmetry stays identified, and away from the lower
    boundary of the admissible range.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape:
            raise ValueError("bound arrays must have equal shape")
        if np.any(lo > hi):
            raise ValueError("lower bounds must not exceed upper bounds")

    @classmethod
    def default(cls, order: GarchOrder) -> "BoundsConfig":
        lo = [1e-8] + [0.0] * order.q + [0.0] * order.p + [0.4, -0.99, -10.0]
        hi = [10.0] + [5.0] * order.q + [0.999] * order.p + [1.99, 0.99, 10.0]
        return cls(np.array(lo), np.array(hi))

    @property
    def free(self) -> np.ndarray:
        return self.upper > self.lower

    def theta_only(self, order: GarchOrder) -> "BoundsConfig":
        d = order.dim
        return BoundsConfig(self.lower[:d], self.upper[:d])

    def clip_inside(self, x: np.ndarray) -> np.ndarray:
        """x clipped into the box, 1e-6 of each free side's width from its edges."""
        width = self.upper - self.lower
        pad = 1e-6 * np.where(width > 0, width, 1.0)
        return np.clip(x, self.lower + pad * self.free, self.upper - pad * self.free)


@dataclass
class FitResult:
    """Estimation output: parameters, information matrix and diagnostics.

    ``to_json`` writes and ``from_json`` reads the fit document of the CLI's
    ``fit`` and ``var``: the fields "method", "order" {"p", "q"}, "names",
    "estimates", "std_errors", "neg_loglik", "J_n" (row-major),
    "iterations", "converged", "constraint_active", "grad_norm", "message"
    and "data" {"n", "first_date", "last_date"}, the window of the n_obs
    returns fitted (dates null when the series has none).  Every non-finite
    number (neg_loglik, J_n, std_errors, grad_norm) is written as null and
    read back as NaN, so the document is strict JSON.  Documents that also
    carry a top-level "n_obs" (the earlier CLI layout) load; n is read from
    "data".
    """

    tau_hat: ModelParams
    neg_loglik: float
    J_n: np.ndarray | None
    std_errors: np.ndarray | None
    iterations: int
    converged: bool
    constraint_active: np.ndarray | None
    method: str = "stable"
    n_obs: int = 0
    grad_norm: float = np.nan
    message: str = ""
    first_date: str | None = None
    last_date: str | None = None

    def param_array(self) -> np.ndarray:
        arr = self.tau_hat.as_array()
        if self.method == "gaussian":
            return arr[: self.tau_hat.order.dim]
        return arr

    def names(self) -> list[str]:
        names = param_names(self.tau_hat.order)
        if self.method == "gaussian":
            return names[: self.tau_hat.order.dim]
        return names

    def to_json(self, path) -> None:
        """Write the fit document to ``path``."""
        order = self.tau_hat.order
        doc = {
            "method": self.method,
            "order": {"p": order.p, "q": order.q},
            "names": self.names(),
            "estimates": [float(v) for v in self.param_array()],
            "std_errors": (None if self.std_errors is None
                           else [_float_or_none(v) for v in self.std_errors]),
            "neg_loglik": _float_or_none(self.neg_loglik),
            "J_n": (None if self.J_n is None
                    else [_float_or_none(v) for v in np.asarray(self.J_n).ravel()]),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "constraint_active": (None if self.constraint_active is None
                                  else [bool(v) for v in self.constraint_active]),
            "grad_norm": _float_or_none(self.grad_norm),
            "message": self.message,
            "data": {"n": int(self.n_obs), "first_date": self.first_date,
                     "last_date": self.last_date},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "FitResult":
        """Read a fit document; a missing field raises KeyError."""
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        order = GarchOrder(p=int(d["order"]["p"]), q=int(d["order"]["q"]))
        est = np.asarray(d["estimates"], dtype=float)
        theta = GarchParams.from_array(est[:order.dim], order)
        shape = (2.0, 0.0, 0.0) if d["method"] == "gaussian" else est[order.dim:order.dim + 3]
        dim = len(d["names"])
        jn, se, ca, gn = (d.get(k) for k in ("J_n", "std_errors", "constraint_active",
                                             "grad_norm"))
        data = d["data"]
        # numpy reads a null of a float array as NaN
        return cls(tau_hat=ModelParams(theta, *shape),
                   neg_loglik=float(np.asarray(d["neg_loglik"], dtype=float)),
                   J_n=None if jn is None else np.asarray(jn, dtype=float).reshape(dim, dim),
                   std_errors=None if se is None else np.array(se, dtype=float),
                   iterations=int(d["iterations"]), converged=bool(d["converged"]),
                   constraint_active=None if ca is None else np.asarray(ca, dtype=bool),
                   method=d["method"], n_obs=int(data["n"]),
                   grad_norm=float(np.asarray(gn, dtype=float)),
                   message=d.get("message", ""),
                   first_date=data.get("first_date"), last_date=data.get("last_date"))


def _float_or_none(v):
    v = float(v)
    return None if not np.isfinite(v) else v
