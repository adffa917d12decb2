"""Parameter containers for the GARCH(p, q) recursion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GarchOrder:
    """Lag orders: p past variances, q past squared returns."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 1 or self.p + self.q < 1:
            raise ValueError(f"invalid order (p={self.p}, q={self.q})")

    @property
    def dim(self) -> int:
        """Length of theta = (omega, a_1..a_q, b_1..b_p)."""
        return self.p + self.q + 1


@dataclass(frozen=True)
class GarchParams:
    """Volatility recursion coefficients (omega, a_1..a_q, b_1..b_p).

    omega must be positive, the lag coefficients nonnegative, and the
    variance-lag coefficients must satisfy sum(b) < 1.
    """

    omega: float
    a: tuple = ()
    b: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in np.atleast_1d(self.a))
                           if not isinstance(self.a, tuple) else tuple(self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in np.atleast_1d(self.b))
                           if not isinstance(self.b, tuple) else tuple(self.b))
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if any(x < 0.0 for x in self.a) or any(x < 0.0 for x in self.b):
            raise ValueError("lag coefficients must be nonnegative")
        if sum(self.b) >= 1.0:
            raise ValueError(f"sum(b) = {sum(self.b)} must be below 1")
        if len(self.a) < 1:
            raise ValueError("at least one squared-return lag is required")

    @property
    def order(self) -> GarchOrder:
        return GarchOrder(p=len(self.b), q=len(self.a))

    def as_array(self) -> np.ndarray:
        return np.concatenate([[self.omega], self.a, self.b])

    @classmethod
    def from_array(cls, theta: np.ndarray, order: GarchOrder) -> "GarchParams":
        theta = np.asarray(theta, dtype=float)
        return cls(omega=float(theta[0]),
                   a=tuple(theta[1:1 + order.q]),
                   b=tuple(theta[1 + order.q:1 + order.q + order.p]))


@dataclass
class VolatilityPath:
    """Conditional variances along a sample.

    ``forecast[t - 2]`` is sigma2_t for t = 2..n+1 from the returns before t
    only, so the first return has none; a simulated path carries no forecast.
    """

    sigma2: np.ndarray
    forecast: np.ndarray | None = None

    def __post_init__(self):
        self.sigma2 = np.asarray(self.sigma2, dtype=float)

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(self.sigma2)
