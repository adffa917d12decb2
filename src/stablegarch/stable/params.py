"""Parameter containers for the alpha-stable family."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class StableParams:
    """Parameters (alpha, beta, mu, gamma) of a stable law, continuous parameterization.

    alpha is the tail exponent in (0, 2], beta the asymmetry in [-1, 1],
    mu the location and gamma > 0 the scale.  At alpha = 2 the law is
    Gaussian with variance 2 * gamma**2 and beta has no effect (the skewness
    term of the characteristic function carries a tan(alpha*pi/2) factor
    which vanishes there); constructors still accept any beta.
    """

    alpha: float
    beta: float
    mu: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not (-1.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must be in [-1, 1], got {self.beta}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")

    def standardized(self) -> "StableParams":
        """Same shape parameters with mu = 0, gamma = 1."""
        return StableParams(self.alpha, self.beta, 0.0, 1.0)


@dataclass(frozen=True)
class DensityAccuracy:
    """Accuracy budget for stable density evaluation.

    abs_tol is the absolute tolerance each strategy must certify.
    max_series_terms caps both series expansions.  fft_grid_size (a power of
    two) is the largest number of Fourier-inversion nodes: tables and point
    sums find their grid from the aliasing folds alone, the smallest that
    reaches their points and certifies the folds, up to this size, and a
    table inverts once, on that grid.  The grid's frequency range is chosen
    from the truncation and interpolation error bounds for the current
    alpha.
    """

    abs_tol: float = 1e-8
    max_series_terms: int = 220
    fft_grid_size: int = 2 ** 18

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")
        if self.max_series_terms < 10:
            raise ValueError("max_series_terms must be at least 10")
        n = self.fft_grid_size
        if n < 2 ** 10 or (n & (n - 1)) != 0:
            raise ValueError("fft_grid_size must be a power of two >= 2**10")


DEFAULT_ACCURACY = DensityAccuracy()

# Looser profile for inner optimization loops: series strategies cover the
# whole line for most of the fitting region, so likelihood evaluations avoid
# building Fourier tables altogether.
FIT_ACCURACY = DensityAccuracy(abs_tol=1e-6, max_series_terms=260, fft_grid_size=2 ** 16)
