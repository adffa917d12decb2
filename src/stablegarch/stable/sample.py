"""Stable random variates via the Chambers-Mallows-Stuck transform."""

from __future__ import annotations

import numpy as np

from .params import StableParams

# values transformed per pass: the block's few temporaries stay in cache,
# where whole-array temporaries of 10^5 values spill it
_BLOCK = 8192


def sample(psi: StableParams, count: int, seed=0) -> np.ndarray:
    """Draw i.i.d. variates from S(psi).

    The classical CMS transform of a (uniform, exponential) pair (v, w)
    produces a variate in the historical parameterization; for alpha != 1 it
    is shifted by -beta*tan(alpha*pi/2) to land in the continuous
    parameterization used throughout this package (for alpha = 1 the two
    coincide), then scaled by gamma and moved by mu.  Deterministic for a
    fixed seed; ``seed`` may also be an existing numpy Generator.

    The transform calls no ``sin`` or ``cos``: on common x86 builds numpy's
    float64 kernels for them are scalar libm calls, several times slower than
    its vectorised ``tan``, ``log`` and ``exp``.  With phi = alpha*(v + b0)
    and d = v - phi it uses the tangent identities

        sin(phi) = 2s/(1 + s^2),  s = tan(phi/2),
        1/cos(v)^2 = 1 + tan(v)^2,  1/cos(d)^2 = 1 + tan(d)^2,

    (cos v and cos d are positive, as |v|, |d| < pi/2), and its two powers
    become one ``exp`` of a sum of two logarithms.  At alpha = 1 it takes
    cos v = 1/sqrt(1 + tan(v)^2), at alpha = 2 sin v = tan v/sqrt(1 + tan(v)^2).
    It runs on blocks of ``_BLOCK`` values, in place: each step writes with
    ``out=`` into the block of v or w or one of at most two temporaries, so
    a block touches at most four arrays, all in cache, where the same
    expressions would allocate a new array per operation.  Each step keeps
    its expression's operations and their order (only a product's or a
    sum's operands trade places), so the draws equal the expressions' bit
    for bit.  Each value depends on its own (v, w) alone, so the blocks give
    the values of one pass over the whole array.  The (v, w) stream is
    ``count`` draws of ``uniform(-pi/2, pi/2)``, then ``count`` of
    ``exponential(1.0)``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=count)
    # the same values as exponential(1.0), without its scale step
    w = rng.standard_exponential(count)
    for lo in range(0, count, _BLOCK):
        _transform(psi, v[lo:lo + _BLOCK], w[lo:lo + _BLOCK])
    return v


def _transform(psi: StableParams, v: np.ndarray, w: np.ndarray) -> None:
    """Overwrite v with the S(psi) variates of the pairs (v, w), using w as scratch."""
    a, b = psi.alpha, psi.beta
    t = np.tan(v)
    if a == 1.0:
        half = np.pi / 2.0
        # z = (t hv - b log((half w) / (hv sqrt(1 + t^2)))) / half, hv = half + b v
        hv = np.multiply(v, b)
        hv += half
        z = np.multiply(t, hv, out=v)
        np.multiply(t, t, out=t)
        t += 1.0
        np.sqrt(t, out=t)
        np.multiply(hv, t, out=hv)
        w *= half
        np.divide(w, hv, out=w)
        np.log(w, out=w)
        w *= b
        z -= w
        z *= 1.0 / half
    elif a == 2.0:
        # z = t * (2 sqrt(w / (1 + t^2)))
        q = np.multiply(t, t, out=v)
        q += 1.0
        np.divide(w, q, out=w)
        np.sqrt(w, out=w)
        w *= 2.0
        z = np.multiply(t, w, out=v)
    else:
        tb = b * np.tan(np.pi * a / 2.0)
        b0 = np.arctan(tb) / a
        scale = (1.0 + tb * tb) ** (1.0 / (2.0 * a))
        phi = np.add(v, b0)
        phi *= a
        td = np.subtract(v, phi, out=v)  # d = v - phi, then tan d
        np.tan(td, out=td)
        s = np.multiply(phi, 0.5, out=phi)
        np.tan(s, out=s)
        # 1/cos(v)^(1/a) * (cos(d)/w)^((1-a)/a), as one exp of
        # e = (log(1 + t^2) + (a - 1) log((1 + td^2) w^2)) / (2a)
        e = np.multiply(t, t, out=t)
        e += 1.0
        np.log(e, out=e)
        np.multiply(td, td, out=td)
        td += 1.0
        np.multiply(w, w, out=w)
        np.multiply(td, w, out=td)
        np.log(td, out=td)
        td *= a - 1.0
        e += td
        e /= 2.0 * a
        # z = (2 scale) s / (1 + s^2) * exp(e) - tb
        q = np.multiply(s, s, out=v)
        q += 1.0
        z = np.multiply(s, 2.0 * scale, out=s)
        np.divide(z, q, out=z)
        z *= np.exp(e, out=e)
        z -= tb
    np.multiply(z, psi.gamma, out=v)
    v += psi.mu
