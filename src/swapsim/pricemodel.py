"""Geometric Brownian motion price model.

Prices are always the value of the counterparty's locked coins denominated
in the initiator's asset.  Transitions over a horizon of ``lam`` hours are
log-normal: ln(x_{t+lam}/x_t) ~ Normal((mu - sigma^2/2) * lam, sigma^2 * lam).
All functions are pure; ``sample_endpoints`` draws from the generator it is given.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GbmParams",
    "PriceState",
    "expected_price",
    "transition_pdf",
    "transition_cdf",
    "erfc",
    "law_terms",
    "math_exp",
    "sample_endpoints",
]


@dataclass(frozen=True)
class GbmParams:
    """Drift (per hour) and volatility (per sqrt-hour) of the price process."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be >= 0")

    def require_diffusive(self) -> None:
        """Density/distribution functions need a genuinely random process."""
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0 for density/distribution queries")


@dataclass(frozen=True)
class PriceState:
    """A price point: the value in the initiator's asset."""

    value: float

    def __post_init__(self) -> None:
        if not self.value > 0:
            raise ValueError("price value must be > 0")


_ERFC_STEP, _ERFC_NODES, _ERFC_SCALE, _ERFC_BLOCK, _MIN_NORMAL = 512, 13_952, 1020, 4096, 2.0**-1022


@functools.cache
def _erfc_tables() -> tuple:
    """erfc and its slope at the nodes (k + 1/2)/512, k < 13,952, scaled by 2**1020,
    from ``math.erfc`` and ``math.exp`` on first use (218 KB); G's polynomials in U."""
    nodes = ((np.arange(_ERFC_NODES) + 0.5) / _ERFC_STEP).tolist()
    value = np.fromiter((math.erfc(x) + _MIN_NORMAL for x in nodes), float, _ERFC_NODES)
    half = np.fromiter((math.exp(-0.5 * x * x) for x in nodes), float, _ERFC_NODES)  # normal
    slope = np.ldexp(half, _ERFC_SCALE) * half * (2.0 / math.sqrt(math.pi) / _ERFC_STEP)
    # u**n * v**j's coefficient in G, in U and V, highest n first; 0-d arrays are faster.
    polys = [[np.array((-1.0) ** (n + j) / (math.factorial(n) * math.factorial(j) * (n + 2 * j + 1))
                       * (2.0 / _ERFC_STEP**2) ** n * _ERFC_STEP ** (-2.0 * j)) for n in range(degree, -1, -1)]
             for j, degree in enumerate((8, 5, 1))]
    return np.ldexp(value, _ERFC_SCALE), slope, polys


def _horner(u: np.ndarray, coefs: list) -> np.ndarray:
    """The polynomial with coefficients ``coefs``, highest power first, at ``u``."""
    acc = np.multiply(u, coefs[0])
    for c in coefs[1:-1]:
        acc += c
        acc *= u
    return np.add(acc, coefs[-1], out=acc)


def erfc(x):
    """Complementary error function, elementwise over an ndarray, else a float.

    One numpy kernel serves every shape, floats included, in passes of 4,096
    elements that bound its temporaries; an element's bits do not depend on
    its array.  Near the node x_k, with h = x - x_k, erfc(x) = erfc(x_k) -
    2/sqrt(pi) * exp(-x_k**2) * h * G(2*x_k*h, h*h), where G(u, v) =
    integral_0^1 exp(-u*s - v*s**2) ds: erfc(x_k) and exp(-x_k**2) come from
    a table, G from its 17 leading terms, and erfc(-x) = 2 - erfc(x).  Only
    +, -, *, abs, min and table lookups, on erfc * 2**1020 so that nothing
    underflows: no SIMD-dispatched transcendental whose bits depend on the
    host, and no floating-point flag.  Within 3 ulp of the correctly rounded
    value on [-6, 27.3], subnormals included (as ``math.erfc`` is); exactly
    2 from -5.9 down and 0 from 27.25 up; NaN for NaN.
    """
    value, slope, (p0, p1, p2) = _erfc_tables()
    arr = np.asarray(x, dtype=float)
    result = np.empty(arr.shape)
    flat, res = arr.reshape(-1), result.reshape(-1)
    for first in range(0, flat.size, _ERFC_BLOCK):
        part, out = flat[first:first + _ERFC_BLOCK], res[first:first + _ERFC_BLOCK]
        t = np.minimum(np.abs(part), _ERFC_NODES / _ERFC_STEP)  # NaN stays NaN
        t *= _ERFC_STEP
        k = np.fmin(t, _ERFC_NODES - 0.5).astype(np.intp)
        m = k + 0.5
        w = np.subtract(t, m, out=t)  # h * 512, in [-1/2, 1/2]
        u = np.multiply(w, m, out=m)  # U = w * m = u * 512**2 / 2, V = w * w = v * 512**2
        v, g = w * w, 0.0
        for poly in (p2, p1, p0):  # G = p0(U) + V * (p1(U) + V * p2(U))
            g = g * v + _horner(u, poly)
        w *= slope.take(k)
        w *= g
        # At least 2**-1022 once scaled back, which is exact; so is the
        # subtraction that leaves a subnormal.
        np.multiply(np.subtract(value.take(k), w, out=w), 2.0**-_ERFC_SCALE, out=out)
        out -= _MIN_NORMAL
        np.subtract(2.0, out, out=out, where=np.signbit(part))  # erfc(-x) = 2 - erfc(x)
    return result if isinstance(x, np.ndarray) else float(result)


def expected_price(state: PriceState, params: GbmParams, lam: float) -> float:
    """Expected price after ``lam`` hours: value * exp(mu * lam)."""
    if lam < 0:
        raise ValueError("horizon must be >= 0")
    return state.value * math.exp(params.mu * lam)


def _log_moments(params: GbmParams, lam) -> tuple:
    """Mean and std of ln(price_{t+lam} / price_t); elementwise over an ndarray ``lam``."""
    m = (params.mu - 0.5 * params.sigma**2) * lam
    s = params.sigma * np.sqrt(lam)
    return m, s


def math_exp(x):
    """math.exp, elementwise over an array (np.exp may differ in the last bit)."""
    if isinstance(x, np.ndarray):  # keeps the shape, 0-d and empty included
        return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return math.exp(x)


def _standardized(d, s):
    """``d / s``, or its limit where the spread ``s`` is 0 (a zero horizon or
    no volatility): the price law is then a point, and the kernels step from
    0 to their full value at ``d = 0``."""
    if s.min(initial=math.inf) > 0:
        return d / s
    return np.where(s > 0, d / np.where(s > 0, s, 1.0), np.where(d >= 0.0, math.inf, -math.inf))


def _log_ratio(target, start):
    """``log(target / start)``, and -inf where ``target`` is <= 0: such a
    target lies below every price, and both kernels below are exactly 0
    there.  The check reads ``target`` alone (a threshold per row), not the
    result broadcast against ``start``."""
    target = np.asarray(target, dtype=float)
    if target.min(initial=math.inf) > 0:
        return np.log(target / start)
    with np.errstate(divide="ignore"):
        return np.log(np.maximum(target, 0.0) / start)


def law_terms(target, start, params: GbmParams, cdf=(), pe=()) -> tuple[list, list]:
    """The unchecked price-law kernel: P[x_{t+lam} <= target | x_t = start] at
    each horizon of ``cdf``, and E[x_{t+lam} * 1{x_{t+lam} <= target}] =
    start * e^{mu*lam} * Phi((ln(target/start) - (mu + sigma^2/2)*lam) /
    (sigma*sqrt(lam))) at each of ``pe``, as two lists, from one log ratio and
    one erfc call.  Each term broadcasts ``target``, ``start`` and its horizon;
    a term's bits do not depend on the other terms of the call."""
    start = np.asarray(start, dtype=float)
    ratio = _log_ratio(target, start)
    shapes = [np.broadcast(ratio, lam).shape for lam in (*cdf, *pe)]
    ends = list(itertools.accumulate((math.prod(shape) for shape in shapes), initial=0))
    args = np.empty(ends[-1])  # every term's -z / sqrt(2), written in place
    for i, (lam, shape) in enumerate(zip((*cdf, *pe), shapes)):
        m, s = _log_moments(params, lam)
        shift = (params.mu + 0.5 * params.sigma**2) * lam if i >= len(cdf) else m
        np.divide(_standardized(ratio - shift, s), -math.sqrt(2.0), out=args[ends[i]:ends[i + 1]].reshape(shape))
    values = erfc(args)
    del args  # freed before the outputs: the fused terms are three times a term's size
    terms = [values[first:last].reshape(shape) for first, last, shape in zip(ends, ends[1:], shapes)]
    return ([0.5 * term for term in terms[:len(cdf)]],
            [start * math_exp(params.mu * lam) * 0.5 * term for lam, term in zip(pe, terms[len(cdf):])])


def _law_inputs(target, params: GbmParams, lam) -> np.ndarray:
    """Validate a density/distribution query; returns ``target`` as an array."""
    params.require_diffusive()
    if not np.all(np.asarray(lam) > 0):
        raise ValueError("horizon must be > 0")
    arr = np.asarray(target, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("target price must be > 0")
    return arr


def _as_result(out, target, lam):
    return float(out) if np.isscalar(target) and np.isscalar(lam) else out


def transition_pdf(target, state: PriceState, params: GbmParams, lam):
    """Log-normal transition density of the price after ``lam`` hours.

    ``target`` and ``lam`` are scalars or ndarrays and broadcast against each
    other, e.g. a (K, 1) horizon column against an (n,) price vector gives a
    (K, n) density matrix.  Returns a float when both are scalars.
    """
    arr = _law_inputs(target, params, lam)
    m, s = _log_moments(params, lam)
    # exp(-0.5 * z * z) / (arr * s * sqrt(2 pi)), z = (log(arr / x0) - m) / s,
    # in that operation order on two arrays of the broadcast shape.
    shape = np.broadcast_shapes(arr.shape, np.shape(s))
    out = np.empty(shape)  # before z, so z frees the heap's top for the caller's next array
    z = np.subtract(np.log(arr / state.value), m, out=np.empty(shape))
    z /= s
    np.multiply(z, -0.5, out=out)
    out *= z
    np.exp(out, out=out)
    den = np.multiply(arr, s, out=z)
    den *= math.sqrt(2.0 * math.pi)
    out /= den
    return _as_result(out[()], target, lam)  # a 0-d result as a scalar, as ufuncs give it


def transition_cdf(target, state: PriceState, params: GbmParams, lam):
    """P[price_{t+lam} <= target | price_t], via erfc; broadcasts like transition_pdf."""
    arr = _law_inputs(target, params, lam)
    return _as_result(law_terms(arr, state.value, params, cdf=(lam,))[0][0], target, lam)


def sample_endpoints(
    state: PriceState,
    params: GbmParams,
    lam: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` terminal prices after ``lam`` hours in one vectorized step."""
    if lam <= 0:
        raise ValueError("horizon must be > 0")
    m, s = _log_moments(params, lam)
    return state.value * np.exp(m + s * rng.standard_normal(n))
