"""Geometric Brownian motion price model.

Prices are always the value of the counterparty's locked coins denominated
in the initiator's asset.  Transitions over a horizon of ``lam`` hours are
log-normal: ln(x_{t+lam}/x_t) ~ Normal((mu - sigma^2/2) * lam, sigma^2 * lam).
All functions are pure; the path sampler draws from a seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GbmParams",
    "PriceState",
    "expected_price",
    "transition_pdf",
    "transition_cdf",
    "partial_expectation_below",
    "erfc",
    "cdf_from",
    "pe_below_from",
    "math_exp",
    "sample_path",
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
    """A price point: value in the initiator's asset at ``at_time`` hours."""

    value: float
    at_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.value > 0:
            raise ValueError("price value must be > 0")
        if self.at_time < 0:
            raise ValueError("at_time must be >= 0")


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """Apply the float function ``fn`` to every element of ``x``, keeping its
    shape (0-d and empty included); about 30% faster than ``np.frompyfunc``."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def erfc(x: float):
    """Complementary error function; an ndarray goes through ``math.erfc``
    element by element, so the array and scalar paths agree bit for bit."""
    if isinstance(x, np.ndarray):
        return _elementwise(math.erfc, x)
    return math.erfc(x)


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
    if isinstance(x, np.ndarray):
        return _elementwise(math.exp, x)
    return math.exp(x)


def cdf_from(target, start, params: GbmParams, lam):
    """Unchecked transition_cdf kernel: broadcasts ``target``, the start price
    ``start`` and the horizon ``lam`` against each other."""
    m, s = _log_moments(params, lam)
    z = (np.log(target / np.asarray(start, dtype=float)) - m) / s
    return 0.5 * erfc(-z / math.sqrt(2.0))


def pe_below_from(target, start, params: GbmParams, lam):
    """Unchecked partial_expectation_below kernel; broadcasts like cdf_from."""
    start = np.asarray(start, dtype=float)
    _, s = _log_moments(params, lam)
    z = (np.log(target / start) - (params.mu + 0.5 * params.sigma**2) * lam) / s
    return start * math_exp(params.mu * lam) * 0.5 * erfc(-z / math.sqrt(2.0))


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
    z = (np.log(arr / state.value) - m) / s
    out = np.exp(-0.5 * z * z) / (arr * s * math.sqrt(2.0 * math.pi))
    return _as_result(out, target, lam)


def transition_cdf(target, state: PriceState, params: GbmParams, lam):
    """P[price_{t+lam} <= target | price_t], via erfc; broadcasts like transition_pdf."""
    arr = _law_inputs(target, params, lam)
    return _as_result(cdf_from(arr, state.value, params, lam), target, lam)


def partial_expectation_below(target, state: PriceState, params: GbmParams, lam):
    """E[price_{t+lam} * 1{price_{t+lam} <= target}], closed form.

    Standard log-normal identity: x0 * e^{mu*lam} * Phi((ln(k/x0) - (mu + sigma^2/2)*lam)
    / (sigma*sqrt(lam))).  Broadcasts like transition_pdf.
    """
    arr = _law_inputs(target, params, lam)
    return _as_result(pe_below_from(arr, state.value, params, lam), target, lam)


def sample_path(
    state: PriceState,
    params: GbmParams,
    horizon: float,
    step: float,
    seed: int | np.random.Generator,
) -> list[PriceState]:
    """Sample one GBM path from ``state`` with exact per-step increments.

    Returns the path including the starting point.  Deterministic given a
    seed; a Generator may be passed to continue an existing stream.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    if horizon < step:
        raise ValueError("horizon must be >= step")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = int(round(horizon / step))
    drift = (params.mu - 0.5 * params.sigma**2) * step
    vol = params.sigma * math.sqrt(step)
    increments = drift + vol * rng.standard_normal(n)
    log_prices = math.log(state.value) + np.cumsum(increments)
    path = [state]
    for i in range(n):
        path.append(PriceState(value=float(np.exp(log_prices[i])), at_time=state.at_time + (i + 1) * step))
    return path


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
