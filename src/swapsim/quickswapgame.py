"""Backward-induction solver for the premium-backed quick swap game.

Both parties escrow a griefing premium alongside the principal: B locks Q,
A locks 1.5Q.  Every decision node offers an explicit cancel action that
releases a cancellation secret and unwinds the swap early, so a party who
finds the deal unfavorable pays at most the premium instead of griefing the
counterparty for the full locktime.  The solver mirrors the plain-HTLC one:
closed forms at the final node, a continuation band for B at the middle
node, and a delay-free success rate that depends only on x_a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .htlcgame import SwapParams, _cdf_from, _pe_below_from, sr_surface
from .numerics import Bracket, find_roots, integrate
from .pricemodel import PriceState, transition_pdf

__all__ = [
    "QuickSwapParams",
    "QuickThresholds",
    "payoff_t4",
    "claim_threshold_t4",
    "payoff_t3",
    "continuation_band_t3",
    "success_rate",
    "compare_participation",
    "ParticipationReport",
]

_ROOT_SCAN_POINTS = 256
_ROOT_TOL = 1e-10


@dataclass(frozen=True)
class QuickSwapParams:
    """Premium-protocol parameters layered over the shared swap economics.

    ``D`` is the premium locktime, ``Delta`` the stagger between the two
    premium timeouts, and ``rho`` the premium rate per coin-hour defining
    c(v * t) = rho * v * t.  The premium Q = c(x_a * t_a) is derived.
    """

    base: SwapParams
    D: float = 12.0
    Delta: float = 2.0
    rho: float = 0.001

    def __post_init__(self) -> None:
        b = self.base
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if not self.D > b.tau_a + b.tau_b:
            raise ValueError("premium locktime too short: need D > tau_a + tau_b")
        if not b.tau_a + 2.0 * b.tau_b < self.D + self.Delta < b.t_b:
            raise ValueError(
                "premium timeouts ill-formed: need tau_a + 2*tau_b < D + Delta < t_b"
            )

    @property
    def Q(self) -> float:
        """Griefing premium: opportunity cost of A's principal over its locktime."""
        return self.rho * self.base.x_a * self.base.t_a

    def premium_of(self, party: str) -> float:
        if party == "A":
            return 1.5 * self.Q
        if party == "B":
            return self.Q
        raise ValueError(f"unknown party {party!r}")

    def cost(self, amount: float, hours: float) -> float:
        """Opportunity cost c(amount * hours) = rho * amount * hours."""
        return self.rho * amount * hours

    def with_x_a(self, x_a: float) -> "QuickSwapParams":
        return replace(self, base=self.base.with_x_a(x_a))


@dataclass(frozen=True)
class QuickThresholds:
    """A's final claim cutoff and B's middle-node continuation band."""

    x_t4_star: float
    x3_1: float | None
    x3_2: float | None

    @property
    def band(self) -> Bracket | None:
        if self.x3_1 is None or self.x3_2 is None:
            return None
        return Bracket(self.x3_1, self.x3_2)


def _check_price(price: float) -> None:
    if not price > 0:
        raise ValueError("price must be > 0")


# ---------------------------------------------------------------------------
# Final node (t4): A claims or cancels, B follows.

def _t4_cont_A(q: QuickSwapParams, price):
    b = q.base
    return (
        (1.0 + b.sp_a) * price * math.exp((b.gbm.mu - b.r_a) * b.tau_b)
        + 1.5 * q.Q * math.exp(-b.r_a * b.tau_a)
        - b.f_a
        - b.f_b
    )


def _t4_cont_B(q: QuickSwapParams) -> float:
    b = q.base
    return (
        (1.0 + b.sp_b) * b.x_a * math.exp(-b.r_b * (b.tau_a + b.t_eps))
        + q.Q * math.exp(-b.r_b * (b.t_eps + b.tau_b))
        - b.f_a
        - b.f_b
    )


def _t4_cancel_A(q: QuickSwapParams) -> float:
    b = q.base
    return (
        b.x_a * math.exp(-b.r_a * (2.0 * b.t_eps + b.tau_b + b.tau_a))
        + 1.5 * q.Q * math.exp(-b.r_a * b.tau_a)
        - 2.0 * b.f_a
    )


def _t4_cancel_B(q: QuickSwapParams, price):
    b = q.base
    return (
        price * math.exp((b.gbm.mu - b.r_b) * (b.t_eps + b.tau_b))
        + q.Q * math.exp(-b.r_b * (b.t_eps + 2.0 * b.tau_b))
        - 2.0 * b.f_b
    )


def payoff_t4(q: QuickSwapParams, price_t4: float, action: str) -> tuple[float, float]:
    """Final-node payoffs (A, B) when A continues or cancels."""
    _check_price(price_t4)
    if action == "continue":
        return float(_t4_cont_A(q, price_t4)), _t4_cont_B(q)
    if action == "cancel":
        return _t4_cancel_A(q), float(_t4_cancel_B(q, price_t4))
    raise ValueError(f"unknown action {action!r}")


def claim_threshold_t4(q: QuickSwapParams) -> float:
    """Price above which A claims at the final node; the premium cancels out."""
    b = q.base
    num = b.x_a * math.exp(-b.r_a * (2.0 * b.t_eps + b.tau_b + b.tau_a)) - b.f_a + b.f_b
    return num / ((1.0 + b.sp_a) * math.exp((b.gbm.mu - b.r_a) * b.tau_b))


# ---------------------------------------------------------------------------
# Middle node (t3): B continues, cancels, or stops.

def _u_B_cont_t3(q: QuickSwapParams, price_t3):
    b = q.base
    x4 = claim_threshold_t4(q)
    arr = np.asarray(price_t3, dtype=float)
    cdf4 = _cdf_from(b, x4, arr, b.tau_b)
    # A-cancels branch is linear in the t4 price: split into slope/intercept
    # and use the log-normal partial expectation in closed form.
    slope = math.exp((b.gbm.mu - b.r_b) * (b.t_eps + b.tau_b))
    intercept = q.Q * math.exp(-b.r_b * (b.t_eps + 2.0 * b.tau_b)) - 2.0 * b.f_b
    honest = math.exp(-b.r_b * b.tau_b) * (
        (1.0 - cdf4) * _t4_cont_B(q)
        + slope * _pe_below_from(b, x4, arr, b.tau_b)
        + intercept * cdf4
    )
    # Malicious A sits on the claim until just before the premium timeout D.
    d_wait = q.D - b.eps
    malicious = (
        arr * math.exp(b.gbm.mu * (b.tau_b + b.t_eps + q.D)) * math.exp(-b.r_b * (d_wait + b.t_eps))
        + q.Q * math.exp(-b.r_b * (b.t_eps + d_wait + b.tau_b))
        - 2.0 * b.f_b
    )
    out = b.theta_1 * honest + (1.0 - b.theta_1) * malicious
    if np.isscalar(price_t3):
        return float(out)
    return out


def _u_A_cont_t3(q: QuickSwapParams, price_t3):
    b = q.base
    x4 = claim_threshold_t4(q)
    arr = np.asarray(price_t3, dtype=float)
    cdf4 = _cdf_from(b, x4, arr, b.tau_b)
    slope = (1.0 + b.sp_a) * math.exp((b.gbm.mu - b.r_a) * b.tau_b)
    intercept = 1.5 * q.Q * math.exp(-b.r_a * b.tau_a) - b.f_a - b.f_b
    above = arr * math.exp(b.gbm.mu * b.tau_b) - _pe_below_from(b, x4, arr, b.tau_b)
    out = math.exp(-b.r_a * b.tau_b) * (
        slope * above + intercept * (1.0 - cdf4) + _t4_cancel_A(q) * cdf4
    )
    if np.isscalar(price_t3):
        return float(out)
    return out


def _t3_stop_A(q: QuickSwapParams) -> float:
    b = q.base
    return (
        b.x_a * math.exp(-b.r_a * (b.t_a + b.tau_a))
        + 1.5 * q.Q * math.exp(-b.r_a * (b.t_b + b.tau_a))
        - 2.0 * b.f_a
        + q.Q * math.exp(-b.r_b * b.tau_b)
        - b.f_b
    )


def _t3_cancel_A(q: QuickSwapParams) -> float:
    b = q.base
    return (
        b.x_a * math.exp(-b.r_a * (b.tau_a + b.t_eps))
        + 1.5 * q.Q * math.exp(-b.r_a * (b.t_eps + b.tau_a))
        - 2.0 * b.f_a
    )


def _t3_cancel_B(q: QuickSwapParams, price_t3):
    b = q.base
    return price_t3 + q.Q * math.exp(-b.r_b * b.tau_b) - b.f_b


def payoff_t3(q: QuickSwapParams, price_t3: float, action: str) -> tuple[float, float]:
    """Middle-node payoffs (A, B) for B's continue/cancel/stop choice."""
    _check_price(price_t3)
    if action == "continue":
        return float(_u_A_cont_t3(q, price_t3)), float(_u_B_cont_t3(q, price_t3))
    if action == "cancel":
        return _t3_cancel_A(q), float(_t3_cancel_B(q, price_t3))
    if action == "stop":
        return _t3_stop_A(q), float(price_t3)
    raise ValueError(f"unknown action {action!r}")


def _band_scan_bracket(q: QuickSwapParams) -> Bracket:
    b = q.base
    ref = max(b.x_yb_t1, b.x_a, claim_threshold_t4(q))
    return Bracket(ref * 1e-3, ref * 12.0)


def continuation_band_t3(q: QuickSwapParams, scan: Bracket | None = None) -> Bracket | None:
    """Price band over which B prefers continuing to canceling at t3.

    Cancel strictly dominates stop (the stop path forfeits B's premium), so
    the relevant comparison is continue vs cancel.
    """
    scan = scan or _band_scan_bracket(q)

    def g(x):
        return _u_B_cont_t3(q, x) - _t3_cancel_B(q, x)

    roots = find_roots(g, scan, grid_points=_ROOT_SCAN_POINTS, tol=_ROOT_TOL, vectorized=True)
    if not roots:
        return None
    edges = [scan.lo] + roots + [scan.hi]
    best: tuple[float, float] | None = None
    for lo, hi in zip(edges[:-1], edges[1:]):
        if g(0.5 * (lo + hi)) > 0.0 and (best is None or hi - lo > best[1] - best[0]):
            best = (lo, hi)
    if best is None:
        return None
    lo, hi = best
    if lo == scan.lo or hi == scan.hi:
        if scan.hi / max(scan.lo, 1e-12) > 1e8:
            return Bracket(lo, hi)
        return continuation_band_t3(q, Bracket(scan.lo * 0.1, scan.hi * 10.0))
    return Bracket(lo, hi)


def compute_thresholds(q: QuickSwapParams) -> QuickThresholds:
    band = continuation_band_t3(q)
    return QuickThresholds(
        x_t4_star=claim_threshold_t4(q),
        x3_1=None if band is None else band.lo,
        x3_2=None if band is None else band.hi,
    )


# ---------------------------------------------------------------------------
# Success rate of the premium swap.

def success_rate(q: QuickSwapParams) -> float:
    """Probability the premium swap completes; a single number per parameter
    set — no delay axes, by construction of the cancel provisions."""
    band = continuation_band_t3(q)
    if band is None:
        return 0.0
    b = q.base
    x4 = claim_threshold_t4(q)
    st = PriceState(b.x_yb_t1)

    def integrand(price):
        dens = b.theta_2 * transition_pdf(price, st, b.gbm, b.tau_a)
        tails = 1.0 - _cdf_from(b, x4, price, b.tau_b)
        return dens * b.theta_1 * tails

    return max(0.0, integrate(integrand, band, b.quad))


# ---------------------------------------------------------------------------
# Participation comparison against the plain HTLC game.

@dataclass(frozen=True)
class ParticipationReport:
    """Per-x_a success rates and the ranges over which each protocol clears."""

    xa_axis: np.ndarray
    htlc_sr_zero_delay: np.ndarray     # raw SR at T=T'=0; NaN where A never starts
    htlc_sr_worst_delay: np.ndarray    # min raw SR over the delay grid (NA -> NaN)
    quick_sr: np.ndarray
    htlc_range_zero_delay: tuple[float, float] | None
    htlc_range_worst_delay: tuple[float, float] | None
    quick_range: tuple[float, float] | None
    quick_contains_htlc: bool
    quick_strictly_contains_worst: bool


def _nonzero_range(xa: np.ndarray, values: np.ndarray) -> tuple[float, float] | None:
    ok = np.where(np.nan_to_num(values, nan=0.0) > 0.0)[0]
    if len(ok) == 0:
        return None
    return float(xa[ok[0]]), float(xa[ok[-1]])


def _contains(outer: tuple[float, float] | None, inner: tuple[float, float] | None,
              strict: bool = False) -> bool:
    if inner is None:
        return outer is not None if strict else True
    if outer is None:
        return False
    lo_o, hi_o = outer
    lo_i, hi_i = inner
    if strict:
        return lo_o <= lo_i and hi_o >= hi_i and (hi_o - lo_o) > (hi_i - lo_i)
    return lo_o <= lo_i and hi_o >= hi_i


def compare_participation(
    h: SwapParams,
    q: QuickSwapParams,
    xa_grid,
    delay_points: int = 5,
) -> ParticipationReport:
    """Contrast the x_a ranges with non-zero success rate under each protocol.

    The premium protocol has no delay axes; the plain HTLC rate is evaluated
    at zero delay and minimized over a coarse delay grid.
    """
    if (h.x_yb_t1, h.t_a, h.t_b, h.tau_a, h.tau_b, h.gbm) != (
        q.base.x_yb_t1, q.base.t_a, q.base.t_b, q.base.tau_a, q.base.tau_b, q.base.gbm
    ):
        raise ValueError("economic parameters of the two games do not match")
    xa = np.asarray(xa_grid, dtype=float)
    ts = np.linspace(0.0, h.claim_delay_window, delay_points)
    tps = np.linspace(0.0, h.lock_delay_window, delay_points)
    grid = sr_surface(h, xa, ts, tps)

    htlc_zero = grid.raw[:, 0, 0]
    worst = np.full(len(xa), np.nan)
    for i in range(len(xa)):
        cell = grid.raw[i]
        # A cell where participation fails contributes zero completed swaps.
        worst[i] = np.min(np.nan_to_num(cell, nan=0.0))

    quick = np.array([success_rate(q.with_x_a(float(x))) for x in xa])

    r_zero = _nonzero_range(xa, htlc_zero)
    r_worst = _nonzero_range(xa, worst)
    r_quick = _nonzero_range(xa, quick)
    return ParticipationReport(
        xa_axis=xa,
        htlc_sr_zero_delay=htlc_zero,
        htlc_sr_worst_delay=worst,
        quick_sr=quick,
        htlc_range_zero_delay=r_zero,
        htlc_range_worst_delay=r_worst,
        quick_range=r_quick,
        quick_contains_htlc=_contains(r_quick, r_zero),
        quick_strictly_contains_worst=_contains(r_quick, r_worst, strict=True),
    )
