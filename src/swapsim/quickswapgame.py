"""Backward-induction solver for the premium-backed quick swap game.

Both parties escrow a griefing premium alongside the principal: B locks Q,
A locks 1.5Q.  Every decision node offers an explicit cancel action that
releases a cancellation secret and unwinds the swap early, so a party who
finds the deal unfavorable pays at most the premium instead of griefing the
counterparty for the full locktime.  The game has the plain-HTLC shape:
closed forms at the final node, a continuation band for B at the middle
node, and a delay-free success rate that depends only on x_a; the band and
the success rate come from htlcgame's shared ``widest_band`` and
``_sr_integral``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .htlcgame import SwapParams, _scan_bracket, _sr_integral, sr_surface, widest_band
# ``find_roots``, ``integrate`` and ``transition_pdf`` are no longer called
# here (the band and SR solvers are shared with htlcgame); the bindings stay
# for perfbench, which wraps them by name.
from .numerics import Bracket, find_roots, integrate  # noqa: F401
from .pricemodel import PriceState, cdf_from, pe_below_from, transition_pdf  # noqa: F401

__all__ = [
    "QuickSwapParams",
    "payoff_t4",
    "claim_threshold_t4",
    "payoff_t3",
    "continuation_band_t3",
    "success_rate",
    "compare_participation",
    "ParticipationReport",
]

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
        if not all(map(math.isfinite, (self.D, self.Delta, self.rho))):
            raise ValueError("D, Delta and rho must be finite")
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
    PriceState(price_t4)  # rejects a price <= 0
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
    cdf4 = cdf_from(x4, arr, b.gbm, b.tau_b)
    # A-cancels branch is linear in the t4 price: split into slope/intercept
    # and use the log-normal partial expectation in closed form.
    slope = math.exp((b.gbm.mu - b.r_b) * (b.t_eps + b.tau_b))
    intercept = q.Q * math.exp(-b.r_b * (b.t_eps + 2.0 * b.tau_b)) - 2.0 * b.f_b
    honest = math.exp(-b.r_b * b.tau_b) * (
        (1.0 - cdf4) * _t4_cont_B(q)
        + slope * pe_below_from(x4, arr, b.gbm, b.tau_b)
        + intercept * cdf4
    )
    # Malicious A sits on the claim until just before the premium timeout D.
    d_wait = q.D - b.eps
    malicious = (
        arr * math.exp(b.gbm.mu * (b.tau_b + b.t_eps + q.D)) * math.exp(-b.r_b * (d_wait + b.t_eps))
        + q.Q * math.exp(-b.r_b * (b.t_eps + d_wait + b.tau_b))
        - 2.0 * b.f_b
    )
    return b.theta_1 * honest + (1.0 - b.theta_1) * malicious


def _u_A_cont_t3(q: QuickSwapParams, price_t3):
    b = q.base
    x4 = claim_threshold_t4(q)
    arr = np.asarray(price_t3, dtype=float)
    cdf4 = cdf_from(x4, arr, b.gbm, b.tau_b)
    slope = (1.0 + b.sp_a) * math.exp((b.gbm.mu - b.r_a) * b.tau_b)
    intercept = 1.5 * q.Q * math.exp(-b.r_a * b.tau_a) - b.f_a - b.f_b
    above = arr * math.exp(b.gbm.mu * b.tau_b) - pe_below_from(x4, arr, b.gbm, b.tau_b)
    return math.exp(-b.r_a * b.tau_b) * (
        slope * above + intercept * (1.0 - cdf4) + _t4_cancel_A(q) * cdf4
    )


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
    PriceState(price_t3)  # rejects a price <= 0
    if action == "continue":
        return float(_u_A_cont_t3(q, price_t3)), float(_u_B_cont_t3(q, price_t3))
    if action == "cancel":
        return _t3_cancel_A(q), float(_t3_cancel_B(q, price_t3))
    if action == "stop":
        return _t3_stop_A(q), float(price_t3)
    raise ValueError(f"unknown action {action!r}")


def continuation_band_t3(q: QuickSwapParams, scan: Bracket | None = None) -> Bracket | None:
    """Price band over which B prefers continuing to canceling at t3.

    Cancel strictly dominates stop (the stop path forfeits B's premium), so
    the relevant comparison is continue vs cancel.
    """

    def g(x, rows):
        return _u_B_cont_t3(q, x) - _t3_cancel_B(q, x)

    return widest_band(g, scan or _scan_bracket(q.base.x_yb_t1, q.base.x_a, claim_threshold_t4(q)))


# ---------------------------------------------------------------------------
# Success rate of the premium swap.

def success_rate(q: QuickSwapParams) -> float:
    """Probability the premium swap completes; a single number per parameter
    set — no delay axes, by construction of the cancel provisions."""
    band = continuation_band_t3(q)
    if band is None:
        return 0.0
    b = q.base
    return float(_sr_integral(b, band, claim_threshold_t4(q), b.tau_a, b.tau_b))


# ---------------------------------------------------------------------------
# Participation comparison against the plain HTLC game.

@dataclass(frozen=True)
class ParticipationReport:
    """Per-x_a premium success rates and the ranges over which each protocol clears."""

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

    # A cell where participation fails contributes zero completed swaps.
    worst = np.nan_to_num(grid.raw, nan=0.0).min(axis=(1, 2))
    quick = np.array([success_rate(q.with_x_a(float(x))) for x in xa])

    r_zero = _nonzero_range(xa, grid.raw[:, 0, 0])
    r_worst = _nonzero_range(xa, worst)
    r_quick = _nonzero_range(xa, quick)
    return ParticipationReport(
        quick_sr=quick,
        htlc_range_zero_delay=r_zero,
        htlc_range_worst_delay=r_worst,
        quick_range=r_quick,
        quick_contains_htlc=_contains(r_quick, r_zero),
        quick_strictly_contains_worst=_contains(r_quick, r_worst, strict=True),
    )
