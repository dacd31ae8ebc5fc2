"""Backward-induction solver for the premium-backed quick swap game.

Both parties escrow a griefing premium alongside the principal: B locks Q,
A locks 1.5Q.  Every decision node offers an explicit cancel action that
releases a cancellation secret and unwinds the swap early, so a party who
finds the deal unfavorable pays at most the premium instead of griefing the
counterparty for the full locktime.  The game has the plain-HTLC shape,
so it is one more coefficient table (``_quick``) for htlcgame's node kernel:
A's claim threshold at the final node, a continuation band for B at the
middle node, and a delay-free success rate that depends only on x_a, from
htlcgame's shared ``_lock_bands`` and band quadrature ``_band_integrals``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .htlcgame import (SwapParams, _band_integrals, _final_payoffs, _Game, _lock_bands, _threshold, _xa_axis,
                       sr_surface)
# ``find_roots``, ``integrate`` and ``transition_pdf`` are not called here
# (the band and SR solvers are shared with htlcgame); the bindings stay
# for perfbench, which wraps them by name.
from .numerics import find_roots, integrate  # noqa: F401
from .pricemodel import transition_pdf  # noqa: F401

__all__ = [
    "QuickSwapParams",
    "payoff_t4",
    "claim_threshold_t4",
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
    c(v * t) = rho * v * t.  The premium Q = c(x_a * t_a) is derived.  Only
    the lock plan reads ``Delta``, and checks D + Delta there; ``D`` is taken
    where some Delta >= 0 fits: tau_a + tau_b < D < t_b, tau_a + 2*tau_b < t_b.
    """

    base: SwapParams
    D: float = 12.0
    Delta: float = 2.0
    rho: float = 0.001

    def __post_init__(self) -> None:
        b = self.base
        if not all(map(math.isfinite, (self.D, self.Delta, self.rho))):
            raise ValueError("D, Delta and rho must be finite")
        if self.rho < 0 or self.Delta < 0:
            raise ValueError("Delta and rho must be >= 0")
        if not (b.tau_a + b.tau_b < self.D < b.t_b and b.tau_a + 2.0 * b.tau_b < b.t_b):
            raise ValueError("premium locktime ill-formed: need tau_a + tau_b < D < t_b, tau_a + 2*tau_b < t_b")

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

    def with_x_a(self, x_a: float) -> "QuickSwapParams":
        return replace(self, base=self.base.with_x_a(x_a))


def _quick(q: QuickSwapParams, x_a) -> _Game:
    """Quick Swap's final (t4) and middle (t3) nodes; the premium
    Q = c(x_a * t_a) follows the x_a column."""
    b = q.base
    Q = q.rho * x_a * b.t_a
    a_premium = 1.5 * Q * math.exp(-b.r_a * b.tau_a)
    d_wait = q.D - b.eps
    return _Game(
        claim_a=((1.0 + b.sp_a) * math.exp((b.gbm.mu - b.r_a) * b.tau_b), a_premium - b.f_a - b.f_b),
        exit_a=x_a * math.exp(-b.r_a * (2.0 * b.t_eps + b.tau_b + b.tau_a)) + a_premium - 2.0 * b.f_a,
        claim_b=((1.0 + b.sp_b) * x_a * math.exp(-b.r_b * (b.tau_a + b.t_eps))
                 + Q * math.exp(-b.r_b * (b.t_eps + b.tau_b)) - b.f_a - b.f_b),
        exit_b=(math.exp((b.gbm.mu - b.r_b) * (b.t_eps + b.tau_b)),
                Q * math.exp(-b.r_b * (b.t_eps + 2.0 * b.tau_b)) - 2.0 * b.f_b),
        # A dishonest A sits on the claim until just before the premium timeout D.
        dishonest_b=(math.exp(b.gbm.mu * (b.tau_b + b.t_eps + q.D)) * math.exp(-b.r_b * (d_wait + b.t_eps)),
                     Q * math.exp(-b.r_b * (b.t_eps + d_wait + b.tau_b)) - 2.0 * b.f_b),
        # B cancels: his coins back at once, plus his premium after tau_b.
        stay_b=(1.0, Q * math.exp(-b.r_b * b.tau_b) - b.f_b),
        h_claim=b.tau_b,
        h_stop=b.tau_b,
    )


def payoff_t4(q: QuickSwapParams, price_t4: float, action: str) -> tuple[float, float]:
    """Final-node payoffs (A, B) when A continues or cancels."""
    return _final_payoffs(_quick(q, q.base.x_a), price_t4, action, "cancel")


def claim_threshold_t4(q: QuickSwapParams, x_a=None):
    """Price above which A claims at the final node; the premium cancels out.

    With ``x_a`` a 1-D array, an array of one threshold per x_a.
    """
    return _threshold(_quick(q, q.base.x_a if x_a is None else _xa_axis(q.base, x_a)))


def continuation_band_t3(q: QuickSwapParams, x_a=None) -> np.ndarray:
    """Price band over which B prefers continuing to canceling at t3.

    Cancel strictly dominates stop (the stop path forfeits B's premium), so
    the relevant comparison is continue vs cancel.  Solved by
    ``_lock_bands``: one ``(lo, hi)`` pair for ``q`` alone, or, with ``x_a``
    a 1-D array, a (len(x_a), 2) array of one band per x_a, each on its own
    scan.  NaN ends: B never continues.
    """
    bands = _lock_bands(lambda col: _quick(q, col), q.base, _xa_axis(q.base, x_a))
    return bands.reshape(np.shape(x_a) + (2,))


# ---------------------------------------------------------------------------
# Success rate of the premium swap.

def success_rate(q: QuickSwapParams, band=None, x_a=None):
    """Probability the premium swap completes; a single number per parameter
    set — no delay axes, by construction of the cancel provisions.

    The rate is theta_1 * theta_2 times the chance that B's price after
    tau_a lies in his band and A then claims, from htlcgame's band
    quadrature, the one the HTLC root node uses.  With ``x_a`` a 1-D array,
    an array of one rate per x_a.  The x_a run in blocks of as many as
    ``_QUAD_BUDGET`` holds rows of 65 nodes, and those of a block that have
    a band are one ``integrate`` call, so no array but the rates spans the
    axis and a rate's bits do not depend on its block.  ``band`` is B's t3
    band, or with ``x_a`` the table of one band per x_a, as
    ``continuation_band_t3`` returns it, when the caller has solved it
    already (None: solved here).
    """
    xs = _xa_axis(q.base, x_a)
    bands = continuation_band_t3(q, x_a=xs) if band is None else np.reshape(band, (len(xs), 2))
    b = q.base
    rates = np.zeros(len(xs))
    per = max(1, numerics._QUAD_BUDGET // numerics._PANEL_NODES)
    for first in range(0, len(xs), per):
        # The block's x_a that have a band; the others keep the rate 0.
        rows = first + np.flatnonzero(~np.isnan(bands[first:first + per, 0]))
        if rows.size:
            lo, hi = bands[rows, :1], bands[rows, 1:]
            _, claims = _band_integrals(_quick(q, xs[rows, None]), b, lo, hi - lo, np.array([b.tau_a]))
            rates[rows] = b.theta_1 * b.theta_2 * claims[:, 0]
    return float(rates[0]) if x_a is None else rates


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

    The premium protocol has no delay axes: its rates of every x_a are the
    rows of one ``success_rate`` table.  The plain HTLC rate is evaluated at
    zero delay and minimized over a coarse delay grid of ``sr_surface``.
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
    quick = success_rate(q, continuation_band_t3(q, x_a=xa), x_a=xa)

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
