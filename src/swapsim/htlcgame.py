"""Backward-induction solver for the sequential HTLC swap game.

The swap has three decision nodes: the initiator A claims or stops at the
final step (t3), the responder B locks or stops at the middle step (t2),
and A locks or stops at the start (t1).  Continuation values are expected,
time-discounted payoffs under the log-normal price transitions; the
thresholds (A's claim threshold, B's continuation price band, A's
participation constraint) fall out of comparing continue vs stop at each
node.  Every final-node payoff is linear in the final price, so the last two
nodes are a table of coefficients and horizons (``_Game``, built by
``_htlc`` here and by quickswapgame's ``_quick``), solved for both games by
one kernel: ``_threshold``, ``_value_b`` and ``_value_a``, each value one
erfc call.  A's root-node value and the success rate are one band
quadrature for both games (``_band_integrals``): A's middle-node value and
her claim probability, integrated over B's lock band under the price law.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import numerics
from .numerics import QuadratureSpec, find_roots, integrate
# Nothing here calls ``erfc``; perfbench/layers.py looks the binding up by name (KERNEL_SITES), so it
# stays, and its kernel counters read 0 until code keeps its own counters (ROADMAP item 9).
from .pricemodel import GbmParams, PriceState, erfc, law_terms, math_exp  # noqa: F401
from .pricemodel import transition_cdf, transition_pdf

__all__ = [
    "SwapParams",
    "SRGrid",
    "payoff_t3",
    "claim_threshold_t3",
    "continuation_band_t2",
    "widest_band",
    "success_rate",
    "sr_surface",
]

_ROOT_TOL = 1e-10
# Tolerances of the root node's band quadrature (``_band_integrals``).
_QUAD = QuadratureSpec()
# Most that |mu|, |r_a| or |r_b| times the longest horizon may be.  A factor
# of either game's table is the exponential of at most two rate-hour terms,
# and the node kernel multiplies two factors: at an eighth of the largest
# float's log a term, such a product stays below the square root of the
# largest float, which leaves room for the prices it scales.
_MAX_RATE_HOURS = math.log(sys.float_info.max) / 8


@dataclass(frozen=True)
class SwapParams:
    """Economic and timing parameters of one swap (all times in hours).

    ``x_yb_t1`` is the value of B's locked coins denominated in A's asset
    at the moment A decides whether to start.  ``uniform_delay_discounting``
    switches the middle-node stop terms from their printed horizon (tau_b)
    to tau_b + T, for sensitivity analysis only.
    """

    x_a: float
    x_yb_t1: float
    t_a: float
    t_b: float
    tau_a: float
    tau_b: float
    t_eps: float
    eps: float
    sp_a: float
    sp_b: float
    r_a: float
    r_b: float
    f_a: float
    f_b: float
    theta_1: float
    theta_2: float
    gbm: GbmParams
    uniform_delay_discounting: bool = False

    def __post_init__(self) -> None:
        bad = [k for k, v in vars(self).items() if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
        if not self.t_a > self.t_b > 0:
            raise ValueError("locktimes must satisfy t_a > t_b > 0")
        for name in ("tau_a", "tau_b", "t_eps", "eps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("theta_1", "theta_2"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("x_a", "f_a", "f_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.x_yb_t1 <= 0:  # a price: the engine values B's coins per unit of it
            raise ValueError("x_yb_t1 must be > 0")
        if self.sp_a <= -1.0:
            raise ValueError("sp_a must exceed -1")
        if self.t_a < self.t_b + self.eps + self.t_eps + self.tau_a:
            raise ValueError("delay windows ill-formed: need t_a >= t_b + eps + t_eps + tau_a")
        # No horizon of either game is longer than t_a + t_b + tau_a + tau_b.
        hours = self.t_a + self.t_b + self.tau_a + self.tau_b
        for name, rate in (("mu", self.gbm.mu), ("r_a", self.r_a), ("r_b", self.r_b)):
            if not abs(rate) * hours <= _MAX_RATE_HOURS:
                raise ValueError(f"{name} must be within +-{_MAX_RATE_HOURS / hours:.6g} per hour over "
                                 f"t_a + t_b + tau_a + tau_b = {hours:g}h, got {rate:g}")
        # The log-price variance of every horizon must be a float.
        if not math.isfinite(self.gbm.sigma * self.gbm.sigma * hours):
            raise ValueError(f"sigma must be below {math.sqrt(sys.float_info.max / hours):.6g} per "
                             f"sqrt-hour over t_a + t_b + tau_a + tau_b = {hours:g}h, "
                             f"got {self.gbm.sigma:g}")

    @property
    def claim_delay_window(self) -> float:
        """Upper bound of A's claim delay T."""
        return self.t_b - self.tau_b - self.eps

    @property
    def lock_delay_window(self) -> float:
        """Upper bound of B's lock delay T'."""
        return self.t_a - (self.t_b - self.eps + self.t_eps) - self.tau_a

    def with_x_a(self, x_a: float) -> "SwapParams":
        return replace(self, x_a=x_a)


def _xa_axis(p: SwapParams, x_a) -> np.ndarray:
    """``x_a`` (``p.x_a`` when None) as a 1-D float array.

    Each value is checked as ``with_x_a`` checks it, with the same error, so
    that the x_a axis needs no ``SwapParams`` per value.
    """
    xs = np.atleast_1d(np.asarray(p.x_a if x_a is None else x_a, dtype=float))
    bad = np.flatnonzero(~np.isfinite(xs) | (xs < 0.0))
    if bad.size:
        raise ValueError("x_a must be >= 0" if np.isfinite(xs[bad[0]]) else "x_a must be finite")
    return xs


@dataclass(frozen=True)
class SRGrid:
    """Success-rate surface over (x_a, T, T') with NA marked by NaN."""

    raw: np.ndarray          # Eq-level value in [0, theta_1 * theta_2]; NaN where NA
    conditional: np.ndarray  # raw / (theta_1 * theta_2); NaN where NA
    na_mask: np.ndarray      # True exactly where the participation constraint fails


class _Game(NamedTuple):
    """One game's last two nodes as lines in a price.

    A pair is the line ``slope * price + intercept``; the other entries do
    not depend on the price.  Entries may be (G, 1, 1) x_a columns and the
    horizons (R, 1) delay columns: they broadcast against the prices.
    """

    claim_a: tuple      # A's claim payoff in the final price
    exit_a: float       # A's exit payoff: stop (HTLC) or cancel (Quick Swap)
    claim_b: float      # B's payoff when A claims
    exit_b: tuple       # B's payoff in the final price when A exits
    dishonest_b: tuple  # B's value in the middle price when A never claims
    stay_b: tuple       # B's value in the middle price when he does not lock
    h_claim: float      # hours from the middle node to A's claim
    h_stop: float       # hours from the middle node to A's exit


def _htlc(p: SwapParams, T, x_a) -> _Game:
    """The HTLC's final (t3) and middle (t2) nodes at claim delay ``T``."""
    h_claim = p.tau_b + T
    refund = math.exp((p.gbm.mu - p.r_b) * p.t_b)  # B's refund arrives after his full locktime
    early = math.exp(-p.r_b * p.tau_b)
    return _Game(
        claim_a=((1.0 + p.sp_a) * math.exp((p.gbm.mu - p.r_a) * p.tau_b), -p.f_b),
        exit_a=x_a * math.exp(-p.r_a * p.t_a) - p.f_a,
        claim_b=(1.0 + p.sp_b) * x_a * math.exp(-p.r_b * (p.tau_a + p.t_eps)) - p.f_a,
        exit_b=(refund, -p.f_b),
        # A dishonest A never claims; B is stuck refunding after t_b.
        dishonest_b=(early * math.exp(p.gbm.mu * p.tau_b) * refund, -early * p.f_b),
        stay_b=(1.0, 0.0),
        h_claim=h_claim,
        h_stop=h_claim if p.uniform_delay_discounting else p.tau_b,
    )


def _line(line: tuple, price):
    slope, intercept = line
    return slope * price + intercept


def _threshold(g: _Game):
    """Price above which A claims: where her claim line meets her exit value."""
    slope, intercept = g.claim_a
    return (g.exit_a - intercept) / slope


def _value_b(g: _Game, p: SwapParams):
    """B's value at the middle node once he has locked, as a function of
    the middle price.

    An honest A (weight theta_1) claims above the threshold after
    ``h_claim`` hours and exits below it after ``h_stop``; B's exit payoff
    is linear in the final price, so its expectation below the threshold is
    the log-normal partial expectation in closed form.  The threshold and
    B's two discount factors do not depend on the price and are computed
    here, once per table; each call of the returned function is one
    ``law_terms`` call (the two CDFs and the partial expectation, as in
    ``_value_a``) and the line arithmetic.
    """
    threshold = _threshold(g)
    slope, intercept = g.exit_b
    claim_discount = math_exp(-p.r_b * g.h_claim)
    stop_discount = math_exp(-p.r_b * g.h_stop)

    def value(price):
        (cdf_claim, cdf_stop), (pe_stop,) = law_terms(threshold, price, p.gbm, cdf=(g.h_claim, g.h_stop),
                                                     pe=(g.h_stop,))
        claim = (1.0 - cdf_claim) * g.claim_b * claim_discount
        exit_ = stop_discount * (slope * pe_stop + intercept * cdf_stop)
        return p.theta_1 * (claim + exit_) + (1.0 - p.theta_1) * _line(g.dishonest_b, price)

    return value


def _value_a(g: _Game, p: SwapParams, price):
    """A's value at the middle node once B has locked, and the probability
    that she claims: her claim line above the threshold after ``h_claim``
    hours, her exit value below it after ``h_stop``."""
    (cdf_claim, cdf_stop), (pe_claim,) = law_terms(_threshold(g), price, p.gbm, cdf=(g.h_claim, g.h_stop),
                                                  pe=(g.h_claim,))
    slope, intercept = g.claim_a
    above = price * math_exp(p.gbm.mu * g.h_claim) - pe_claim
    claims = 1.0 - cdf_claim
    claim = math_exp(-p.r_a * g.h_claim) * (slope * above + intercept * claims)
    return claim + math_exp(-p.r_a * g.h_stop) * cdf_stop * g.exit_a, claims


def _final_payoffs(g: _Game, price: float, action: str, exit_action: str) -> tuple[float, float]:
    """Final-node payoffs (A, B) of ``continue`` (A claims) or of A's exit."""
    PriceState(price)  # rejects a price <= 0
    if action == "continue":
        return _line(g.claim_a, price), g.claim_b
    if action == exit_action:
        return g.exit_a, _line(g.exit_b, price)
    raise ValueError(f"unknown action {action!r}")


def payoff_t3(p: SwapParams, price_t3: float, action: str) -> tuple[float, float]:
    """Final-node payoffs (A, B) for ``continue`` (A claims) or ``stop``."""
    return _final_payoffs(_htlc(p, 0.0, p.x_a), price_t3, action, "stop")


def claim_threshold_t3(p: SwapParams) -> float:
    """Price above which A prefers claiming at the final node (closed form)."""
    return _threshold(_htlc(p, 0.0, p.x_a))


def _check_delay(name: str, delay, window: float) -> None:
    d = np.asarray(delay)
    if not np.all((0.0 <= d) & (d <= window + 1e-12)):
        raise ValueError(f"{name}={delay} outside [0, {window}]")


def _scan_brackets(*prices) -> np.ndarray:
    """Default band scans, a ``(lo, hi)`` row per x_a: three decades below to
    12x above the largest of ``prices``, which broadcast to one value per x_a."""
    ref = reduce(np.maximum, prices)
    return np.stack([ref * 1e-3, ref * 12.0], axis=-1)


def _lock_bands(game, p: SwapParams, xs: np.ndarray, rows: int = 1) -> np.ndarray:
    """B's bands, ``rows`` per x_a of ``xs``: where ``_value_b`` beats his
    ``stay_b`` line.  ``game(x_a)`` builds the table of an x_a column, once
    per lockstep of ``widest_band``; each x_a has its own scan."""
    def g(groups):
        table = game(xs[groups, None, None])
        value_b = _value_b(table, p)
        return lambda x: value_b(x) - _line(table.stay_b, x)

    return widest_band(g, _scan_brackets(p.x_yb_t1, xs, _threshold(game(xs))), rows)


def widest_band(g, scans: np.ndarray, rows: int = 1) -> np.ndarray:
    """Widest interval of its scan on which ``g > 0``, for each row of ``g``.

    Rows come in groups of ``rows`` that share one scan, a row of the
    (groups, 2) ``(lo, hi)`` table ``scans``.  ``g(groups)``, for an index
    array ``groups``, returns the function that evaluates B's
    continue-minus-exit value of those groups at prices ``x``, which are
    (len(groups), 1, n) points per group or (len(groups), rows, n) points
    per row, as (len(groups), rows, n) values.  ``g`` is called once per
    lockstep, so whatever does not depend on the prices (the game table) is
    built once for all of that lockstep's root-function calls.  Each row is
    one ``find_roots`` row, and up to ``_CALL_BUDGET / 8`` rows (4,096)
    bisect in one lockstep, so that its midpoint call stays within the
    budget on rows of fewer than 8 roots, and so do its refinement calls,
    which take as many bisection levels as fit ``_CALL_BUDGET / 8`` values
    (one at 4,096 rows; 4 on the default surface's 441 rows, 6 on
    quickswap-sr's); a larger table is solved in blocks of whole groups
    (one lockstep over the 100,000 rows of a 20,000-x_a quickswap-sr
    doubled the traced peak).  When more than two
    crossings appear, the widest winning interval is kept.  A band that ends
    at its scan's edge is solved again on a scan ten times wider at each
    end, until its scan's ``hi > 1e8 * lo``; a band still at the edge of
    such a scan keeps that edge as its end.  The bands come back as a (rows
    per group x groups, 2) array of ``(lo, hi)`` pairs, one per row, group
    by group; a row with no crossing has no band (NaN ends).
    """
    if not (len(scans) and rows):
        return np.empty((0, 2))
    per = max(1, numerics._CALL_BUDGET // 8 // rows)
    if len(scans) > per:
        return np.concatenate([widest_band(lambda sub, first=first: g(sub + first),
                                           scans[first:first + per], rows)
                               for first in range(0, len(scans), per)])
    groups = np.arange(len(scans))
    lo, hi = np.repeat(scans, rows, axis=0).T
    f = g(groups)
    # The default scan's hi is 12x its largest price: the tolerance shrinks
    # with small prices, so their bands do not drift, and never grows.
    flat, counts = find_roots(f, scans, tol=_ROOT_TOL * np.minimum(1.0, hi / 12.0), group=rows)
    # Each row's interval ends: its scan's lo, its roots, then hi repeated.
    edges = np.repeat(hi[:, None], counts.max() + 2, axis=1)
    edges[:, 0] = lo
    row_of = np.repeat(np.arange(len(counts)), counts)
    edges[row_of, 1 + np.arange(len(flat)) - np.searchsorted(row_of, row_of)] = flat
    mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
    wins = f(mids.reshape(len(scans), rows, -1)).reshape(mids.shape) > 0.0
    # A row's winning intervals, of which the first widest is its band.
    ok = wins & (np.arange(mids.shape[1]) <= counts[:, None]) & (counts[:, None] > 0)
    best = np.argmax(np.where(ok, edges[:, 1:] - edges[:, :-1], -np.inf), axis=1)
    won = np.flatnonzero(ok.any(axis=1))
    band_lo, band_hi = edges[won, best[won]], edges[won, best[won] + 1]
    bands = np.full((len(counts), 2), np.nan)
    bands[won, 0], bands[won, 1] = band_lo, band_hi
    # Open-ended winning region at a scan edge means the scan missed a
    # crossing; widen those rows rather than report a fake endpoint.  Their
    # groups are solved again on the wider scan, and only the edge rows
    # take its bands.  The cap is a ratio, so it trips at every price scale:
    # the bisection tolerance grows with ``hi``, and a scan widened far past
    # it would let the tolerance exceed the band.
    edge = won[((band_lo == lo[won]) | (band_hi == hi[won])) & (hi[won] <= 1e8 * lo[won])]
    if edge.size:
        wide = np.unique(edge // rows)
        again = widest_band(lambda sub: g(wide[sub]), scans[wide] * (0.1, 10.0), rows)
        bands[edge] = again[np.searchsorted(wide, edge // rows) * rows + edge % rows]
    return bands


def continuation_band_t2(p: SwapParams, T, x_a=None) -> np.ndarray:
    """Price band over which B prefers locking at the middle node.

    Roots of B's lock-minus-stop value, solved by ``_lock_bands`` for every
    (x_a, T) pair at once.  ``T`` is a claim delay or a 1-D array of them,
    and ``x_a`` None (``p.x_a`` alone) or a 1-D array.  The bands come back
    as an array of shape ``np.shape(x_a) + np.shape(T) + (2,)``: each band
    is its ``(lo, hi)`` pair, NaN where B never locks.  Each x_a has its own
    scan bracket.
    """
    _check_delay("claim delay T", T, p.claim_delay_window)
    ts = np.atleast_1d(np.asarray(T, dtype=float))
    xs = _xa_axis(p, x_a)
    t_col = ts[:, None]

    # One group per x_a, one row per delay: the T-free terms of B's value
    # are evaluated once per x_a on its (G, 1, n) grid.
    bands = _lock_bands(lambda col: _htlc(p, t_col, col), p, xs, len(ts))
    return bands.reshape(np.shape(x_a) + np.shape(T) + (2,))


def success_rate(p: SwapParams, T: float, Tp: float, band=None) -> float | None:
    """Probability the swap completes once started; None when A never starts.

    One cell of ``sr_surface``, solved as a one-cell table on the same path.
    ``band`` is B's middle-node band at ``T``, a ``(lo, hi)`` pair, when the
    caller has solved it already (None: solved here).
    """
    if band is None:
        band = continuation_band_t2(p, T)
    raw = sr_surface(p, [p.x_a], [T], [Tp], np.reshape(band, (1, 1, 2))).raw[0, 0, 0]
    return None if math.isnan(raw) else float(raw)


def sr_surface(
    p: SwapParams,
    xa_grid,
    T_grid,
    Tp_grid,
    bands=None,
) -> SRGrid:
    """Evaluate the success rate over the full (x_a, T, T') grid.

    B's continuation band is independent of T', so the bands of every
    (x_a, T) pair are solved in one ``continuation_band_t2`` call; ``bands``
    holds them when the caller has solved them already, the (x_a, T, 2)
    array that call returns.  The root node runs in blocks of whole x_a
    groups, one ``payoff_t1_with_band`` call each, of at most
    ``_QUAD_BUDGET`` integrand values per quantity; each block gives its
    cells' NA flags and success rates from one band quadrature, and a
    cell's bits do not depend on the cells it is solved with.
    """
    ts = np.asarray(T_grid, dtype=float)
    tps = np.asarray(Tp_grid, dtype=float)
    xa = _xa_axis(p, xa_grid)
    bands = continuation_band_t2(p, ts, x_a=xa) if bands is None else _band_table(bands, (len(xa), len(ts)))
    locks = ~np.isnan(bands[..., 0])
    # A block holds ``per`` x_a that have a band; one without rides along
    # with its predecessors, as it adds no integrand rows.
    per = max(1, numerics._QUAD_BUDGET // max(1, len(ts) * len(tps) * numerics._PANEL_NODES))
    block = np.maximum(np.cumsum(locks.any(axis=1)) - 1, 0) // per
    ends = np.append(np.flatnonzero(np.diff(block)) + 1, len(xa)).tolist()
    na = np.empty((len(xa), len(ts), len(tps)), dtype=bool)
    raw = np.empty(na.shape)
    for first, last in zip([0] + ends[:-1], ends):
        u_cont, u_stop, raw[first:last] = payoff_t1_with_band(p, ts, tps, bands[first:last], xa[first:last])
        na[first:last] = u_cont < u_stop
    raw[na] = np.nan
    norm = p.theta_1 * p.theta_2
    conditional = raw / norm if norm > 0 else np.where(np.isnan(raw), np.nan, 0.0)
    return SRGrid(raw=raw, conditional=conditional, na_mask=na)


def _band_table(bands, shape: tuple) -> np.ndarray:
    """``bands`` as a float array of ``shape`` + (2,), or a ValueError."""
    table = np.asarray(bands, dtype=float)
    if table.shape != shape + (2,):
        raise ValueError(f"band table has shape {table.shape}, expected {shape + (2,)}")
    return table


def payoff_t1_with_band(p: SwapParams, T, Tp, bands, x_a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Root-node values (A continue, A stop) and raw success rates, with
    precomputed middle-node bands.

    ``T`` is a 1-D array of K claim delays, ``Tp`` one of lock delays and
    ``x_a`` one of x_a values; ``bands`` is their (len(x_a), K, 2) table, as
    ``continuation_band_t2`` returns it (NaN where B never locks).  The three
    arrays are (len(x_a), K, len(Tp)).  A's stop value is x_a, returned as a
    read-only broadcast.  The raw success rate is theta_1 * theta_2 times
    the chance that B's lock price lies in his band and A then claims, 0
    where B never locks; whether A starts is the caller's to judge.

    Both integrals of every (x_a, T, T') cell come from one
    ``_band_integrals`` call, whose ``integrate`` call ``sr_surface`` keeps
    within ``_QUAD_BUDGET`` by passing blocks of x_a.  x_a is a (G, 1, 1)
    column, so A's claim threshold and exit value are evaluated once per
    x_a.  An x_a without a band adds no rows; the band-less delays of the
    others ride along as zero-width rows, whose integrands are 0.
    """
    _check_delay("claim delay T", T, p.claim_delay_window)
    _check_delay("lock delay T'", Tp, p.lock_delay_window)
    ts = np.atleast_1d(np.asarray(T, dtype=float))
    tps = np.atleast_1d(np.asarray(Tp, dtype=float))
    xs = _xa_axis(p, x_a)
    shape = (len(xs), len(ts), len(tps))
    table = _band_table(bands, shape[:2])
    col = xs[:, None, None]
    # Where B never locks, A has her principal back at face value.
    exit_value = (col - p.f_a) * math.exp(-p.r_a * p.tau_a)
    u_cont = np.array(np.broadcast_to(exit_value, shape))
    u_stop = np.broadcast_to(col, shape)
    rates = np.zeros(shape)
    locks = ~np.isnan(table[..., 0])
    groups = np.flatnonzero(locks.any(axis=1))
    if groups.size:
        # A band-less row is the zero-width band at a valid price.
        ends = np.where(locks[groups, :, None], table[groups], p.x_yb_t1)
        lo, hi = ends[..., :1], ends[..., 1:]
        h = p.tau_a + tps
        cont_int, claims = _band_integrals(_htlc(p, ts[:, None], xs[groups, None, None]), p, lo, hi - lo, h)
        # Complement of the band under the same tau_a + T' law as the
        # integral, so the two branch weights sum to one.
        cdf_hi, cdf_lo = transition_cdf(np.stack([hi, lo]), PriceState(p.x_yb_t1), p.gbm, h)
        mass_outside = 1.0 - cdf_hi + cdf_lo
        exit_g = exit_value[groups]
        value = p.theta_2 * (
            cont_int * np.exp(-p.r_a * h) + mass_outside * exit_g
        ) + (1.0 - p.theta_2) * exit_g
        u_cont[groups] = np.where(locks[groups, :, None], value, u_cont[groups])
        rates[groups] = p.theta_1 * p.theta_2 * claims
    return u_cont, u_stop, rates


def _band_integrals(game: _Game, p: SwapParams, lo, width, h_lock) -> tuple[np.ndarray, np.ndarray]:
    """A's middle-node value and her claim probability, each integrated over
    B's lock band under the price law ``h_lock`` hours after the root node.

    ``lo`` and ``width`` hold each band row's ``(lo, hi - lo)`` with a
    trailing axis of 1, and broadcast against ``game``'s entries; ``h_lock``
    is a 1-D array of L lock horizons.  Each band is mapped onto u in
    [0, 1] (price = lo + u * width, Jacobian width), so every (band row,
    lock horizon) pair is two rows of one ``integrate`` call with row-wise
    refinement, and a row's bits do not depend on the rows solved with it.
    The density is multiplied by the width first: that product does not
    depend on the price scale, so the integrands grow with the price and
    not with its square, which over- or underflows at extreme scales.
    A's values do not depend on the lock horizon, so they are evaluated once
    per band row and node.  Returns two arrays of shape
    ``lo.shape[:-1] + (L,)``; a zero-width row gives 0.
    """
    st1 = PriceState(p.x_yb_t1)
    jacobian = width[..., None, :]

    def integrand(u):
        price = lo + u * width
        value, claims = _value_a(game, p, price)
        dens = transition_pdf(price[..., None, :], st1, p.gbm, h_lock[:, None])
        rows = np.empty((2,) + dens.shape)  # the value rows, then the claim rows
        np.multiply(dens, jacobian, out=rows[1])
        np.multiply(rows[1], value[..., None, :], out=rows[0])
        rows[1] *= claims[..., None, :]
        return rows.reshape(-1, len(u))

    value_int, claim_int = integrate(integrand, (0.0, 1.0), _QUAD).reshape(2, *lo.shape[:-1], len(h_lock))
    return value_int, claim_int
