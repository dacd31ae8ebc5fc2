"""Backward-induction solver for the sequential HTLC swap game.

The swap has three decision nodes: the initiator A claims or stops at the
final step (t3), the responder B locks or stops at the middle step (t2),
and A locks or stops at the start (t1).  Continuation values are expected,
time-discounted payoffs under the log-normal price transitions; the
thresholds (A's claim threshold, B's continuation price band, A's
participation constraint) fall out of comparing continue vs stop at each
node.  The success-rate surface integrates the resulting policy over the
price law.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from . import numerics
from .numerics import Bracket, QuadratureSpec, find_roots, integrate
# ``erfc`` is no longer called here (the price-law kernels call it inside
# pricemodel); the binding stays for perfbench's per-layer kernel counters.
from .pricemodel import GbmParams, PriceState, cdf_from, erfc, math_exp, pe_below_from  # noqa: F401
from .pricemodel import transition_cdf, transition_pdf

__all__ = [
    "SwapParams",
    "SRGrid",
    "payoff_t3",
    "claim_threshold_t3",
    "payoff_t2",
    "continuation_band_t2",
    "widest_band",
    "success_rate",
    "sr_surface",
]

_ROOT_SCAN_POINTS = 256
_ROOT_TOL = 1e-10
# Default of the ``band`` parameters: solve B's band in the callee.  None
# already means that B never locks.
_SOLVE = object()


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
    # Value A assigns, at the root node, to the branch where B never locks:
    # "principal" treats her coins as recovered at face value (the only
    # reading under which the baseline swap ever starts), "discounted"
    # applies the full t_a lockup discount to that branch as well.
    t1_stop_value: str = "principal"
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)

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
        for name in ("x_a", "x_yb_t1", "f_a", "f_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.sp_a <= -1.0:
            raise ValueError("sp_a must exceed -1")
        if self.t_a < self.t_b + self.eps + self.t_eps + self.tau_a:
            raise ValueError("delay windows ill-formed: need t_a >= t_b + eps + t_eps + tau_a")
        if self.t1_stop_value not in ("principal", "discounted"):
            raise ValueError("t1_stop_value must be 'principal' or 'discounted'")

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


def _xa_column(p: SwapParams, xa) -> SwapParams:
    """``p`` with ``x_a`` set to the (G, 1, 1) column of the values ``xa``.

    The kernels broadcast it against (G, R, n) prices, so G groups of rows
    that differ in x_a evaluate in one call with the arithmetic of G scalar
    calls.  The values are not validated here: callers pass x_a values that
    ``with_x_a`` has accepted.
    """
    col = copy.copy(p)
    object.__setattr__(col, "x_a", np.asarray(xa, dtype=float).reshape(-1, 1, 1))
    return col


@dataclass(frozen=True)
class SRGrid:
    """Success-rate surface over (x_a, T, T') with NA marked by NaN."""

    raw: np.ndarray          # Eq-level value in [0, theta_1 * theta_2]; NaN where NA
    conditional: np.ndarray  # raw / (theta_1 * theta_2); NaN where NA
    na_mask: np.ndarray      # True exactly where the participation constraint fails


def _t3_stop_A(p: SwapParams) -> float:
    return p.x_a * math.exp(-p.r_a * p.t_a) - p.f_a


def _t3_stop_B(p: SwapParams, price_t3) -> float:
    # B's refund arrives after his full locktime; price drifts meanwhile.
    return price_t3 * math.exp((p.gbm.mu - p.r_b) * p.t_b) - p.f_b


def payoff_t3(p: SwapParams, price_t3: float, action: str) -> tuple[float, float]:
    """Final-node payoffs (A, B) for ``continue`` (A claims) or ``stop``."""
    PriceState(price_t3)  # rejects a price <= 0
    if action == "continue":
        u_a = (1.0 + p.sp_a) * price_t3 * math.exp(p.gbm.mu * p.tau_b) * math.exp(-p.r_a * p.tau_b) - p.f_b
        u_b = (1.0 + p.sp_b) * p.x_a * math.exp(-p.r_b * (p.tau_a + p.t_eps)) - p.f_a
        return u_a, u_b
    if action == "stop":
        return _t3_stop_A(p), _t3_stop_B(p, price_t3)
    raise ValueError(f"unknown action {action!r}")


def claim_threshold_t3(p: SwapParams) -> float:
    """Price above which A prefers claiming at the final node (closed form)."""
    num = p.x_a * math.exp(-p.r_a * (p.t_a - p.tau_b)) - (p.f_a - p.f_b) * math.exp(p.r_a * p.tau_b)
    return num * math.exp(-p.gbm.mu * p.tau_b) / (1.0 + p.sp_a)


def _check_delay(name: str, delay, window: float) -> None:
    d = np.asarray(delay)
    if not np.all((0.0 <= d) & (d <= window + 1e-12)):
        raise ValueError(f"{name}={delay} outside [0, {window}]")


def _u_B_cont_t2(p: SwapParams, price_t2, T):
    """B's expected continuation value at the middle node.

    Vectorized over prices and claim delays: an (R, 1) column of delays
    against (n,) prices gives (R, n) values, and against (G, 1, n) or
    (G, R, n) prices, with x_a a (G, 1, 1) column, (G, R, n) values.  Terms
    that do not depend on T keep the shape of the prices, so on a (G, 1, n)
    grid they are evaluated once per x_a.
    """
    x_star = claim_threshold_t3(p)
    h_cont = p.tau_b + T
    h_stop = h_cont if p.uniform_delay_discounting else p.tau_b
    arr = np.asarray(price_t2, dtype=float)
    u_b_cont_t3 = (1.0 + p.sp_b) * p.x_a * math.exp(-p.r_b * (p.tau_a + p.t_eps)) - p.f_a
    slope = math.exp((p.gbm.mu - p.r_b) * p.t_b)  # stop payoff is linear in the t3 price

    cont = (1.0 - cdf_from(x_star, arr, p.gbm, h_cont)) * u_b_cont_t3 * math_exp(-p.r_b * h_cont)
    stop_int = math_exp(-p.r_b * h_stop) * (
        slope * pe_below_from(x_star, arr, p.gbm, h_stop) - p.f_b * cdf_from(x_star, arr, p.gbm, h_stop)
    )
    # Malicious A never claims; B is stuck refunding after t_b.
    outside = math.exp(-p.r_b * p.tau_b) * (arr * math.exp(p.gbm.mu * p.tau_b) * slope - p.f_b)
    return p.theta_1 * (cont + stop_int) + (1.0 - p.theta_1) * outside


def _u_A_cont_t2(p: SwapParams, price_t2, T):
    """A's expected continuation value at the middle node.

    Vectorized like ``_u_B_cont_t2``: a (K, 1) column of delays against
    (K, n) prices gives (K, n) values.
    """
    x_star = claim_threshold_t3(p)
    h_cont = p.tau_b + T
    h_stop = h_cont if p.uniform_delay_discounting else p.tau_b
    arr = np.asarray(price_t2, dtype=float)
    a = (1.0 + p.sp_a) * math.exp((p.gbm.mu - p.r_a) * p.tau_b)  # claim payoff slope in the t3 price
    stop_val = _t3_stop_A(p)

    above = arr * math_exp(p.gbm.mu * h_cont) - pe_below_from(x_star, arr, p.gbm, h_cont)
    tail = 1.0 - cdf_from(x_star, arr, p.gbm, h_cont)
    claim_part = math_exp(-p.r_a * h_cont) * (a * above - p.f_b * tail)
    stop_part = math_exp(-p.r_a * h_stop) * cdf_from(x_star, arr, p.gbm, h_stop) * stop_val
    return claim_part + stop_part


def payoff_t2(p: SwapParams, price_t2: float, T: float) -> tuple[float, float, float, float]:
    """Middle-node values: (A continue, B continue, A stop, B stop)."""
    PriceState(price_t2)  # rejects a price <= 0
    _check_delay("claim delay T", T, p.claim_delay_window)
    u_a_cont = _u_A_cont_t2(p, price_t2, T)
    u_b_cont = _u_B_cont_t2(p, price_t2, T)
    u_a_stop = p.x_a * math.exp(-p.r_a * p.t_a) - p.f_a
    u_b_stop = price_t2
    return float(u_a_cont), float(u_b_cont), u_a_stop, u_b_stop


def _scan_bracket(*prices: float) -> Bracket:
    """Default band scan: three decades below to 12x above the largest price."""
    ref = max(prices)
    return Bracket(ref * 1e-3, ref * 12.0)


def widest_band(g, scans: list[Bracket], rows: int = 1) -> list[Bracket | None]:
    """Widest interval of its scan on which ``g > 0``, for each row of ``g``.

    Rows come in groups of ``rows`` that share one scan: ``scans`` holds one
    Bracket per group, and ``g(x, groups)`` evaluates B's continue-minus-exit
    value of the groups ``groups`` (an index array) at prices ``x``, which
    are (len(groups), 1, n) points per group or (len(groups), rows, n)
    points per row, as (len(groups), rows, n) values.  Each row is one
    ``find_roots`` row, and up to ``_CALL_BUDGET / 8`` rows (4,096) bisect
    in one lockstep, so that its bisection steps and midpoint call stay
    within the budget on rows of fewer than 8 roots; a larger table is
    solved in blocks of whole groups (one lockstep over the 100,000 rows of
    a 20,000-x_a quickswap-sr doubled the traced peak).  When more than two
    crossings appear, the widest winning interval is kept; a row with no
    crossing has no band (None).  The bands come back one per row, group by
    group.
    """
    per = max(1, numerics._CALL_BUDGET // 8 // rows)
    if len(scans) > per:
        return [band for first in range(0, len(scans), per)
                for band in widest_band(lambda x, sub, first=first: g(x, sub + first),
                                        scans[first:first + per], rows)]
    if not scans:
        return []
    groups = np.arange(len(scans))
    lo = np.repeat([s.lo for s in scans], rows)
    hi = np.repeat([s.hi for s in scans], rows)
    # The default scan's hi is 12x its largest price: the tolerance shrinks
    # with small prices, so their bands do not drift, and never grows.
    roots = find_roots(lambda x: g(x, groups), [s for s in scans for _ in range(rows)],
                       grid_points=_ROOT_SCAN_POINTS, tol=_ROOT_TOL * np.minimum(1.0, hi / 12.0), group=rows)
    # Each row's interval ends: its scan's lo, its roots, then hi repeated.
    counts = np.fromiter(map(len, roots), int, len(roots))
    flat = np.fromiter(chain.from_iterable(roots), float, counts.sum())
    del roots
    edges = np.repeat(hi[:, None], counts.max() + 2, axis=1)
    edges[:, 0] = lo
    row_of = np.repeat(np.arange(len(counts)), counts)
    edges[row_of, 1 + np.arange(len(flat)) - np.searchsorted(row_of, row_of)] = flat
    mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
    wins = g(mids.reshape(len(scans), rows, -1), groups).reshape(mids.shape) > 0.0
    # A row's winning intervals, of which the first widest is its band.
    ok = wins & (np.arange(mids.shape[1]) <= counts[:, None]) & (counts[:, None] > 0)
    best = np.argmax(np.where(ok, edges[:, 1:] - edges[:, :-1], -np.inf), axis=1)
    won = np.flatnonzero(ok.any(axis=1))
    band_lo, band_hi = edges[won, best[won]], edges[won, best[won] + 1]
    bands: list[Bracket | None] = [None] * len(counts)
    for k, b_lo, b_hi in zip(won.tolist(), band_lo.tolist(), band_hi.tolist()):
        bands[k] = Bracket(b_lo, b_hi)
    # Open-ended winning region at a scan edge means the scan missed a
    # crossing; widen those rows rather than report a fake endpoint.  Their
    # groups are solved again on the wider scan, and only the edge rows
    # take its bands.
    edge = won[((band_lo == lo[won]) | (band_hi == hi[won])) & (hi[won] / np.maximum(lo[won], 1e-12) <= 1e8)]
    if edge.size:
        wide = np.unique(edge // rows)
        again = widest_band(lambda x, sub: g(x, wide[sub]),
                            [Bracket(scans[j].lo * 0.1, scans[j].hi * 10.0) for j in wide.tolist()], rows)
        for k in edge.tolist():
            bands[k] = again[np.searchsorted(wide, k // rows) * rows + k % rows]
    return bands


def _default_scan(p: SwapParams) -> Bracket:
    return _scan_bracket(p.x_yb_t1, p.x_a, claim_threshold_t3(p))


def continuation_band_t2(p: SwapParams, T, scan: Bracket | None = None, x_a=None) -> Bracket | None | list:
    """Price band over which B prefers locking at the middle node.

    Roots of u_B(continue) - u_B(stop), solved by ``widest_band`` for every
    (x_a, T) pair at once.  ``T`` is a claim delay or a 1-D array of them,
    and ``x_a`` None (``p.x_a`` alone) or a 1-D array.  The bands (None
    where B never locks) come back nested like ``x_a`` by ``T``: one band
    for a scalar ``T`` without ``x_a``, one list per x_a when both are
    arrays.  Each x_a has its own scan bracket, which ``scan`` overrides
    for every row.
    """
    _check_delay("claim delay T", T, p.claim_delay_window)
    ts = np.atleast_1d(np.asarray(T, dtype=float))
    xs = np.atleast_1d(np.asarray(p.x_a if x_a is None else x_a, dtype=float))
    t_col = ts[:, None]

    # One group per x_a, one row per delay: the T-free terms of B's value
    # are evaluated once per x_a on its (G, 1, n) grid.
    def g(x, groups):
        return _u_B_cont_t2(_xa_column(p, xs[groups]), x, t_col) - x

    # The lazy map validates each x_a without holding one SwapParams per x_a.
    scans = [scan or _default_scan(q) for q in map(p.with_x_a, xs.tolist())]
    bands = widest_band(g, scans, len(ts))
    return np.array(bands, dtype=object).reshape(np.shape(x_a) + np.shape(T)).tolist()


def success_rate(p: SwapParams, T: float, Tp: float, band=_SOLVE) -> float | None:
    """Probability the swap completes once started; None when A never starts.

    One cell of ``sr_surface``, solved as a one-cell table on the same path.
    ``band`` is B's middle-node band at ``T`` when the caller has solved it
    already.
    """
    if band is _SOLVE:
        band = continuation_band_t2(p, T)
    raw = sr_surface(p, [p.x_a], [T], [Tp], [[band]]).raw[0, 0, 0]
    return None if math.isnan(raw) else float(raw)


def sr_surface(
    p: SwapParams,
    xa_grid,
    T_grid,
    Tp_grid,
    bands=_SOLVE,
) -> SRGrid:
    """Evaluate the success rate over the full (x_a, T, T') grid.

    B's continuation band is independent of T', so the bands of every
    (x_a, T) pair are solved in one ``continuation_band_t2`` call; ``bands``
    holds them when the caller has solved them already, nested x_a by T as
    that call returns them.  The root-node integral of one x_a covers every
    (T, T') pair in one call.  Every cell where A starts and B has a band is
    then one row of one success-rate table (``_sr_table``), whose rows equal
    the cells solved alone bit for bit.
    """
    xa = np.asarray(xa_grid, dtype=float)
    ts = np.asarray(T_grid, dtype=float)
    tps = np.asarray(Tp_grid, dtype=float)
    if bands is _SOLVE:
        bands = continuation_band_t2(p, ts, x_a=xa)
    norm = p.theta_1 * p.theta_2
    na = np.zeros((len(xa), len(ts), len(tps)), dtype=bool)
    x_star = np.empty(len(xa))
    for i, row in enumerate(bands):
        q = p.with_x_a(float(xa[i]))
        u_cont, u_stop = payoff_t1_with_band(q, ts, tps, row)
        na[i] = u_cont < u_stop
        x_star[i] = claim_threshold_t3(q)
    # A cell where A starts but B never locks completes with probability 0.
    raw = np.where(na, np.nan, 0.0)
    locks = np.array([[band is not None for band in row] for row in bands], dtype=bool)
    # The other cells are the table's rows; each one's group is its (x_a, T)
    # band, numbered x_a-major as in ``bands``.
    cells = ~na & locks.reshape(len(xa), len(ts), 1)
    pair, k = np.divmod(np.flatnonzero(cells), len(tps))
    raw[cells] = _sr_table(p, [band for row in bands for band in row], np.repeat(x_star, len(ts)),
                           np.tile(p.tau_b + ts, len(xa)), p.tau_a + tps[k], pair)
    conditional = raw / norm if norm > 0 else np.where(np.isnan(raw), np.nan, 0.0)
    return SRGrid(raw=raw, conditional=conditional, na_mask=na)


def payoff_t1_with_band(p: SwapParams, T, Tp, bands) -> tuple[np.ndarray, np.ndarray]:
    """Root-node values (A continue, A stop) with precomputed middle-node bands.

    ``T`` is a 1-D array of K claim delays and ``bands`` their K bands (None
    where B never locks); ``Tp`` is a 1-D array of lock delays.  Returns two
    (K, len(Tp)) arrays.  Each band is mapped onto u in [0, 1] (price =
    lo + u * (hi - lo), Jacobian hi - lo), so the integrands of every
    (T, T') pair run through one ``integrate`` call with row-wise
    refinement.  A's t2 value does not depend on T', so it is evaluated once
    per (T, node) and only the transition density carries the T' axis.
    """
    _check_delay("claim delay T", T, p.claim_delay_window)
    _check_delay("lock delay T'", Tp, p.lock_delay_window)
    ts = np.atleast_1d(np.asarray(T, dtype=float))
    tps = np.atleast_1d(np.asarray(Tp, dtype=float))
    if p.t1_stop_value == "principal":
        u_a_stop_t2 = p.x_a - p.f_a
    else:
        u_a_stop_t2 = p.x_a * math.exp(-p.r_a * p.t_a) - p.f_a
    exit_value = u_a_stop_t2 * math.exp(-p.r_a * p.tau_a)
    u_cont = np.full((len(ts), len(tps)), exit_value)
    u_stop = np.full_like(u_cont, p.x_a)
    rows = [k for k, band in enumerate(bands) if band is not None]
    if not rows:
        return u_cont, u_stop
    lo = np.array([[bands[k].lo] for k in rows])
    hi = np.array([[bands[k].hi] for k in rows])
    width = hi - lo
    t_col = ts[rows, None]
    st1 = PriceState(p.x_yb_t1)
    h = p.tau_a + tps

    def integrand(u):
        price = lo + u * width
        u_a = width * _u_A_cont_t2(p, price, t_col)  # Jacobian folded into the T'-free factor
        dens = transition_pdf(price[:, None, :], st1, p.gbm, h[:, None])
        return (dens * u_a[:, None, :]).reshape(-1, len(u))

    cont_int = integrate(integrand, Bracket(0.0, 1.0), p.quad).reshape(len(rows), len(tps))
    # Complement of the band under the same tau_a + T' law as the integral,
    # so the two branch weights sum to one.
    mass_outside = 1.0 - transition_cdf(hi, st1, p.gbm, h) + transition_cdf(lo, st1, p.gbm, h)
    u_cont[rows] = p.theta_2 * (
        cont_int * np.exp(-p.r_a * h) + mass_outside * exit_value
    ) + (1.0 - p.theta_2) * exit_value
    return u_cont, u_stop


def _sr_table(p: SwapParams, bands: list[Bracket], threshold: np.ndarray, h_claim: np.ndarray,
              h_lock: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Two-stage success rates, one per row: B locks inside the band after
    ``h_lock`` hours, then A claims above the threshold after a further
    ``h_claim`` hours.

    Rows come in groups of consecutive rows that share a band: ``group``
    gives each row's group, ascending, which indexes ``bands``,
    ``threshold`` and ``h_claim``; ``h_lock`` holds one entry per row.  Each
    row integrates over its group's band, with one bracket per row in
    ``integrate``, so a row's rate does not depend on the rows it is solved
    with.  The claim tail does not depend on the lock horizon: it is
    evaluated once per group on the nodes of the group's first row, which
    are those of all its rows.  The rows go through one ``integrate`` call
    per block of at most ``_CALL_BUDGET`` integrand values.
    """
    st1 = PriceState(p.x_yb_t1)
    rates = np.empty(len(group))
    per = max(1, numerics._CALL_BUDGET // numerics._GL_ORDER)
    for first in range(0, len(group), per):
        rows = slice(first, first + per)
        block = group[rows]
        new_group = np.diff(block, prepend=-1) != 0
        heads, local = np.flatnonzero(new_group), np.cumsum(new_group) - 1
        x_star, h_c, h_l = threshold[block[heads], None], h_claim[block[heads], None], h_lock[rows, None]

        def integrand(price):
            dens = p.theta_2 * transition_pdf(price, st1, p.gbm, h_l)
            tails = 1.0 - cdf_from(x_star, price[heads], p.gbm, h_c)
            return dens * p.theta_1 * tails[local]

        rates[rows] = integrate(integrand, [bands[g] for g in block.tolist()], p.quad)
    return np.maximum(0.0, rates, out=rates)
