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

import math
from dataclasses import dataclass, field, replace

import numpy as np

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

    Vectorized over prices and claim delays: a (K, 1) column of delays
    against (n,) or (K, n) prices gives (K, n) values.
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


def widest_band(g, scan: Bracket, rows: np.ndarray | None = None):
    """Widest interval of ``scan`` on which ``g > 0``, for each row of ``g``.

    ``g(x, rows)`` evaluates B's continue-minus-exit value of the rows
    ``rows`` (an index array) at prices ``x``: (len(rows), n) values, one
    row each, sharing one scan grid and bisecting in lockstep.  With
    ``rows=None`` there is a single row and ``g`` returns an array shaped
    like ``x``; then one band (or None) is returned instead of a list.
    When more than two crossings appear, the widest winning interval is
    kept; a row with no crossing has no band.
    """
    # The default scan's hi is 12x its largest price: the tolerance shrinks
    # with small prices, so their bands do not drift, and never grows.
    tol = _ROOT_TOL * min(1.0, scan.hi / 12.0)
    roots = find_roots(lambda x: g(x, rows), scan, grid_points=_ROOT_SCAN_POINTS, tol=tol)
    if rows is None:
        roots = [roots]
    edges = [[scan.lo, *r, scan.hi] for r in roots]
    mids = np.full((len(edges), max(map(len, edges)) - 1), scan.lo)
    for row, e in zip(mids, edges):
        row[:len(e) - 1] = 0.5 * np.add(e[:-1], e[1:])
    wins = g(mids, rows) > 0.0
    bands: list[Bracket | None] = []
    for r, e, win in zip(roots, edges, wins):
        best: tuple[float, float] | None = None
        for lo, hi, w in zip(e[:-1], e[1:], win):
            if r and w and (best is None or hi - lo > best[1] - best[0]):
                best = (lo, hi)
        bands.append(None if best is None else Bracket(*best))
    # Open-ended winning region at a scan edge means the scan missed a
    # crossing; widen those rows rather than report a fake endpoint.
    edge = [k for k, b in enumerate(bands) if b is not None and (b.lo == scan.lo or b.hi == scan.hi)]
    if edge and scan.hi / max(scan.lo, 1e-12) <= 1e8:
        wider = Bracket(scan.lo * 0.1, scan.hi * 10.0)
        if rows is None:
            return widest_band(g, wider)
        for k, band in zip(edge, widest_band(g, wider, rows[edge])):
            bands[k] = band
    return bands[0] if rows is None else bands


def continuation_band_t2(p: SwapParams, T, scan: Bracket | None = None) -> Bracket | None | list[Bracket | None]:
    """Price band over which B prefers locking at the middle node.

    Roots of u_B(continue) - u_B(stop), solved by ``widest_band``.  ``T``
    may be a 1-D array of claim delays; then one band (or None) is returned
    per delay.  The scan bracket depends only on x_a, so all delays share
    one grid and bisect in lockstep.
    """
    _check_delay("claim delay T", T, p.claim_delay_window)
    ts = np.asarray(T, dtype=float)

    # A scalar delay keeps scalar arithmetic in the payoff, which is cheaper
    # on the few midpoints of a bisection step; several delays form a column.
    def g(x, rows):
        return _u_B_cont_t2(p, x, T if rows is None else ts[rows, None]) - x

    scan = scan or _scan_bracket(p.x_yb_t1, p.x_a, claim_threshold_t3(p))
    return widest_band(g, scan, None if ts.ndim == 0 else np.arange(len(ts)))


def success_rate(p: SwapParams, T: float, Tp: float) -> float | None:
    """Probability the swap completes once started; None when A never starts.

    One cell of ``sr_surface``."""
    raw = sr_surface(p, [p.x_a], [T], [Tp]).raw[0, 0, 0]
    return None if math.isnan(raw) else float(raw)


def sr_surface(
    p: SwapParams,
    xa_grid,
    T_grid,
    Tp_grid,
) -> SRGrid:
    """Evaluate the success rate over the full (x_a, T, T') grid.

    B's continuation band is independent of T', so the bands of every T of
    one x_a are solved together, the root-node integral of one x_a covers
    every (T, T') pair in one call, and the SR integral of each (x_a, T)
    pair runs with T' as a batch axis.
    """
    xa = np.asarray(xa_grid, dtype=float)
    ts = np.asarray(T_grid, dtype=float)
    tps = np.asarray(Tp_grid, dtype=float)
    norm = p.theta_1 * p.theta_2
    raw = np.full((len(xa), len(ts), len(tps)), np.nan)
    na = np.zeros_like(raw, dtype=bool)

    for i, x_a in enumerate(xa):
        q = p.with_x_a(float(x_a))
        bands = continuation_band_t2(q, ts)
        u_cont, u_stop = payoff_t1_with_band(q, ts, tps, bands)
        na[i] = u_cont < u_stop
        for j, (T, band) in enumerate(zip(ts, bands)):
            starts = ~na[i, j]
            if band is None:
                raw[i, j, starts] = 0.0
            elif starts.any():
                raw[i, j, starts] = _sr_integral(
                    q, band, claim_threshold_t3(q), q.tau_a + tps[starts, None], q.tau_b + float(T))

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


def _sr_integral(p: SwapParams, band: Bracket, threshold: float, h_lock, h_claim: float):
    """Two-stage success rate: B locks inside ``band`` after ``h_lock`` hours,
    then A claims above ``threshold`` after a further ``h_claim`` hours.

    ``h_lock`` is a (K, 1) column of lock horizons, giving one rate per row,
    or a scalar, giving one float.
    """
    st1 = PriceState(p.x_yb_t1)

    def integrand(price):
        dens = p.theta_2 * transition_pdf(price, st1, p.gbm, h_lock)
        tails = 1.0 - cdf_from(threshold, price, p.gbm, h_claim)
        return dens * p.theta_1 * tails

    return np.maximum(0.0, integrate(integrand, band, p.quad))
