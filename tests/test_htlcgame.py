import math
import os
import platform
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import baseline, quick_baseline, start_scans_at
from swapsim import htlcgame, numerics, pricemodel, quickswapgame
from swapsim.htlcgame import (
    SwapParams,
    claim_threshold_t3,
    continuation_band_t2,
    payoff_t1_with_band,
    payoff_t3,
    sr_surface,
    success_rate,
)
from swapsim.numerics import Bracket, QuadratureSpec, integrate
from swapsim.pricemodel import GbmParams, PriceState, transition_cdf, transition_pdf

# The "tight quadrature" cases solve the root node to these tolerances.
_TIGHT_QUAD = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)


def _brute_force_threshold(g, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Independent sign-change scan + bisection of a payoff comparison."""
    xs = np.linspace(lo, hi, 2001)
    vals = [g(x) for x in xs]
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            return float(a)
        if fa * fb < 0.0:
            while b - a > tol:
                m = 0.5 * (a + b)
                if fa * g(m) <= 0.0:
                    b = m
                else:
                    a, fa = m, g(m)
            return 0.5 * (a + b)
    raise AssertionError("no sign change found")


def test_final_claim_payoffs():
    p = baseline()
    u_cont_a, u_cont_b = payoff_t3(p, 2.0, "continue")
    u_stop_a, u_stop_b = payoff_t3(p, 2.0, "stop")
    # Claiming at the market price beats refunding at the baseline.
    assert u_cont_a > u_stop_a
    # B's side of the claim branch: A's principal plus spread, discounted
    # over the confirmation and observation lag.
    assert u_cont_b == pytest.approx(
        (1 + p.sp_b) * p.x_a * math.exp(-p.r_b * (p.tau_a + p.t_eps)) - p.f_a, rel=1e-12
    )


def test_claim_threshold_matches_brute_force():
    for x_a in (1.5, 2.0, 2.7):
        p = baseline(x_a=x_a)
        star = claim_threshold_t3(p)
        brute = _brute_force_threshold(
            lambda x: payoff_t3(p, x, "continue")[0] - payoff_t3(p, x, "stop")[0],
            0.2, 5.0,
        )
        assert star == pytest.approx(brute, abs=1e-6)


def test_claim_threshold_baseline_value():
    # Spot value of the indifference price at the reference configuration.
    assert claim_threshold_t3(baseline()) == pytest.approx(1.2211, abs=5e-4)


def test_middle_node_value_matches_quadrature():
    """The closed-form middle-node values of both games equal their defining
    integrals: the final-node payoffs over the transition density."""
    p = baseline()
    lam = p.tau_b  # zero claim delay
    slope = math.exp((p.gbm.mu - p.r_b) * p.t_b)
    q = quick_baseline()
    quick = quickswapgame._quick(q, q.base.x_a)
    games = [
        # A dishonest A never claims; B unlocks after its full locktime.
        (htlcgame._htlc(p, 0.0, p.x_a), "stop", lambda x, action: payoff_t3(p, x, action),
         lambda price: math.exp(-p.r_b * lam) * (price * math.exp(p.gbm.mu * lam) * slope - p.f_b)),
        (quick, "cancel", lambda x, action: quickswapgame.payoff_t4(q, x, action),
         lambda price: htlcgame._line(quick.dishonest_b, price)),
    ]
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9)
    for g, exit_action, final, outside in games:
        assert g.h_claim == g.h_stop == lam
        x_star = htlcgame._threshold(g)
        for price_t2 in (1.6, 2.0, 2.4):
            st = PriceState(price_t2)

            def expect(party, action, lo, hi):
                def f(x):
                    return np.array([final(v, action)[party] for v in x.tolist()]) * transition_pdf(x, st, p.gbm, lam)

                return integrate(f, Bracket(lo, hi), spec)

            honest = expect(1, exit_action, 1e-3, x_star) + expect(1, "continue", x_star, 12.0)
            direct = p.theta_1 * math.exp(-p.r_b * lam) * honest + (1 - p.theta_1) * outside(price_t2)
            assert htlcgame._value_b(g, p)(price_t2) == pytest.approx(direct, rel=1e-6)
            direct_a = math.exp(-p.r_a * lam) * (expect(0, exit_action, 1e-3, x_star)
                                                 + expect(0, "continue", x_star, 12.0))
            assert htlcgame._value_a(g, p, price_t2)[0] == pytest.approx(direct_a, rel=1e-6)


def test_continuation_band_brackets_root_crossings():
    p = baseline()
    band = continuation_band_t2(p, 0.0)
    assert not np.isnan(band).any()
    lo, hi = band
    # B's continue value minus his stop value, the t2 price.
    g = lambda x: htlcgame._value_b(htlcgame._htlc(p, 0.0, p.x_a), p)(x) - x
    # Inside the band B prefers locking; at the edges it is indifferent.
    assert g(0.5 * (lo + hi)) > 0
    assert abs(g(lo)) <= 1e-6 and abs(g(hi)) <= 1e-6
    assert lo < p.x_yb_t1 < hi


def test_band_edges_match_brute_force():
    p = baseline()
    band_lo, band_hi = continuation_band_t2(p, 0.0)
    g = lambda x: htlcgame._value_b(htlcgame._htlc(p, 0.0, p.x_a), p)(x) - x
    lo = _brute_force_threshold(g, 0.5, 0.5 * (band_lo + band_hi))
    hi = _brute_force_threshold(g, 0.5 * (band_lo + band_hi), 6.0)
    assert band_lo == pytest.approx(lo, abs=1e-6)
    assert band_hi == pytest.approx(hi, abs=1e-6)


@pytest.mark.parametrize("case, p, scan", [
    ("sigma 0.05", baseline(0.05), None),
    ("sigma 0.1", baseline(), None),
    ("sigma 0.2", baseline(0.2), None),
    ("uniform delay discounting", baseline(uniform_delay_discounting=True), None),
    ("empty band row", baseline(r_b=0.01, theta_1=0.3), None),
    ("narrow scan", baseline(), Bracket(0.3, 2.0)),
])
def test_band_rows_match_single_delay_solves(monkeypatch, case, p, scan):
    if scan is not None:
        start_scans_at(monkeypatch, scan)
    ts = np.arange(21.0)
    rows = continuation_band_t2(p, ts)
    assert rows.shape == (len(ts), 2)
    # Both edges compare exactly; NaN (no band) equals NaN.
    assert np.array_equal(rows, [continuation_band_t2(p, float(T)) for T in ts], equal_nan=True)
    locks = ~np.isnan(rows[:, 0])
    if case == "empty band row":
        assert locks[0] and not locks[1:].any()
    elif case == "narrow scan":
        # Rows whose band reaches past the scan edge are solved again on a
        # wider scan; the rest keep the first scan.
        assert set(rows[:, 1] > scan.hi) == {True, False}
    else:
        assert locks.all()


def test_band_rows_share_one_scan(monkeypatch):
    # Counts the calls of B's value on prices: one per root-function call.
    calls = []
    u_b = htlcgame._value_b

    def counted(g, p):
        value = u_b(g, p)

        def recorded(price):
            calls.append(np.shape(price))
            return value(price)

        return recorded

    monkeypatch.setattr(htlcgame, "_value_b", counted)
    p = baseline()
    bands = continuation_band_t2(p, np.linspace(0.0, p.claim_delay_window, 21))
    assert not np.isnan(bands).any()
    assert 0 < len(calls) <= 60


def test_root_payoff_rows_match_single_row_calls():
    p = baseline(0.2)
    ts = np.array([0.0, 5.0, 10.0, 20.0])
    tps = np.array([0.0, 7.0, 21.0])
    bands = continuation_band_t2(p, ts)
    assert not np.isnan(bands).any()
    bands[1] = bands[3] = np.nan
    u_cont, u_stop, _ = (a[0] for a in payoff_t1_with_band(p, ts, tps, [bands], x_a=[p.x_a]))
    assert u_cont.shape == u_stop.shape == (len(ts), len(tps))
    exit_value = (p.x_a - p.f_a) * math.exp(-p.r_a * p.tau_a)
    for k, (T, band) in enumerate(zip(ts, bands)):
        one_cont, one_stop, _ = (a[0] for a in payoff_t1_with_band(p, [T], tps, [[band]], x_a=[p.x_a]))
        np.testing.assert_allclose(u_cont[k], one_cont[0], rtol=0.0, atol=1e-12)
        assert np.array_equal(u_stop[k], one_stop[0])
        if np.isnan(band).all():
            assert (u_cont[k] == exit_value).all()
        else:
            assert (u_cont[k] != exit_value).all()


def test_root_payoff_branch_weights_sum_to_one(monkeypatch):
    # With no discounting and a t2 value equal to A's exit value, the root
    # value is the exit value times the branch weights: theta_2 * (band mass
    # + mass_outside) + (1 - theta_2).  It stays the exit value on every row
    # only if the mapped band integral and mass_outside sum to one.
    monkeypatch.setattr(htlcgame, "_QUAD", _TIGHT_QUAD)
    p = baseline(0.2, r_a=0.0)
    exit_value = p.x_a - p.f_a
    value_a = htlcgame._value_a
    monkeypatch.setattr(htlcgame, "_value_a",
                        lambda g, q, price: (np.full(np.shape(price), exit_value), value_a(g, q, price)[1]))
    ts = np.array([0.0, 10.0, 20.0])
    tps = np.array([0.0, 7.0, 21.0])
    bands = continuation_band_t2(p, ts)
    assert not np.isnan(bands).any()
    u_cont, _, _ = payoff_t1_with_band(p, ts, tps, [bands], x_a=[p.x_a])
    np.testing.assert_allclose(u_cont, exit_value, rtol=0.0, atol=1e-10)


def test_unwilling_counterparty_kills_participation():
    p = baseline(theta_2=0.0)
    assert success_rate(p, 0.0, 0.0) is None


def test_success_rate_semantics_and_normalization():
    p = baseline()
    raw = success_rate(p, 0.0, 0.0)
    assert raw is not None
    assert 0.0 < raw <= p.theta_1 * p.theta_2
    cond = raw / (p.theta_1 * p.theta_2)
    assert cond == pytest.approx(0.798, abs=5e-3)


def test_success_rate_nonincreasing_in_each_delay_at_baseline():
    p = baseline()
    srs_T = [success_rate(p, T, 0.0) for T in (0.0, 5.0, 10.0, 15.0, 20.0)]
    vals = [s for s in srs_T if s is not None]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    srs_Tp = [success_rate(p, 0.0, Tp) for Tp in (0.0, 5.0, 10.0, 15.0, 21.0)]
    vals = [s for s in srs_Tp if s is not None]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_delay_window_bounds_enforced():
    p = baseline()
    with pytest.raises(ValueError):
        success_rate(p, p.claim_delay_window + 1.0, 0.0)
    with pytest.raises(ValueError):
        success_rate(p, 0.0, p.lock_delay_window + 1.0)
    with pytest.raises(ValueError):
        continuation_band_t2(p, np.array([0.0, p.claim_delay_window + 1.0]))


def test_thresholds_snapshot():
    band = continuation_band_t2(baseline(), 0.0)
    assert band.shape == (2,)
    assert band[0] < band[1]


def test_surface_shape_and_na_mask():
    p = baseline()
    grid = sr_surface(p, [1.0, 2.0, 3.0], [0.0, 10.0], [0.0, 10.0])
    assert grid.raw.shape == (3, 2, 2)
    # x_a = 1 and x_a = 3 never start; x_a = 2 participates at zero delay.
    assert grid.na_mask[0].all() and grid.na_mask[2].all()
    assert not grid.na_mask[1, 0, 0]
    assert np.isnan(grid.raw[0]).all()
    cond = grid.conditional[1, 0, 0]
    assert cond == pytest.approx(
        success_rate(p, 0.0, 0.0) / (p.theta_1 * p.theta_2), rel=1e-12
    )


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        baseline(t_a=10.0)  # violates t_a > t_b
    with pytest.raises(ValueError):
        baseline(theta_1=1.5)


def _oracle_surface(p, xa, ts, tps):
    """Per-cell success rates from scalar quadrature, one T' at a time.

    Returns the raw surface (NaN where A never starts) and the number of
    integrand calls of every integral (1 means no panel was refined).
    """
    raw = np.full((len(xa), len(ts), len(tps)), np.nan)
    calls = []

    def counted_integrate(f, band, spec):
        n = [0]

        def g(x):
            n[0] += 1
            return f(x)

        value = integrate(g, band, spec)
        calls.append(n[0])
        return value

    for i, x_a in enumerate(xa):
        q = p.with_x_a(x_a)
        stop_t1 = (q.x_a - q.f_a) * math.exp(-q.r_a * q.tau_a)
        st1 = PriceState(q.x_yb_t1)
        x_star = claim_threshold_t3(q)
        for j, T in enumerate(ts):
            lo, hi = continuation_band_t2(q, T)
            band = None if math.isnan(lo) else Bracket(lo, hi)
            u_a_t2 = np.vectorize(lambda x: htlcgame._value_a(htlcgame._htlc(q, T, q.x_a), q, x)[0])
            claimed = np.vectorize(
                lambda x: 1.0 - transition_cdf(x_star, PriceState(x), q.gbm, q.tau_b + T))
            for k, Tp in enumerate(tps):
                h = q.tau_a + Tp
                if band is None:
                    u_cont = stop_t1
                else:
                    cont = counted_integrate(
                        lambda x: transition_pdf(x, st1, q.gbm, h) * u_a_t2(x), band, htlcgame._QUAD)
                    outside = (1.0 - transition_cdf(hi, st1, q.gbm, h)
                               + transition_cdf(lo, st1, q.gbm, h))
                    u_cont = q.theta_2 * (cont * math.exp(-q.r_a * h) + outside * stop_t1) \
                        + (1.0 - q.theta_2) * stop_t1
                if u_cont < q.x_a:
                    continue
                if band is None:
                    raw[i, j, k] = 0.0
                    continue
                raw[i, j, k] = max(0.0, counted_integrate(
                    lambda x: q.theta_2 * transition_pdf(x, st1, q.gbm, h) * q.theta_1 * claimed(x),
                    band, htlcgame._QUAD))
    return raw, calls


# The ids keep their numbers, so a case keeps its id when another is dropped.
@pytest.mark.parametrize("case, p", [
    pytest.param("sigma 0.05", baseline(0.05), id="sigma 0.05-p0"),
    pytest.param("sigma 0.2", baseline(0.2), id="sigma 0.2-p1"),
    pytest.param("uniform delay discounting", baseline(uniform_delay_discounting=True),
                 id="uniform delay discounting-p3"),
    pytest.param("empty band", baseline(theta_1=0.0, r_a=0.0), id="empty band-p4"),
    pytest.param("tight quadrature", baseline(0.02), id="tight quadrature-p5"),
])
def test_surface_matches_per_cell_oracle(monkeypatch, case, p):
    if case == "tight quadrature":
        monkeypatch.setattr(htlcgame, "_QUAD", _TIGHT_QUAD)
    xa, ts, tps = [1.6, 2.0, 2.4], [0.0, 10.0, 20.0], [0.0, 7.0, 14.0, 21.0]
    grid = sr_surface(p, xa, ts, tps)
    want, calls = _oracle_surface(p, xa, ts, tps)
    assert np.array_equal(grid.na_mask, np.isnan(want))
    assert np.array_equal(np.isnan(grid.raw), np.isnan(want))
    assert np.nanmax(np.abs(grid.raw - want), initial=0.0) <= 1e-12
    if case == "discounted root stop":
        assert grid.na_mask.all()
    elif case == "empty band":
        assert np.isnan(continuation_band_t2(p, 0.0)).all()
        assert (grid.raw == 0.0).all()
    else:
        assert np.nanmax(grid.raw) > 0.0
    if case == "tight quadrature":
        # Some integrals refine and some do not, so rows of one batched
        # integral take different refinement paths.
        assert min(calls) == 1 < max(calls)


@pytest.mark.parametrize("k", [1e-170, 1e-6, 1e-3, 1e6, 1e9, 2e160])
def test_thresholds_and_success_rate_scale_with_prices(k):
    # With zero fees every payoff is homogeneous in the prices: scaling them
    # by k scales the thresholds by k and leaves the success rate unchanged.
    p, pk = baseline(), baseline(x_a=2.0 * k, x_yb_t1=2.0 * k)
    assert claim_threshold_t3(pk) / k == pytest.approx(claim_threshold_t3(p), rel=1e-12)
    for T, Tp in [(0.0, 0.0), (5.0, 7.0)]:
        (lo, hi), (lo_k, hi_k) = continuation_band_t2(p, T), continuation_band_t2(pk, T)
        assert lo_k / k == pytest.approx(lo, rel=1e-9)
        assert hi_k / k == pytest.approx(hi, rel=1e-9)
        assert success_rate(pk, T, Tp) == pytest.approx(success_rate(p, T, Tp), abs=1e-9)


@pytest.mark.parametrize("case, p, k, scan", [
    ("sigma 0.05", baseline(0.05), 1.0, None),
    ("sigma 0.1", baseline(), 1.0, None),
    ("sigma 0.2", baseline(0.2), 1.0, None),
    ("fees", baseline(0.2, f_a=0.01, f_b=0.02), 1.0, None),
    ("empty band rows", baseline(r_b=0.01, theta_1=0.3), 1.0, None),
    ("narrow scan", baseline(), 1.0, Bracket(0.3, 2.0)),
    ("price scale 1e-6", baseline(x_a=2e-6, x_yb_t1=2e-6), 1e-6, None),
    ("price scale 1e6", baseline(x_a=2e6, x_yb_t1=2e6), 1e6, None),
    ("uniform delay discounting", baseline(uniform_delay_discounting=True), 1.0, None),
])
def test_band_grid_matches_scalar_solves(monkeypatch, case, p, k, scan):
    # Every (x_a, T) row of the grid has its own scan and tolerance, and
    # equals the single-row solve of that pair bit for bit.
    if scan is not None:
        start_scans_at(monkeypatch, scan)
    xa = k * np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    ts = np.linspace(0.0, p.claim_delay_window, 5)
    got = continuation_band_t2(p, ts, x_a=xa)
    assert got.shape == (len(xa), len(ts), 2)
    want = [[continuation_band_t2(p.with_x_a(x), T) for T in ts] for x in xa.tolist()]
    assert np.array_equal(got, want, equal_nan=True)
    # A scalar delay gives one band per x_a.
    assert np.array_equal(continuation_band_t2(p, ts[1], x_a=xa), got[:, 1], equal_nan=True)
    bands = got.reshape(-1, 2)
    locks = ~np.isnan(bands[:, 0])
    if case == "empty band rows":
        assert set(locks) == {True, False}
    elif case == "narrow scan":
        # Only the rows whose band reaches past the scan edge are widened.
        assert set(bands[locks, 1] > scan.hi) == {True, False}


@pytest.mark.parametrize("scan", [(2.0, 0.3), (math.nan, 1.0), (0.3, math.nan)],
                         ids=["inverted", "nan-lo", "nan-hi"])
def test_scan_row_without_lo_below_hi_is_refused(scan):
    def g(groups):
        return lambda x: np.broadcast_to(1.0 - x, (len(groups), 2, x.shape[2]))

    with pytest.raises(ValueError, match="lo < hi"):
        htlcgame.widest_band(g, np.array([(0.3, 2.0), scan]), 2)


def _surface_shapes(grid):
    return {grid.raw.shape, grid.conditional.shape, grid.na_mask.shape}


def test_empty_claim_delay_axis_gives_empty_tables():
    p = baseline()
    assert continuation_band_t2(p, []).shape == (0, 2)
    assert continuation_band_t2(p, [], x_a=[1.6, 2.0]).shape == (2, 0, 2)
    assert _surface_shapes(sr_surface(p, [1.6, 2.0], [], [0.0, 7.0])) == {(2, 0, 2)}


def test_empty_lock_delay_axis_gives_empty_tables():
    p = baseline()
    bands = continuation_band_t2(p, [0.0, 10.0], x_a=[1.6, 2.0])
    u_cont, u_stop, rates = payoff_t1_with_band(p, [0.0, 10.0], [], bands, x_a=[1.6, 2.0])
    assert u_cont.shape == u_stop.shape == rates.shape == (2, 2, 0)
    assert _surface_shapes(sr_surface(p, [1.6, 2.0], [0.0, 10.0], [])) == {(2, 2, 0)}


def test_empty_x_a_axis_gives_empty_tables():
    p = baseline()
    assert continuation_band_t2(p, [0.0, 10.0], x_a=[]).shape == (0, 2, 2)
    assert _surface_shapes(sr_surface(p, [], [0.0, 10.0], [0.0, 7.0])) == {(0, 2, 2)}
    assert _surface_shapes(sr_surface(p, [], [], [])) == {(0, 0, 0)}


def test_surface_solves_bands_in_blocks(monkeypatch):
    calls = []
    find_roots = htlcgame.find_roots

    def counted(g, scan, *args, **kwargs):
        shapes = []

        def recording(x):
            shapes.append(np.shape(x))
            return g(x)

        calls.append((len(scan) * kwargs["group"], kwargs["group"], shapes))
        return find_roots(recording, scan, *args, **kwargs)

    monkeypatch.setattr(htlcgame, "find_roots", counted)
    xa = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    sr_surface(baseline(), xa, np.arange(21.0), [0.0])
    # widest_band solves the 441 (x_a, T) rows in one call, one group of 21
    # delays per x_a; no row of the default config widens.
    ((rows, group, shapes),) = calls
    assert (rows, group) == (441, 21)
    # The scan evaluates each x_a's grid once, in column blocks of at most
    # _CALL_BUDGET values; then each refinement call holds all rows.
    assert numerics._CALL_BUDGET // 441 == 74
    assert shapes[:4] == [(21, 1, 74)] * 3 + [(21, 1, 34)]
    assert all(shape[:2] == (21, 21) for shape in shapes[4:])
    assert len(shapes) <= 40


def test_band_tables_above_the_lockstep_cap_solve_in_group_blocks(monkeypatch):
    # With a budget of 336 values, one lockstep holds 336 / 8 = 42 rows, two
    # x_a of 21 delays, and scans 8 grid columns at a time: the bands are
    # those of the one-call solve, bit for bit.
    p = baseline(0.2)
    xa = np.round(np.arange(1.2, 2.8 + 1e-9, 0.4), 10)
    ts = np.arange(21.0)
    whole = continuation_band_t2(p, ts, x_a=xa)
    calls = []
    find_roots = htlcgame.find_roots

    def counted(g, scans, *args, **kwargs):
        calls.append(len(scans) * kwargs["group"])
        return find_roots(g, scans, *args, **kwargs)

    monkeypatch.setattr(htlcgame, "find_roots", counted)
    monkeypatch.setattr(numerics, "_CALL_BUDGET", 336)
    assert np.array_equal(continuation_band_t2(p, ts, x_a=xa), whole, equal_nan=True)
    assert calls == [42, 42, 21]


def test_each_lockstep_builds_its_game_table_once(monkeypatch):
    # A game table does not depend on the prices: each solve builds one for
    # its scan brackets, then one per lockstep (the main one, each block of
    # groups and each widened subset), not one per root-function call.
    builds, locksteps = [], []
    for module, name in ((htlcgame, "_htlc"), (quickswapgame, "_quick")):
        def built(*args, build=getattr(module, name)):
            builds.append(build)
            return build(*args)

        monkeypatch.setattr(module, name, built)
    find_roots = htlcgame.find_roots

    def counted(g, scans, *args, **kwargs):
        locksteps.append(len(scans) * kwargs["group"])
        return find_roots(g, scans, *args, **kwargs)

    monkeypatch.setattr(htlcgame, "find_roots", counted)

    def solve(band, *args, **kwargs):
        builds.clear()
        locksteps.clear()
        assert not np.isnan(band(*args, **kwargs)).all()
        assert len(builds) == 1 + len(locksteps)
        return locksteps

    xa = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    assert solve(continuation_band_t2, baseline(), np.arange(21.0), x_a=xa) == [441]
    assert solve(quickswapgame.continuation_band_t3, quick_baseline(), x_a=xa) == [21]
    # At mu 0.01 the band reaches below its scan and is solved twice more.
    assert solve(continuation_band_t2, baseline(gbm=GbmParams(mu=0.01, sigma=0.1)), 0.0) == [1, 1, 1]
    # Lockstep blocks of 336 / 8 = 42 rows, two x_a of 21 delays each.
    monkeypatch.setattr(numerics, "_CALL_BUDGET", 336)
    xa = np.round(np.arange(1.2, 2.8 + 1e-9, 0.4), 10)
    assert solve(continuation_band_t2, baseline(0.2), np.arange(21.0), x_a=xa) == [42, 42, 21]


@pytest.mark.parametrize("k", [1e-170, 1e-100, 1e100])
def test_widened_bands_scale_with_prices(monkeypatch, k):
    # At mu 0.01 B locks at every low price, so his band at T = 0 reaches
    # below each scan: it is solved on three scans, ten times wider at each
    # end every time, until hi > 1e8 * lo, and keeps the third scan's lo.
    # The cap once read hi / max(lo, 1e-12) and never tripped on scans below
    # that floor: at 1e-100 the eleventh solve, whose tolerance had grown
    # with hi past the band, lost the root and the band read NaN.
    gbm = GbmParams(mu=0.01, sigma=0.1)
    want = continuation_band_t2(baseline(gbm=gbm), 0.0)
    scans = []
    find_roots = htlcgame.find_roots

    def counted(g, scan, *args, **kwargs):
        scans.append(scan[0])
        return find_roots(g, scan, *args, **kwargs)

    monkeypatch.setattr(htlcgame, "find_roots", counted)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = continuation_band_t2(baseline(x_a=2 * k, x_yb_t1=2 * k, gbm=gbm), 0.0)
    assert len(scans) == 3 and got[0] == scans[-1][0]
    # Within the bisection tolerance of the third scan, 1e-10 * 2400k / 12
    # (at scale 1 it is capped at 1e-10).
    assert got / k == pytest.approx(want, rel=0.0, abs=2e-8)


def test_band_solve_holds_no_rows_by_grid_table():
    # 10,000 rows in 500 groups of 20, each row with the band (c, c + 1) of
    # its own c.  A rows x 256 float table alone would take 20.5 MB.
    shift = np.linspace(0.0, 0.5, 20)[:, None]

    def g(groups):
        c = 1.0 + 1e-3 * groups[:, None, None] + shift
        return lambda x: (x - c) * (c + 1.0 - x)

    tracemalloc.start()
    try:
        bands = htlcgame.widest_band(g, np.tile((0.1, 5.0), (500, 1)), 20)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000 * 256 * 8 / 4
    # The table is one float array: its 160 kB of band ends and no Python
    # object per band (a Bracket per row held about 1 MB).
    assert isinstance(bands, np.ndarray) and bands.shape == (10_000, 2) and bands.dtype == float
    assert held < 2 * 10_000 * 2 * 8
    for k in (0, 19, 5_010, 9_999):
        c = 1.0 + 1e-3 * (k // 20) + shift[k % 20, 0]
        assert bands[k, 0] == pytest.approx(c, abs=1e-9)
        assert bands[k, 1] == pytest.approx(c + 1.0, abs=1e-9)


def test_root_node_holds_one_block_of_integrand_values():
    # With fixed bands the default surface's root node runs in blocks of 4
    # x_a, whose integrand rows, densities and A's values peak at about
    # 3.2 MB traced; one call over all 21 x_a peaks at about 16 MB.  A first
    # untraced call keeps one-time allocations out of the peak.
    p = baseline()
    xa = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    ts, tps = np.arange(21.0), np.arange(22.0)
    bands = continuation_band_t2(p, ts, x_a=xa)
    sr_surface(p, xa, ts, tps, bands)
    tracemalloc.start()
    try:
        sr_surface(p, xa, ts, tps, bands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


@pytest.mark.parametrize("uniform, shared", [(False, 2), (True, 0)])
def test_band_scan_evaluates_t_free_terms_once_per_x_a(monkeypatch, uniform, shared):
    # B's stop branch at horizon tau_b (two of the three log-normal terms of
    # his value, which share one law_terms call) does not depend on T, so the
    # scan evaluates it on each x_a's (G, 1, n) grid; at the T-dependent
    # horizon tau_b + T every term runs on all (G, R, n) rows.
    calls = []
    law_terms = htlcgame.law_terms

    def recorded(*args, **kwargs):
        cdfs, pes = law_terms(*args, **kwargs)
        calls.append([np.shape(term) for term in cdfs + pes])
        return cdfs, pes

    monkeypatch.setattr(htlcgame, "law_terms", recorded)
    p = baseline(uniform_delay_discounting=uniform)
    continuation_band_t2(p, np.arange(21.0), x_a=np.round(1.0 + 0.1 * np.arange(7), 10))
    assert calls and all(len(shapes) == 3 for shapes in calls)
    # The scan's two column chunks come first; the refinement and midpoint
    # calls after them evaluate every term on all (7, 21, n) rows.
    scan = [shape for shapes in calls[:2] for shape in shapes]
    assert all(shape[:2] == (7, 21) for shapes in calls[2:] for shape in shapes)
    assert sorted(scan) == sorted([(7, 1, c) for c in (222, 34)] * shared
                                  + [(7, 21, c) for c in (222, 34)] * (3 - shared))


@pytest.mark.parametrize("case, p", [
    ("sigma 0.05", baseline(0.05)),
    ("sigma 0.2", baseline(0.2)),
    ("uniform delay discounting", baseline(uniform_delay_discounting=True)),
    ("tight quadrature", baseline(0.02)),
])
def test_surface_cells_equal_cells_solved_alone(monkeypatch, case, p):
    if case == "tight quadrature":
        monkeypatch.setattr(htlcgame, "_QUAD", _TIGHT_QUAD)
    # The surface's one success-rate table gives every cell the bits of its
    # own one-cell table.
    xa, ts, tps = [1.6, 2.0, 2.4], [0.0, 10.0, 20.0], [0.0, 7.0, 14.0, 21.0]
    grid = sr_surface(p, xa, ts, tps)
    finite = np.argwhere(~np.isnan(grid.raw))
    assert len(finite) and (grid.raw[~np.isnan(grid.raw)] > 0.0).any()
    for i, j, k in finite.tolist():
        assert grid.raw[i, j, k] == success_rate(p.with_x_a(xa[i]), ts[j], tps[k])


def test_default_surface_takes_its_success_rates_from_the_root_node_calls(monkeypatch):
    # The success rates have no quadrature of their own: the default
    # surface makes 6 integrate calls, one inside each payoff_t1_with_band
    # call, and each cell's rate is the one its root-node call returns.
    xa = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    ts, tps = np.arange(21.0), np.arange(22.0)
    calls, inside, returned = [], [], []
    solve = htlcgame.payoff_t1_with_band

    def root(p, T, Tp, bands, x_a):
        inside.append(True)
        try:
            returned.append(solve(p, T, Tp, bands, x_a))
        finally:
            inside.pop()
        return returned[-1]

    def counted(f, bracket, spec):
        calls.append(bool(inside))
        return integrate(f, bracket, spec)

    monkeypatch.setattr(htlcgame, "payoff_t1_with_band", root)
    monkeypatch.setattr(htlcgame, "integrate", counted)
    grid = sr_surface(baseline(), xa, ts, tps)
    assert calls == [True] * 6 and len(returned) == 6
    raw = np.concatenate([rates for _, _, rates in returned])
    assert np.array_equal(grid.raw, np.where(grid.na_mask, np.nan, raw), equal_nan=True)
    assert int((~grid.na_mask).sum()) == 586


# The ids keep their numbers, so a case keeps its id when another is dropped.
@pytest.mark.parametrize("case, p", [
    pytest.param("sigma 0.05", baseline(0.05), id="sigma 0.05-p0"),
    pytest.param("sigma 0.2", baseline(0.2), id="sigma 0.2-p1"),
    pytest.param("uniform delay discounting", baseline(uniform_delay_discounting=True),
                 id="uniform delay discounting-p2"),
    pytest.param("tight quadrature", baseline(0.02), id="tight quadrature-p4"),
    pytest.param("theta_2 0.3", baseline(theta_2=0.3), id="theta_2 0.3-p5"),
])
def test_root_payoffs_of_every_x_a_equal_per_x_a_calls(monkeypatch, case, p):
    if case == "tight quadrature":
        monkeypatch.setattr(htlcgame, "_QUAD", _TIGHT_QUAD)
    # One call over an x_a axis gives each x_a the bits of its own call,
    # also an x_a without a band and one with band-less delays.
    xa = np.array([1.6, 2.0, 2.4, 2.8])
    ts, tps = np.array([0.0, 5.0, 10.0, 20.0]), np.array([0.0, 7.0, 21.0])
    bands = continuation_band_t2(p, ts, x_a=xa)
    assert not np.isnan(bands).any()
    bands[0, [1, 3]] = np.nan
    bands[2] = np.nan
    u_cont, u_stop, rates = payoff_t1_with_band(p, ts, tps, bands, x_a=xa)
    assert u_cont.shape == u_stop.shape == rates.shape == (len(xa), len(ts), len(tps))
    for i, x in enumerate(xa.tolist()):
        one_cont, one_stop, one_rates = payoff_t1_with_band(p.with_x_a(x), ts, tps, bands[i:i + 1], x_a=[x])
        assert np.array_equal(u_cont[i], one_cont[0]) and np.array_equal(rates[i], one_rates[0])
        assert np.array_equal(u_stop[i], one_stop[0]) and (one_stop == x).all()
    # Where B never locks, A's value is her exit value exactly.
    exit_value = (xa - p.f_a) * math.exp(-p.r_a * p.tau_a)
    assert (u_cont[2] == exit_value[2]).all() and (u_cont[0, [1, 3]] == exit_value[0]).all()
    assert (u_cont[0, [0, 2]] != exit_value[0]).all()
    # Where B never locks, the swap never completes.
    assert (rates[2] == 0.0).all() and (rates[0, [1, 3]] == 0.0).all()
    assert (rates[0, [0, 2]] > 0.0).all()


def _root_node_calls(monkeypatch):
    """Record the root node's calls: the x_a count of each
    ``payoff_t1_with_band`` call, and each ``integrate`` call as the rows of
    its integrand calls."""
    roots, calls = [], []
    solve = htlcgame.payoff_t1_with_band

    def root(p, T, Tp, bands, x_a):
        roots.append(np.size(x_a))
        return solve(p, T, Tp, bands, x_a)

    def counted(f, bracket, spec):
        rows = []
        calls.append(rows)

        def g(u):
            values = f(u)
            rows.append(len(values))
            return values

        return integrate(g, bracket, spec)

    monkeypatch.setattr(htlcgame, "payoff_t1_with_band", root)
    monkeypatch.setattr(htlcgame, "integrate", counted)
    return roots, calls


def test_default_surface_solves_its_root_node_in_blocks_of_whole_x_a(monkeypatch):
    xa = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    ts, tps = np.arange(21.0), np.arange(22.0)
    roots, calls = _root_node_calls(monkeypatch)
    sr_surface(baseline(), xa, ts, tps)
    # One x_a group is 21 x 22 cells of 65 nodes (30,030 values), so a
    # block of _QUAD_BUDGET values holds four groups: 6 root-node calls, each
    # one integrate call of one integrand call, with two rows per cell (A's
    # value and her claim probability).
    group = 21 * 22
    assert numerics._QUAD_BUDGET // (group * 65) == 4
    assert roots == [4] * 5 + [1]
    assert calls == [[2 * 4 * group]] * 5 + [[2 * group]]


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's heap on Linux")
def test_warm_default_surface_does_not_fault_its_heap_in_again():
    # A root-node block's integrand holds 480 KB.  Should panel products of
    # that size, or the density's temporaries, raise glibc's heap past its
    # trim threshold, the heap is trimmed after each block and faulted in
    # again by the next (5,481 minor faults per warm call).  A fresh process
    # keeps other tests' heaps out of it.
    script = textwrap.dedent("""
        import resource
        import numpy as np
        from conftest import baseline
        from swapsim import htlcgame
        p = baseline()
        xa = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
        ts, tps = np.arange(21.0), np.arange(22.0)
        bands = htlcgame.continuation_band_t2(p, ts, x_a=xa)
        htlcgame.sr_surface(p, xa, ts, tps, bands=bands)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        htlcgame.sr_surface(p, xa, ts, tps, bands=bands)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 500


@pytest.mark.parametrize("budget, blocks, banded", [
    (3 * 4 * 3 * 65, [4, 3], [3, 3]),
    (100, [1, 1, 2, 1, 1, 1], [1] * 6),
])
def test_root_node_blocks_hold_whole_x_a_groups(monkeypatch, budget, blocks, banded):
    p = baseline(0.2)
    xa = np.round(np.linspace(1.4, 2.6, 7), 10)
    ts, tps = np.array([0.0, 5.0, 10.0, 20.0]), np.array([0.0, 7.0, 21.0])
    bands = continuation_band_t2(p, ts, x_a=xa)
    bands[3] = np.nan  # rides along with the x_a before it
    bands[5, 1] = np.nan
    whole = sr_surface(p, xa, ts, tps, bands)
    roots, calls = _root_node_calls(monkeypatch)
    monkeypatch.setattr(numerics, "_QUAD_BUDGET", budget)
    blocked = sr_surface(p, xa, ts, tps, bands)
    assert np.array_equal(blocked.raw, whole.raw, equal_nan=True)
    assert np.array_equal(blocked.na_mask, whole.na_mask)
    assert roots == blocks
    # A block of g x_a with a band is one integrate call on two rows per
    # cell of g x 4 x 3: one panel, which does not refine.
    assert calls == [[2 * g * 4 * 3] for g in banded]


@pytest.mark.parametrize("x_a, says", [
    ([2.0, -1.0], "x_a must be >= 0"),
    ([2.0, math.nan], "x_a must be finite"),
    ([math.inf, -1.0], "x_a must be finite"),
    ([-1.0, math.nan], "x_a must be >= 0"),
])
def test_x_a_axis_is_checked_as_with_x_a_checks_it(x_a, says):
    p = baseline()
    with pytest.raises(ValueError, match=says):
        for x in x_a:
            p.with_x_a(x)
    ts = np.array([0.0, 10.0])
    with pytest.raises(ValueError, match=says):
        continuation_band_t2(p, ts, x_a=x_a)
    with pytest.raises(ValueError, match=says):
        payoff_t1_with_band(p, ts, ts, np.full((2, 2, 2), np.nan), x_a=x_a)
    with pytest.raises(ValueError, match=says):
        sr_surface(p, x_a, ts, ts, np.full((2, 2, 2), np.nan))


@pytest.mark.parametrize("shape", [(2, 3, 2), (3, 1, 2), (3, 2, 3), (6, 2)])
def test_band_table_of_the_wrong_shape_is_refused(shape):
    # 3 x_a by 2 delays need a (3, 2, 2) table; a transposed or short one
    # used to end in an IndexError or a failed reshape.
    p = baseline()
    xa, ts = [1.6, 2.0, 2.4], np.array([0.0, 10.0])
    bands = np.full(shape, 2.0)
    says = re.escape(f"band table has shape {shape}, expected (3, 2, 2)")
    with pytest.raises(ValueError, match=says):
        sr_surface(p, xa, ts, ts, bands)
    with pytest.raises(ValueError, match=says):
        payoff_t1_with_band(p, ts, ts, bands, x_a=xa)
    with pytest.raises(ValueError, match=re.escape(f"band table has shape {shape}, expected (1, 2, 2)")):
        payoff_t1_with_band(p, ts, ts, bands, x_a=[p.x_a])


def _branch_weights(g, p, price):
    """Claim weight plus stop weight at a middle node of a game table."""
    x_star = htlcgame._threshold(g)
    (claim, stop), _ = pricemodel.law_terms(x_star, price, p.gbm, cdf=(g.h_claim, g.h_stop))
    return (1.0 - claim) + stop


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("game, delays", [
    ("quickswap", None),
    ("htlc", [0.0]),
    ("htlc uniform delay discounting", [0.0, 5.0, 10.0, 20.0]),
    pytest.param("htlc", [5.0, 10.0, 20.0], marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP.md item 4: the HTLC middle node weighs A's claim at tau_b + T "
        "and her stop at tau_b"))),
])
def test_branch_weights_of_every_node_sum_to_one(game, delays, sigma):
    xa = np.linspace(1.0, 3.0, 21)[:, None, None]
    prices = np.linspace(1.0, 3.0, 41)
    if game == "quickswap":
        q = quick_baseline(sigma)
        g, p = quickswapgame._quick(q, xa), q.base
    else:
        p = baseline(sigma, uniform_delay_discounting=game != "htlc")
        g = htlcgame._htlc(p, np.array(delays)[:, None], xa)
    weights = _branch_weights(g, p, prices)
    assert weights.shape == (len(xa), 1 if delays is None else len(delays), len(prices))
    np.testing.assert_allclose(weights, 1.0, rtol=0.0, atol=1e-15)


def test_zero_delays_solve_bands_on_the_kernels_step_limits():
    # At tau_a = tau_b = 0 the price law over A's claim horizon is a point:
    # the kernels take their step limits, with no division warning (the
    # suite turns warnings into errors).
    htlc = continuation_band_t2(baseline(tau_a=0.0, tau_b=0.0), 0.0)
    quick = quickswapgame.continuation_band_t3(quick_baseline(tau_a=0.0, tau_b=0.0))
    assert tuple(htlc.tolist()) == (pytest.approx(1.2102, abs=5e-5), pytest.approx(2.4190, abs=5e-5))
    assert tuple(quick.tolist()) == (pytest.approx(1.5232, abs=5e-5), pytest.approx(2.4975, abs=5e-5))
