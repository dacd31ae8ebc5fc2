import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import baseline, quick_baseline, start_scans_at
from swapsim import htlcgame, numerics, quickswapgame
from swapsim.numerics import Bracket
from swapsim.protocol import build_quickswap_instance
from swapsim.quickswapgame import (
    QuickSwapParams,
    claim_threshold_t4,
    compare_participation,
    continuation_band_t3,
    payoff_t4,
    success_rate,
)


def _brute_force_threshold(g, lo, hi, tol=1e-10):
    xs = np.linspace(lo, hi, 2001)
    vals = [g(x) for x in xs]
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if fa * fb < 0.0:
            while b - a > tol:
                m = 0.5 * (a + b)
                if fa * g(m) <= 0.0:
                    b = m
                else:
                    a, fa = m, g(m)
            return 0.5 * (a + b)
    raise AssertionError("no sign change found")


def test_premium_sizing():
    q = quick_baseline()
    assert q.Q == pytest.approx(q.rho * q.base.x_a * q.base.t_a, rel=1e-12)
    assert q.premium_of("B") == pytest.approx(q.Q, rel=1e-12)
    assert q.premium_of("A") == pytest.approx(1.5 * q.Q, rel=1e-12)


def test_timing_invariants_enforced():
    for bad in (dict(D=5.0),                          # D <= tau_a + tau_b
                dict(D=24.0),                         # no Delta >= 0 fits D + Delta < t_b
                dict(D=10.0, tau_b=6.0, t_b=15.0)):   # no D + Delta fits
        with pytest.raises(ValueError, match="premium locktime ill-formed"):
            quick_baseline(**bad)
    with pytest.raises(ValueError):
        quick_baseline(rho=-0.1)
    with pytest.raises(ValueError):
        quick_baseline(Delta=-1.0)       # D + Delta = 11 is in range, but Delta < 0
    # The game reads no Delta: only the lock plan checks B's premium timeout.
    q = quick_baseline(D=23.0, Delta=2.0)
    with pytest.raises(ValueError, match="need tau_a \\+ 2\\*tau_b < D \\+ Delta < t_b"):
        build_quickswap_instance(q)
    build_quickswap_instance(replace(q, Delta=0.5))


def test_final_claim_threshold_matches_brute_force():
    for x_a in (1.5, 2.0, 2.7):
        q = quick_baseline().with_x_a(x_a)
        star = claim_threshold_t4(q)
        brute = _brute_force_threshold(
            lambda x: payoff_t4(q, x, "continue")[0] - payoff_t4(q, x, "cancel")[0],
            0.2, 5.0,
        )
        assert star == pytest.approx(brute, abs=1e-6)


def test_final_claim_threshold_spot_value():
    assert claim_threshold_t4(quick_baseline()) == pytest.approx(1.4916, abs=5e-4)


def test_final_claim_threshold_premium_invariant():
    # The premium enters both the claim and cancel branches identically,
    # so the indifference price cannot depend on rho.
    stars = {claim_threshold_t4(quick_baseline(rho=r)) for r in (0.0005, 0.001, 0.002)}
    assert max(stars) - min(stars) <= 1e-12


def test_cancel_dominates_plain_stop_for_b():
    q = quick_baseline()
    # Cancelling returns B's coins plus the premium; stopping without the
    # cancel hash forfeits the premium claim.
    cancel_b = htlcgame._line(quickswapgame._quick(q, q.base.x_a).stay_b, 2.0)
    stop_b = 2.0  # B keeps his coins, worth the t3 price
    assert cancel_b > stop_b


def test_lock_band_brackets_and_brute_force():
    q = quick_baseline()
    band_lo, band_hi = continuation_band_t3(q)
    assert not math.isnan(band_lo)
    game = quickswapgame._quick(q, q.base.x_a)
    g = lambda x: htlcgame._value_b(game, q.base)(x) - htlcgame._line(game.stay_b, x)
    assert g(0.5 * (band_lo + band_hi)) > 0
    lo = _brute_force_threshold(g, 0.5, 0.5 * (band_lo + band_hi))
    hi = _brute_force_threshold(g, 0.5 * (band_lo + band_hi), 6.0)
    assert band_lo == pytest.approx(lo, abs=1e-6)
    assert band_hi == pytest.approx(hi, abs=1e-6)


def test_thresholds_snapshot():
    q = quick_baseline()
    band = continuation_band_t3(q)
    assert band.shape == (2,)
    assert band[0] < q.base.x_yb_t1 < band[1]


def test_success_rate_baseline():
    q = quick_baseline()
    raw = success_rate(q)
    norm = q.base.theta_1 * q.base.theta_2
    assert 0.0 < raw <= norm
    assert raw / norm == pytest.approx(0.751, abs=5e-3)


def test_success_rate_zero_when_band_empty():
    # A near-worthless principal leaves B no price at which locking pays.
    q = quick_baseline().with_x_a(0.05)
    assert np.isnan(continuation_band_t3(q)).all()
    assert success_rate(q) == 0.0


@pytest.mark.parametrize("k", [1e-170, 1e-6, 1e-3, 1e6, 1e9, 2e160])
def test_success_rate_invariant_under_price_scaling(k):
    # Zero fees: the premium and every payoff scale with the prices, so the
    # thresholds scale by k and the success rate is unchanged.
    scaled = quick_baseline(x_a=2.0 * k, x_yb_t1=2.0 * k)
    assert success_rate(scaled) == pytest.approx(success_rate(quick_baseline()), abs=1e-9)
    assert claim_threshold_t4(scaled) / k == pytest.approx(claim_threshold_t4(quick_baseline()), rel=1e-12)
    (lo, hi), (lo_k, hi_k) = continuation_band_t3(quick_baseline()), continuation_band_t3(scaled)
    assert lo_k / k == pytest.approx(lo, rel=1e-9)
    assert hi_k / k == pytest.approx(hi, rel=1e-9)


@pytest.mark.parametrize("scan", [(2.0, 0.3), (math.nan, 2.0)], ids=["inverted", "nan"])
def test_lock_band_refuses_a_scan_without_lo_below_hi(monkeypatch, scan):
    start_scans_at(monkeypatch, scan)
    with pytest.raises(ValueError, match="lo < hi"):
        continuation_band_t3(quick_baseline())


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.2])
def test_lock_band_widens_a_narrow_scan(monkeypatch, sigma):
    # The band reaches past the scan's upper edge, so the scan is widened
    # until both roots lie inside; the roots then agree with the default
    # scan's to the bisection tolerance.
    q = quick_baseline(sigma)
    want_lo, want_hi = continuation_band_t3(q)
    scan = Bracket(0.3, 2.0)
    start_scans_at(monkeypatch, scan)
    lo, hi = continuation_band_t3(q)
    assert hi > scan.hi
    assert lo == pytest.approx(want_lo, abs=1e-8)
    assert hi == pytest.approx(want_hi, abs=1e-8)


def test_participation_comparison_contains_plain_swap():
    q = quick_baseline()
    xa = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    report = compare_participation(baseline(), q, xa, delay_points=3)
    assert report.quick_range is not None
    assert report.htlc_range_zero_delay is not None
    assert report.quick_contains_htlc
    assert report.quick_strictly_contains_worst


def test_participation_comparison_rejects_mismatched_economics():
    q = quick_baseline()
    with pytest.raises(ValueError):
        compare_participation(baseline(t_b=20.0), q, [2.0])


@pytest.mark.parametrize("sigma, k, fees", [
    (0.05, 1.0, {}),
    (0.1, 1.0, {}),
    (0.2, 1.0, {}),
    (0.2, 1.0, {"f_a": 0.01, "f_b": 0.02}),
    (0.1, 1e-6, {}),
    (0.1, 1e6, {}),
])
def test_participation_matches_per_xa_solves(sigma, k, fees):
    # One lockstep solve over the x_a axis gives every x_a the band and the
    # success rate of its own solve, bit for bit.
    q = quick_baseline(sigma, x_a=2.0 * k, x_yb_t1=2.0 * k, **fees)
    xa = k * np.array([0.05, *np.round(np.arange(0.2, 3.0 + 1e-9, 0.2), 10)])
    alone = [q.with_x_a(x) for x in xa.tolist()]
    bands = continuation_band_t3(q, x_a=xa)
    assert bands.shape == (len(xa), 2)
    assert np.array_equal(bands, [continuation_band_t3(r) for r in alone], equal_nan=True)
    assert np.isnan(bands[0]).all() and not np.isnan(bands[-1]).any()
    report = compare_participation(q.base, q, xa)
    assert report.quick_sr.tolist() == [success_rate(r) for r in alone]


def test_participation_solves_each_game_once(monkeypatch):
    rows = []
    find_roots = htlcgame.find_roots

    def counted(g, scan, *args, **kwargs):
        rows.append(len(scan) * kwargs["group"])
        return find_roots(g, scan, *args, **kwargs)

    monkeypatch.setattr(htlcgame, "find_roots", counted)
    xa = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    compare_participation(baseline(), quick_baseline(), xa)
    # No row widens on the default config: one HTLC solve of 21 x_a by 5
    # delays and one Quick Swap solve of 21 rows.
    assert rows == [21 * 5, 21]


def test_participation_solves_quick_swap_bands_in_blocks(monkeypatch):
    q = quick_baseline()
    xa = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    whole = continuation_band_t3(q, x_a=xa)
    calls, blocks, solved = [], [], []
    find_roots, solve = htlcgame.find_roots, quickswapgame.continuation_band_t3

    def counted(g, scans, *args, **kwargs):
        def recording(x):
            calls[-1].append(np.shape(x))
            return g(x)

        calls.append([len(scans) * kwargs["group"], kwargs["group"]])
        return find_roots(recording, scans, *args, **kwargs)

    def recorded(*args, **kwargs):
        # Only the find_roots calls of the Quick Swap solve count.
        calls.clear()
        solved.append(solve(*args, **kwargs))
        blocks.extend(calls)
        return solved[-1]

    monkeypatch.setattr(htlcgame, "find_roots", counted)
    monkeypatch.setattr(quickswapgame, "continuation_band_t3", recorded)
    monkeypatch.setattr(numerics, "_CALL_BUDGET", 21 * 100)
    report = compare_participation(q.base, q, xa)
    # One call of 21 one-row groups, whose scan runs in column blocks of
    # 100 grid points.
    ((rows, group, *shapes),) = blocks
    assert (rows, group) == (21, 1)
    assert shapes[:3] == [(21, 1, 100), (21, 1, 100), (21, 1, 56)]
    assert len(solved) == 1 and np.array_equal(solved[0], whole, equal_nan=True)
    assert report.quick_sr.tolist() == [success_rate(q.with_x_a(x), band)
                                        for x, band in zip(xa.tolist(), whole)]


def _band_quadratures(monkeypatch):
    """Record the x_a count of each Quick Swap band quadrature."""
    blocks = []
    solve = quickswapgame._band_integrals

    def counted(game, p, lo, width, h_lock):
        blocks.append(len(lo))
        return solve(game, p, lo, width, h_lock)

    monkeypatch.setattr(quickswapgame, "_band_integrals", counted)
    return blocks


def test_participation_solves_quick_swap_rates_in_one_table(monkeypatch):
    # The Quick Swap rates of every x_a are the rows of one band quadrature,
    # the one the HTLC root node uses, and each has the bits of its own.
    blocks = _band_quadratures(monkeypatch)
    q = quick_baseline()
    xa = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    report = compare_participation(q.base, q, xa)
    assert blocks == [int((report.quick_sr > 0.0).sum())] == [21]
    rates = success_rate(q, x_a=xa)
    assert blocks[1:] == [21]
    assert rates.tolist() == report.quick_sr.tolist() == [success_rate(q.with_x_a(x)) for x in xa.tolist()]


@pytest.mark.parametrize("budget, want", [(65 * 8, [6, 8, 7, 8]), (65 * 100, [29])])
def test_success_rates_in_blocks_equal_rates_solved_alone(monkeypatch, budget, want):
    # Blocks of as many x_a as the budget holds rows of 65 nodes; the x_a
    # without a band are left out of their block's quadrature, and a block
    # without one makes none.  Every rate has the bits of its own one-x_a
    # quadrature.
    q = quick_baseline()
    xa = np.round(np.linspace(1.0, 3.0, 40), 10)
    bands = continuation_band_t3(q, x_a=xa)
    assert not np.isnan(bands).any()
    bands[[3, 4, 17, *range(24, 32)]] = np.nan
    alone = [success_rate(q.with_x_a(x), band) for x, band in zip(xa.tolist(), bands)]
    blocks = _band_quadratures(monkeypatch)
    monkeypatch.setattr(numerics, "_QUAD_BUDGET", budget)
    rates = success_rate(q, bands, x_a=xa)
    assert blocks == want
    assert rates.tolist() == alone
    assert (rates[np.isnan(bands[:, 0])] == 0.0).all() and np.count_nonzero(rates) == 29


def test_success_rates_hold_no_per_x_a_array(monkeypatch):
    # Axes of 2,000 and 4,000 x_a, solved 32 at a time.  The 2,000 more x_a
    # grow the peak by their 8-byte rates; one per-x_a array spanning the
    # axis would add as much again.  Each axis is solved once untraced, so
    # one-time allocations stay out of the peaks.
    q = quick_baseline()
    monkeypatch.setattr(numerics, "_QUAD_BUDGET", 65 * 32)
    peaks, tables = [], []
    for n in (2_000, 4_000):
        xa = np.linspace(1.5, 2.5, n)
        bands = np.column_stack([np.full(n, 1.6), 2.4 + 1e-5 * np.arange(n)])
        bands[::7] = np.nan
        success_rate(q, bands, x_a=xa)
        tracemalloc.start()
        try:
            rates = success_rate(q, bands, x_a=xa)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        tables.append(rates)
    assert peaks[1] - peaks[0] < 1.5 * (tables[1].nbytes - tables[0].nbytes)
    assert (rates[::7] == 0.0).all() and np.count_nonzero(rates) == n - len(rates[::7])


def test_participation_solves_the_htlc_root_node_in_one_call(monkeypatch):
    # The 21 x_a by 5 delays by 5 lock delays of the HTLC grid, at 34,125
    # integrand values, are one payoff_t1_with_band call and one integrate
    # call under the default budget of 131,072 values, which holds them; a
    # budget one x_a short takes them in blocks of 20 x_a.
    roots, panels = [], []
    solve, integrate = htlcgame.payoff_t1_with_band, htlcgame.integrate

    def counted(p, T, Tp, bands, x_a):
        roots.append((np.size(x_a), len(T), len(Tp)))
        return solve(p, T, Tp, bands, x_a)

    def shared(f, bracket, spec):
        panels.append(bracket)
        return integrate(f, bracket, spec)

    monkeypatch.setattr(htlcgame, "payoff_t1_with_band", counted)
    monkeypatch.setattr(htlcgame, "integrate", shared)
    xa = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    compare_participation(baseline(), quick_baseline(), xa)
    # The last call is the Quick Swap rates' band quadrature.
    assert roots == [(21, 5, 5)]
    assert panels == [Bracket(0.0, 1.0)] * 2
    roots.clear()
    panels.clear()
    monkeypatch.setattr(numerics, "_QUAD_BUDGET", 21 * 5 * 5 * 65 - 1)
    compare_participation(baseline(), quick_baseline(), xa)
    assert roots == [(20, 5, 5), (1, 5, 5)]
    assert panels == [Bracket(0.0, 1.0)] * 3
