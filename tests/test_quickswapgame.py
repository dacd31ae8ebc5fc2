import math

import numpy as np
import pytest

from conftest import baseline, quick_baseline
from swapsim.numerics import Bracket
from swapsim.quickswapgame import (
    QuickSwapParams,
    claim_threshold_t4,
    compare_participation,
    continuation_band_t3,
    payoff_t3,
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
    assert q.cost(2.0, 24.0) == pytest.approx(q.rho * 48.0, rel=1e-12)


def test_timing_invariants_enforced():
    with pytest.raises(ValueError):
        quick_baseline(D=5.0)            # D <= tau_a + tau_b
    with pytest.raises(ValueError):
        quick_baseline(D=23.0, Delta=2.0)  # D + Delta >= t_b
    with pytest.raises(ValueError):
        quick_baseline(rho=-0.1)


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
    _, cancel_b = payoff_t3(q, 2.0, "cancel")
    _, stop_b = payoff_t3(q, 2.0, "stop")
    assert cancel_b > stop_b


def test_lock_band_brackets_and_brute_force():
    q = quick_baseline()
    band = continuation_band_t3(q)
    assert band is not None
    g = lambda x: payoff_t3(q, x, "continue")[1] - payoff_t3(q, x, "cancel")[1]
    assert g(0.5 * (band.lo + band.hi)) > 0
    lo = _brute_force_threshold(g, 0.5, 0.5 * (band.lo + band.hi))
    hi = _brute_force_threshold(g, 0.5 * (band.lo + band.hi), 6.0)
    assert band.lo == pytest.approx(lo, abs=1e-6)
    assert band.hi == pytest.approx(hi, abs=1e-6)


def test_thresholds_snapshot():
    q = quick_baseline()
    band = continuation_band_t3(q)
    assert band is not None
    assert band.lo < q.base.x_yb_t1 < band.hi


def test_success_rate_baseline():
    q = quick_baseline()
    raw = success_rate(q)
    norm = q.base.theta_1 * q.base.theta_2
    assert 0.0 < raw <= norm
    assert raw / norm == pytest.approx(0.751, abs=5e-3)


def test_success_rate_zero_when_band_empty():
    # A near-worthless principal leaves B no price at which locking pays.
    q = quick_baseline().with_x_a(0.05)
    assert continuation_band_t3(q) is None
    assert success_rate(q) == 0.0


@pytest.mark.parametrize("k", [1e-6, 1e-3, 1e6, 1e9])
def test_success_rate_invariant_under_price_scaling(k):
    # Zero fees: the premium and every payoff scale with the prices, so the
    # thresholds scale by k and the success rate is unchanged.
    scaled = quick_baseline(x_a=2.0 * k, x_yb_t1=2.0 * k)
    assert success_rate(scaled) == pytest.approx(success_rate(quick_baseline()), abs=1e-9)
    assert claim_threshold_t4(scaled) / k == pytest.approx(claim_threshold_t4(quick_baseline()), rel=1e-12)
    band, band_k = continuation_band_t3(quick_baseline()), continuation_band_t3(scaled)
    assert band_k.lo / k == pytest.approx(band.lo, rel=1e-9)
    assert band_k.hi / k == pytest.approx(band.hi, rel=1e-9)


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.2])
def test_lock_band_widens_a_narrow_scan(sigma):
    # The band reaches past the scan's upper edge, so the scan is widened
    # until both roots lie inside; the roots then agree with the default
    # scan's to the bisection tolerance.
    q = quick_baseline(sigma)
    scan = Bracket(0.3, 2.0)
    band, want = continuation_band_t3(q, scan), continuation_band_t3(q)
    assert band.hi > scan.hi
    assert band.lo == pytest.approx(want.lo, abs=1e-8)
    assert band.hi == pytest.approx(want.hi, abs=1e-8)


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
