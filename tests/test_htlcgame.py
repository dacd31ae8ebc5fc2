import math

import numpy as np
import pytest

from conftest import baseline
from swapsim import htlcgame
from swapsim.htlcgame import (
    SwapParams,
    claim_threshold_t3,
    continuation_band_t2,
    payoff_t1_with_band,
    payoff_t2,
    payoff_t3,
    sr_surface,
    success_rate,
)
from swapsim.numerics import Bracket, QuadratureSpec, integrate
from swapsim.pricemodel import PriceState, transition_cdf, transition_pdf


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
    """The closed-form continuation value equals the defining integral."""
    p = baseline()
    x_star = claim_threshold_t3(p)
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9)
    lam = p.tau_b  # zero claim delay
    u_claim_b = payoff_t3(p, 1.0, "continue")[1]  # constant in the t3 price
    slope = math.exp((p.gbm.mu - p.r_b) * p.t_b)
    for price_t2 in (1.6, 2.0, 2.4):
        st = PriceState(price_t2)

        def claim_part(x):
            return u_claim_b * transition_pdf(x, st, p.gbm, lam)

        def refund_part(x):
            # A refunds; B unlocks after its full locktime.
            return (x * slope - p.f_b) * transition_pdf(x, st, p.gbm, lam)

        honest = (integrate(refund_part, Bracket(1e-3, x_star), spec)
                  + integrate(claim_part, Bracket(x_star, 12.0), spec))
        outside = price_t2 * math.exp(p.gbm.mu * lam) * slope - p.f_b
        direct = math.exp(-p.r_b * lam) * (
            p.theta_1 * honest + (1 - p.theta_1) * outside
        )
        u_cont_b = payoff_t2(p, price_t2, 0.0)[1]
        assert u_cont_b == pytest.approx(direct, rel=1e-6)


def test_continuation_band_brackets_root_crossings():
    p = baseline()
    band = continuation_band_t2(p, 0.0)
    assert band is not None
    lo, hi = band.lo, band.hi
    g = lambda x: payoff_t2(p, x, 0.0)[1] - payoff_t2(p, x, 0.0)[3]
    # Inside the band B prefers locking; at the edges it is indifferent.
    assert g(0.5 * (lo + hi)) > 0
    assert abs(g(lo)) <= 1e-6 and abs(g(hi)) <= 1e-6
    assert lo < p.x_yb_t1 < hi


def test_band_edges_match_brute_force():
    p = baseline()
    band = continuation_band_t2(p, 0.0)
    g = lambda x: payoff_t2(p, x, 0.0)[1] - payoff_t2(p, x, 0.0)[3]
    lo = _brute_force_threshold(g, 0.5, 0.5 * (band.lo + band.hi))
    hi = _brute_force_threshold(g, 0.5 * (band.lo + band.hi), 6.0)
    assert band.lo == pytest.approx(lo, abs=1e-6)
    assert band.hi == pytest.approx(hi, abs=1e-6)


@pytest.mark.parametrize("case, p, scan", [
    ("sigma 0.05", baseline(0.05), None),
    ("sigma 0.1", baseline(), None),
    ("sigma 0.2", baseline(0.2), None),
    ("uniform delay discounting", baseline(uniform_delay_discounting=True), None),
    ("empty band row", baseline(r_b=0.01, theta_1=0.3), None),
    ("narrow scan", baseline(), Bracket(0.3, 2.0)),
])
def test_band_rows_match_single_delay_solves(case, p, scan):
    ts = np.arange(21.0)
    rows = continuation_band_t2(p, ts, scan)
    # Bracket equality compares both edges exactly.
    assert rows == [continuation_band_t2(p, float(T), scan) for T in ts]
    if case == "empty band row":
        assert rows[0] is not None and all(b is None for b in rows[1:])
    elif case == "narrow scan":
        # Rows whose band reaches past the scan edge are solved again on a
        # wider scan; the rest keep the first scan.
        assert {b.hi > scan.hi for b in rows} == {True, False}
    else:
        assert all(b is not None for b in rows)


def test_band_rows_share_one_scan(monkeypatch):
    calls = []
    u_b = htlcgame._u_B_cont_t2

    def counted(p, price, T):
        calls.append(np.shape(price))
        return u_b(p, price, T)

    monkeypatch.setattr(htlcgame, "_u_B_cont_t2", counted)
    p = baseline()
    bands = continuation_band_t2(p, np.linspace(0.0, p.claim_delay_window, 21))
    assert all(b is not None for b in bands)
    assert len(calls) <= 60


def test_root_payoff_rows_match_single_row_calls():
    p = baseline(0.2)
    ts = np.array([0.0, 5.0, 10.0, 20.0])
    tps = np.array([0.0, 7.0, 21.0])
    bands = continuation_band_t2(p, ts)
    assert all(b is not None for b in bands)
    bands[1] = bands[3] = None
    u_cont, u_stop = payoff_t1_with_band(p, ts, tps, bands)
    assert u_cont.shape == u_stop.shape == (len(ts), len(tps))
    exit_value = (p.x_a - p.f_a) * math.exp(-p.r_a * p.tau_a)
    for k, (T, band) in enumerate(zip(ts, bands)):
        one_cont, one_stop = payoff_t1_with_band(p, [T], tps, [band])
        np.testing.assert_allclose(u_cont[k], one_cont[0], rtol=0.0, atol=1e-12)
        assert np.array_equal(u_stop[k], one_stop[0])
        if band is None:
            assert (u_cont[k] == exit_value).all()
        else:
            assert (u_cont[k] != exit_value).all()


def test_root_payoff_branch_weights_sum_to_one(monkeypatch):
    # With no discounting and a t2 value equal to A's exit value, the root
    # value is the exit value times the branch weights: theta_2 * (band mass
    # + mass_outside) + (1 - theta_2).  It stays the exit value on every row
    # only if the mapped band integral and mass_outside sum to one.
    p = baseline(0.2, r_a=0.0, quad=QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12))
    exit_value = p.x_a - p.f_a
    monkeypatch.setattr(htlcgame, "_u_A_cont_t2", lambda q, price, T: np.full(np.shape(price), exit_value))
    ts = np.array([0.0, 10.0, 20.0])
    tps = np.array([0.0, 7.0, 21.0])
    bands = continuation_band_t2(p, ts)
    assert all(b is not None for b in bands)
    u_cont, _ = payoff_t1_with_band(p, ts, tps, bands)
    np.testing.assert_allclose(u_cont, exit_value, rtol=0.0, atol=1e-10)


def test_unwilling_counterparty_kills_participation():
    p = baseline(theta_2=0.0)
    assert success_rate(p, 0.0, 0.0) is None


def test_literal_discounted_stop_never_participates():
    p = baseline(t1_stop_value="discounted")
    for x_a in np.linspace(1.0, 3.0, 11):
        assert success_rate(p.with_x_a(float(x_a)), 0.0, 0.0) is None


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
    assert band is not None
    assert band.lo < band.hi


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
    with pytest.raises(ValueError):
        baseline(t1_stop_value="bogus")


def _oracle_surface(p, xa, ts, tps):
    """Per-cell success rates from scalar quadrature, one T' at a time.

    Returns the raw surface (NaN where A never starts) and the number of
    integrand calls of every integral (3 means no panel was refined).
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
        if q.t1_stop_value == "principal":
            stop_t2 = q.x_a - q.f_a
        else:
            stop_t2 = q.x_a * math.exp(-q.r_a * q.t_a) - q.f_a
        stop_t1 = stop_t2 * math.exp(-q.r_a * q.tau_a)
        st1 = PriceState(q.x_yb_t1)
        x_star = claim_threshold_t3(q)
        for j, T in enumerate(ts):
            band = continuation_band_t2(q, T)
            u_a_t2 = np.vectorize(lambda x: payoff_t2(q, x, T)[0])
            claimed = np.vectorize(
                lambda x: 1.0 - transition_cdf(x_star, PriceState(x), q.gbm, q.tau_b + T))
            for k, Tp in enumerate(tps):
                h = q.tau_a + Tp
                if band is None:
                    u_cont = stop_t1
                else:
                    cont = counted_integrate(
                        lambda x: transition_pdf(x, st1, q.gbm, h) * u_a_t2(x), band, q.quad)
                    outside = (1.0 - transition_cdf(band.hi, st1, q.gbm, h)
                               + transition_cdf(band.lo, st1, q.gbm, h))
                    u_cont = q.theta_2 * (cont * math.exp(-q.r_a * h) + outside * stop_t1) \
                        + (1.0 - q.theta_2) * stop_t1
                if u_cont < q.x_a:
                    continue
                if band is None:
                    raw[i, j, k] = 0.0
                    continue
                raw[i, j, k] = max(0.0, counted_integrate(
                    lambda x: q.theta_2 * transition_pdf(x, st1, q.gbm, h) * q.theta_1 * claimed(x),
                    band, q.quad))
    return raw, calls


@pytest.mark.parametrize("case, p", [
    ("sigma 0.05", baseline(0.05)),
    ("sigma 0.2", baseline(0.2)),
    ("discounted root stop", baseline(t1_stop_value="discounted")),
    ("uniform delay discounting", baseline(uniform_delay_discounting=True)),
    ("empty band", baseline(theta_1=0.0, r_a=0.0)),
    ("tight quadrature", baseline(0.02, quad=QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12))),
])
def test_surface_matches_per_cell_oracle(case, p):
    xa, ts, tps = [1.6, 2.0, 2.4], [0.0, 10.0, 20.0], [0.0, 7.0, 14.0, 21.0]
    grid = sr_surface(p, xa, ts, tps)
    want, calls = _oracle_surface(p, xa, ts, tps)
    assert np.array_equal(grid.na_mask, np.isnan(want))
    assert np.array_equal(np.isnan(grid.raw), np.isnan(want))
    assert np.nanmax(np.abs(grid.raw - want), initial=0.0) <= 1e-12
    if case == "discounted root stop":
        assert grid.na_mask.all()
    elif case == "empty band":
        assert continuation_band_t2(p, 0.0) is None
        assert (grid.raw == 0.0).all()
    else:
        assert np.nanmax(grid.raw) > 0.0
    if case == "tight quadrature":
        # Some integrals refine and some do not, so rows of one batched
        # integral take different refinement paths.
        assert min(calls) == 3 < max(calls)


@pytest.mark.parametrize("k", [1e-6, 1e-3, 1e6, 1e9])
def test_thresholds_and_success_rate_scale_with_prices(k):
    # With zero fees every payoff is homogeneous in the prices: scaling them
    # by k scales the thresholds by k and leaves the success rate unchanged.
    p, pk = baseline(), baseline(x_a=2.0 * k, x_yb_t1=2.0 * k)
    assert claim_threshold_t3(pk) / k == pytest.approx(claim_threshold_t3(p), rel=1e-12)
    for T, Tp in [(0.0, 0.0), (5.0, 7.0)]:
        band, band_k = continuation_band_t2(p, T), continuation_band_t2(pk, T)
        assert band_k.lo / k == pytest.approx(band.lo, rel=1e-9)
        assert band_k.hi / k == pytest.approx(band.hi, rel=1e-9)
        assert success_rate(pk, T, Tp) == pytest.approx(success_rate(p, T, Tp), abs=1e-9)
