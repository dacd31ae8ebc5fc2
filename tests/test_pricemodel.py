import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swapsim.numerics import Bracket, QuadratureSpec, integrate
from swapsim.pricemodel import (
    GbmParams,
    PriceState,
    cdf_from,
    erfc,
    expected_price,
    partial_expectation_below,
    pe_below_from,
    sample_endpoints,
    sample_path,
    transition_cdf,
    transition_pdf,
)

GBM = GbmParams(mu=0.002, sigma=0.1)
STATE = PriceState(2.0)


def test_erfc_identities():
    assert abs(erfc(0.0) - 1.0) <= 1e-12
    for x in (-2.0, -0.5, 0.3, 1.7):
        assert abs(erfc(x) + erfc(-x) - 2.0) <= 1e-12
    arr = np.array([-1.0, 0.0, 1.0])
    np.testing.assert_allclose(erfc(arr) + erfc(-arr), 2.0, atol=1e-12)


def test_erfc_array_path_matches_math_erfc_bit_for_bit():
    xs = np.linspace(-6.0, 6.0, 97)
    out = erfc(xs)
    assert out.dtype == np.float64 and out.shape == xs.shape
    assert out.tolist() == [math.erfc(x) for x in xs.tolist()]
    for x in (-1.3, 0.0, 0.7, 5.5):
        assert erfc(x) == math.erfc(x)
        one = erfc(np.array([x]))
        assert one.shape == (1,) and one[0] == math.erfc(x)
        zero_d = erfc(np.array(x))
        assert zero_d.shape == () and float(zero_d) == math.erfc(x)
    empty = erfc(np.empty((0, 3)))
    assert empty.shape == (0, 3) and empty.dtype == np.float64


def test_transition_cdf_float_target_matches_one_element_array():
    for x0 in np.linspace(0.5, 4.0, 40):
        state = PriceState(float(x0))
        for lam in (3.0, 24.0):
            scalar = transition_cdf(2.5, state, GBM, lam)
            assert isinstance(scalar, float)
            assert scalar == transition_cdf(np.array([2.5]), state, GBM, lam)[0]


def test_import_swapsim_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, swapsim; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pdf_normalizes_to_one():
    lam = 24.0
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    total = integrate(lambda x: transition_pdf(x, STATE, GBM, lam), Bracket(1e-6, 50.0), spec)
    assert abs(total - 1.0) <= 1e-8


def test_pdf_and_cdf_broadcast_over_horizons():
    prices = np.linspace(1.0, 3.0, 7)
    lams = np.array([3.0, 10.0, 24.0])
    pdf = transition_pdf(prices, STATE, GBM, lams[:, None])
    cdf = transition_cdf(2.5, STATE, GBM, lams)
    assert pdf.shape == (3, 7) and cdf.shape == (3,)
    for k, lam in enumerate(lams):
        np.testing.assert_allclose(pdf[k], transition_pdf(prices, STATE, GBM, float(lam)), rtol=1e-14)
        assert cdf[k] == pytest.approx(transition_cdf(2.5, STATE, GBM, float(lam)), rel=1e-14)
    with pytest.raises(ValueError):
        transition_cdf(2.5, STATE, GBM, np.array([3.0, 0.0]))


def test_cdf_is_pdf_antiderivative():
    lam = 12.0
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    for target in (1.2, 1.9, 2.0, 2.4, 3.5):
        mass = integrate(lambda x: transition_pdf(x, STATE, GBM, lam), Bracket(1e-6, target), spec)
        assert abs(mass - transition_cdf(target, STATE, GBM, lam)) <= 1e-6


def test_cdf_limits_and_monotonicity():
    lam = 6.0
    assert transition_cdf(1e-9, STATE, GBM, lam) <= 1e-12
    assert transition_cdf(1e6, STATE, GBM, lam) >= 1.0 - 1e-12
    xs = np.linspace(0.5, 5.0, 40)
    cs = transition_cdf(xs, STATE, GBM, lam)
    assert np.all(np.diff(cs) >= 0)


def test_partial_expectation_matches_quadrature():
    lam = 12.0
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    k = 2.2
    num = integrate(lambda x: x * transition_pdf(x, STATE, GBM, lam), Bracket(1e-6, k), spec)
    assert abs(num - partial_expectation_below(k, STATE, GBM, lam)) <= 1e-8


def test_kernels_broadcast_over_start_prices_bit_for_bit():
    # As the game solvers call them: one target, (m,) start prices and a
    # scalar horizon or a (K, 1) horizon column.  Entry i equals the public
    # function called from start i.
    starts = np.linspace(0.5, 4.0, 9)
    target = np.array([2.5])
    for lam in (3.0, np.array([[3.0], [24.0]])):
        cdf = cdf_from(target, starts, GBM, lam)
        pe = pe_below_from(target, starts, GBM, lam)
        for i, x0 in enumerate(starts):
            state = PriceState(float(x0))
            assert np.array_equal(cdf[..., i], transition_cdf(target, state, GBM, lam)[..., 0])
            assert np.array_equal(pe[..., i], partial_expectation_below(target, state, GBM, lam)[..., 0])


def test_gbm_ensemble_mean_within_three_se():
    lam = 24.0
    n = 100_000
    ends = sample_endpoints(STATE, GBM, lam, n, np.random.default_rng(12345))
    se = ends.std(ddof=1) / math.sqrt(n)
    assert abs(ends.mean() - expected_price(STATE, GBM, lam)) <= 3.0 * se


def test_sample_path_shape_and_positivity():
    path = sample_path(STATE, GBM, horizon=24.0, step=0.5, seed=1)
    assert len(path) == 49
    assert all(p.value > 0 for p in path)
    assert path[0] is STATE
    assert path[-1].at_time == pytest.approx(24.0)


def test_degenerate_sigma_rejected_for_densities():
    flat = GbmParams(mu=0.002, sigma=0.0)
    with pytest.raises(ValueError):
        transition_pdf(2.0, STATE, flat, 1.0)
    # The deterministic mean is still fine.
    assert expected_price(STATE, flat, 10.0) == pytest.approx(2.0 * math.exp(0.02))


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        GbmParams(mu=math.nan, sigma=0.1)
    with pytest.raises(ValueError):
        GbmParams(mu=0.0, sigma=-0.1)
    with pytest.raises(ValueError):
        PriceState(0.0)
    for law in (transition_cdf, partial_expectation_below):
        for target, params, lam in [
            (2.0, GBM, -1.0),
            (2.0, GBM, np.array([3.0, 0.0])),
            (0.0, GBM, 3.0),
            (np.array([1.0, -2.0]), GBM, 3.0),
            (2.0, GbmParams(mu=0.002, sigma=0.0), 3.0),
        ]:
            with pytest.raises(ValueError):
                law(target, STATE, params, lam)
