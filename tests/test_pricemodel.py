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
    erfc,
    expected_price,
    law_terms,
    sample_endpoints,
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


def _ulps(got: float, want: float) -> float:
    """|got - want| in units of the last place of ``want`` (of the least
    subnormal below the normal range)."""
    return abs(got - want) / max(math.ulp(want), math.ulp(0.0))


def test_erfc_array_path_matches_scalar_path_bit_for_bit():
    xs = np.linspace(-6.0, 6.0, 97)
    out = erfc(xs)
    assert out.dtype == np.float64 and out.shape == xs.shape
    assert out.tolist() == [erfc(x) for x in xs.tolist()]
    # The kernel is not math.erfc; each is within 3 ulp of the correctly
    # rounded value, so the two are within 6 of each other.
    assert max(_ulps(got, math.erfc(x)) for got, x in zip(out.tolist(), xs.tolist())) <= 6.0
    for x in (-1.3, 0.0, 0.7, 5.5):
        assert isinstance(erfc(x), float)
        one = erfc(np.array([x]))
        assert one.shape == (1,) and one[0] == erfc(x)
        zero_d = erfc(np.array(x))
        assert zero_d.shape == () and float(zero_d) == erfc(x)
    empty = erfc(np.empty((0, 3)))
    assert empty.shape == (0, 3) and empty.dtype == np.float64


# erfc at nodes (k + 1/2)/512 of the kernel's table and between them, from
# mpmath at 50 digits, printed to 40.
ERFC_REFERENCE = [
    ((0 + 0.5) / 512, "0.9988980675699281852958287465038814263062"),
    ((1 + 0.5) / 512, "0.9966942111168404314234716112134238245986"),
    ((255 + 0.5) / 512, "0.4803587271988112131515930793536741724733"),
    ((511 + 0.5) / 512, "0.1577049814718971111514081500022656247068"),
    ((1023 + 0.5) / 512, "0.004697957048020856679428904335783883413593"),
    ((2047 + 0.5) / 512, "0.00000001554174972172999040843134913133886208801"),
    ((3071 + 0.5) / 512, "2.177683595376069824063576229280736750773e-17"),
    ((6143 + 0.5) / 512, "1.388534879659108917509154675037759981332e-64"),
    ((9215 + 0.5) / 512, "6.300340511896966421844855100400659771774e-143"),
    ((12287 + 0.5) / 512, "1.728187460131797897398274196580962373176e-252"),
    ((13311 + 0.5) / 512, "5.958421308164020258314466800597938376667e-296"),
    ((13823 + 0.5) / 512, "5.520827170089366781075463076183691972891e-319"),
    ((13951 + 0.5) / 512, "7.048550811494661502479676551176138913142e-325"),
    (-(0 + 0.5) / 512, "1.001101932430071814704171253496118573694"),
    (-(767 + 0.5) / 512, "1.96598883335433394060443581972342755488"),
    (-(1535 + 0.5) / 512, "1.999977773114550837438198234759664438821"),
    (-(2303 + 0.5) / 512, "1.999999999801607306892743397668819039398"),
    (-(3011 + 0.5) / 512, "1.999999999999999910669800427478787575804"),
    (-6.0, "1.999999999999999978480263287501086883407"),
    (-5.9, "1.999999999999999928095902164495222751437"),
    (-5.75, "1.999999999999999576786338257426237405328"),
    (-4.321, "1.999999999008775011588439886397117664503"),
    (-2.5, "1.99959304798255504106043578426002508728"),
    (-1.0, "1.842700792949714869341220635082609259296"),
    (-0.3, "1.328626759459127416189617985318203033258"),
    (-1e-300, "1.0"),
    (0.0, "1.0"),
    (1e-300, "1.0"),
    (1e-10, "0.9999999998871620832904487384998269898448"),
    (0.1, "0.8875370839817151015952877489856959382766"),
    (0.4769362762044699, "0.4999999999999999960248452465221402103522"),
    (0.75, "0.2888443663464848684010621654085892226258"),
    (1.0, "0.1572992070502851306587793649173907407039"),
    (1.5, "0.03389485352468927293302373835405214131859"),
    (2.0, "0.004677734981047265837930743632747071389108"),
    (3.0, "0.00002209049699858544137277612958232037984771"),
    (4.4, "0.0000000004891710270605872747773277994014403493768"),
    (5.9, "7.19040978355047772485632794421758084048e-17"),
    (6.0, "2.151973671249891311659335039918738463048e-17"),
    (8.25, "1.873566470550499707861653117702631450777e-31"),
    (10.0, "2.088487583762544757000786294957788611561e-45"),
    (13.7, "1.26131583374087485971701917583579590005e-83"),
    (17.3, "3.409266382045084197428207793791757917286e-132"),
    (20.0, "5.395865611607900928934999167905345604088e-176"),
    (22.2, "2.327770371311052551464317838148309826232e-216"),
    (24.5, "4.749361264067378997552878283177710144873e-263"),
    (25.9, "1.020283318473266719563227205657763164119e-293"),
    (26.0, "5.663192408856142846475727896926092580329e-296"),
    (26.5, "2.210907664263734275929239022915826039075e-307"),
    (26.54, "2.645558174468510575182807060509794761305e-308"),
    (26.55, "1.555202694113550649772973874703003788234e-308"),
    (26.6, "1.088512588544226533171755847545714672449e-309"),
    (26.9, "1.152240567263921887384116666159013671501e-316"),
    (27.0, "5.237048923789255685016067682849547090934e-319"),
    (27.2, "1.018904914270315539514233756707666469508e-323"),
    (27.22, "3.428694222673063753546166901605056615934e-324"),
    (27.23, "1.988364974232362857355726961141235634941e-324"),
    (27.25, "6.682983668375116746155531292938360850894e-325"),
    (27.3, "4.361512551339108465124861416200987089974e-326"),
]


def test_erfc_is_within_its_bound_of_reference_values():
    # Within 3 ulp of the correctly rounded value, subnormals included, with
    # no floating-point flag; the saturated values are exact.
    xs = np.array([x for x, _ in ERFC_REFERENCE])
    want = [float(ref) for _, ref in ERFC_REFERENCE]
    with np.errstate(all="raise"):
        got = erfc(xs)
        assert got.tolist() == [erfc(x) for x in xs.tolist()]
        special = erfc(np.array([-6.0, -5.9, -50.0, -np.inf, 0.0, -0.0, 27.25, 27.3, 50.0, np.inf, np.nan]))
    assert max(_ulps(g, w) for g, w in zip(got.tolist(), want)) <= 3.0
    assert special[:10].tolist() == [2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert math.isnan(special[10]) and math.isnan(erfc(math.nan))


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
    assert abs(num - law_terms(k, STATE.value, GBM, pe=(lam,))[1][0]) <= 1e-8


def test_kernels_broadcast_over_start_prices_bit_for_bit():
    # As the game solvers call them: one target, (m,) start prices and a
    # scalar horizon or a (K, 1) horizon column.  Entry i equals the public
    # CDF, and the partial expectation from the scalar start price, at start i.
    starts = np.linspace(0.5, 4.0, 9)
    target = np.array([2.5])
    for lam in (3.0, np.array([[3.0], [24.0]])):
        (cdf,), (pe,) = law_terms(target, starts, GBM, cdf=(lam,), pe=(lam,))
        for i, x0 in enumerate(starts):
            state = PriceState(float(x0))
            assert np.array_equal(cdf[..., i], transition_cdf(target, state, GBM, lam)[..., 0])
            assert np.array_equal(pe[..., i], law_terms(target, state.value, GBM, pe=(lam,))[1][0][..., 0])


def test_gbm_ensemble_mean_within_three_se():
    lam = 24.0
    n = 100_000
    ends = sample_endpoints(STATE, GBM, lam, n, np.random.default_rng(12345))
    se = ends.std(ddof=1) / math.sqrt(n)
    assert abs(ends.mean() - expected_price(STATE, GBM, lam)) <= 3.0 * se


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
    for law in (transition_cdf, transition_pdf):
        for target, params, lam in [
            (2.0, GBM, -1.0),
            (2.0, GBM, np.array([3.0, 0.0])),
            (0.0, GBM, 3.0),
            (np.array([1.0, -2.0]), GBM, 3.0),
            (2.0, GbmParams(mu=0.002, sigma=0.0), 3.0),
        ]:
            with pytest.raises(ValueError):
                law(target, STATE, params, lam)


def test_kernels_take_their_step_limits_at_zero_spread():
    # Over zero hours, or with no volatility, the price law is a point: the
    # CDF steps from 0 to 1 and the partial expectation from 0 to the price
    # there, with no division warning.  Rows of positive spread keep the bits
    # of a call without the zero rows.
    targets = np.array([1.5, 2.0, 2.5])
    lam = np.array([[0.0], [3.0]])
    (cdf,), (pe,) = law_terms(targets, 2.0, GBM, cdf=(lam,), pe=(lam,))
    assert cdf[0].tolist() == [0.0, 1.0, 1.0] and pe[0].tolist() == [0.0, 2.0, 2.0]
    (cdf_3,), (pe_3,) = law_terms(targets, 2.0, GBM, cdf=(3.0,), pe=(3.0,))
    assert np.array_equal(cdf[1], cdf_3) and np.array_equal(pe[1], pe_3)
    still = GbmParams(mu=0.002, sigma=0.0)
    at = 2.0 * math.exp(0.002 * 50.0)
    (cdf,), (pe,) = law_terms(np.array([at * 0.99, at * 1.01]), 2.0, still, cdf=(50.0,), pe=(50.0,))
    assert cdf.tolist() == [0.0, 1.0] and pe.tolist() == [0.0, at]


def test_kernels_are_zero_below_a_target_at_or_below_zero():
    # A target <= 0 lies below every price: both kernels are exactly 0 there,
    # with no log warning, at zero spread too, and the positive targets of
    # the same call keep the bits of a call without the others.
    targets = np.array([[-1.5], [0.0], [-0.0], [2.5]])
    starts = np.linspace(0.5, 4.0, 9)
    for params, lam in ((GBM, 3.0), (GBM, np.array([[[0.0]], [[3.0]]])), (GbmParams(0.002, 0.0), 3.0)):
        (cdf,), (pe,) = law_terms(targets, starts, params, cdf=(lam,), pe=(lam,))
        assert not cdf[..., :3, :].any() and not pe[..., :3, :].any()
        (cdf_pos,), (pe_pos,) = law_terms(targets[3:], starts, params, cdf=(lam,), pe=(lam,))
        assert np.array_equal(cdf[..., 3:, :], cdf_pos) and np.array_equal(pe[..., 3:, :], pe_pos)
    assert law_terms(-1.0, 2.0, GBM, cdf=(3.0,))[0][0] == 0.0 and law_terms(0.0, 2.0, GBM, pe=(3.0,))[1][0] == 0.0
