import copy
import math
import pickle

import numpy as np
import pytest

from conftest import baseline
from swapsim import htlcgame, numerics
from swapsim.numerics import (
    Bracket,
    QuadratureDepthError,
    QuadratureSpec,
    find_roots,
    integrate,
)
from swapsim.pricemodel import PriceState, transition_cdf, transition_pdf


def _monomial_errors(nodes, weights, degrees):
    # Error of the rule on x^k over [-1, 1], in ulps of 2 / (k + 1).
    return [abs((weights * nodes**k).sum() - (2.0 / (k + 1) if k % 2 == 0 else 0.0))
            / np.spacing(2.0 / (k + 1)) for k in degrees]


def test_kronrod_rule_is_exact_to_degree_97():
    assert numerics._PANEL_NODES == len(numerics._KRONROD_WEIGHTS) == 2 * numerics._GL_ORDER + 1 == 65
    assert max(_monomial_errors(numerics._NODES, numerics._KRONROD_WEIGHTS, range(98))) <= 8


def test_kronrod_rule_embeds_the_32_point_gauss_rule():
    # The Gauss-Legendre nodes sit at the odd positions of the Kronrod nodes.
    gauss = numerics._NODES[1::2]
    nodes, weights = np.polynomial.legendre.leggauss(numerics._GL_ORDER)
    assert (np.abs(gauss - nodes) <= 2 * np.spacing(np.abs(nodes))).all()
    # numpy's weights are off by up to 472 ulps (5.8e-14 relative) from
    # the 80-digit ones, and their own errors on x^k reach 130 ulps.
    assert np.allclose(numerics._GAUSS_WEIGHTS, weights, rtol=1e-13, atol=0.0)
    assert max(_monomial_errors(gauss, numerics._GAUSS_WEIGHTS, range(64))) <= 8


def test_kronrod_rule_is_symmetric_with_positive_weights():
    x = numerics._NODES
    assert (np.diff(x) > 0).all() and -1.0 < x[0] and x[-1] < 1.0
    assert np.array_equal(x, -x[::-1])
    for w in (numerics._KRONROD_WEIGHTS, numerics._GAUSS_WEIGHTS):
        assert (w > 0).all() and np.array_equal(w, w[::-1])


@pytest.mark.parametrize("sigma", [0.02, 0.1])
def test_integrated_lock_density_matches_its_distribution_function(sigma):
    # On every band of the default surface's grid, the tau_a + T' density,
    # mapped onto (0, 1) as htlcgame._band_integrals maps it, integrates to
    # the difference of its closed-form distribution function.
    p = baseline(sigma)
    xa = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    bands = htlcgame.continuation_band_t2(p, np.arange(21.0), x_a=xa).reshape(-1, 2)
    bands = bands[~np.isnan(bands[:, 0])]
    h = np.tile(p.tau_a + np.arange(22.0), len(bands))[:, None]
    rows = np.repeat(bands, 22, axis=0)
    lo, width = rows[:, :1], rows[:, 1:] - rows[:, :1]
    st1 = PriceState(p.x_yb_t1)
    got = integrate(lambda u: transition_pdf(lo + u * width, st1, p.gbm, h) * width, (0.0, 1.0), htlcgame._QUAD)
    want = transition_cdf(rows[:, 1:], st1, p.gbm, h) - transition_cdf(rows[:, :1], st1, p.gbm, h)
    assert len(rows) > 1_000
    assert np.max(np.abs(got - want[:, 0])) <= 1e-14


@pytest.mark.parametrize("tol", [{"abs_tol": math.nan}, {"rel_tol": math.nan},
                                 {"abs_tol": 0.0}, {"rel_tol": -1e-9}])
def test_quadrature_spec_refuses_tolerances_not_above_zero(tol):
    # A NaN tolerance used to build a spec on which every panel fails.
    with pytest.raises(ValueError, match="tolerances must be > 0"):
        QuadratureSpec(**tol)


def test_integrate_known_values():
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    assert integrate(np.sin, Bracket(0.0, math.pi), spec) == pytest.approx(2.0, abs=1e-10)
    assert integrate(np.exp, Bracket(0.0, 1.0), spec) == pytest.approx(math.e - 1.0, abs=1e-10)


def test_integrate_handles_sharp_peak():
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)
    got = integrate(lambda x: np.exp(-((x - 0.7) ** 2) * 1e4), Bracket(0.0, 1.0), spec)
    assert got == pytest.approx(math.sqrt(math.pi) / 100.0, rel=1e-8)


def test_batched_integrate_refines_each_row_on_its_own():
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-6)
    rows = [
        lambda x: np.exp(-((x - 0.7) ** 2) * 1e4),  # sharp peak: refined deeply
        lambda x: x**1.5,                            # accepted on the first split
        np.sqrt,                                     # refined near 0
        lambda x: x**0.7,                            # accepted on the first split
        np.exp,                                      # smooth
    ]
    got = integrate(lambda x: np.stack([f(x) for f in rows]), Bracket(0.0, 1.0), spec)
    assert got.shape == (len(rows),)
    for value, f in zip(got, rows):
        # A row refined with its neighbours would move by ~1e-10 here.
        assert value == pytest.approx(integrate(f, Bracket(0.0, 1.0), spec), rel=1e-13, abs=0.0)


def test_batched_integrate_single_row_returns_array():
    got = integrate(lambda x: np.sin(x)[None, :], Bracket(0.0, math.pi))
    assert got.shape == (1,)
    assert got[0] == integrate(np.sin, Bracket(0.0, math.pi))


def test_integrate_depth_exhaustion_raises():
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-16, max_depth=3)
    with pytest.raises(QuadratureDepthError):
        integrate(lambda x: np.abs(x - 1.0 / 3.0) ** -0.4, Bracket(1e-9, 1.0), spec)


@pytest.mark.parametrize("f", [lambda x: np.sign(np.sin(1e6 * x)), lambda x: np.sin(1e8 * x)],
                         ids=["sign-change-every-3e-6", "converges-on-1e-6-panels"])
def test_integrate_stops_at_its_panel_budget(f):
    # sin(1e8 x) converges on panels of about 1e-6, of which [0, 1] holds
    # 2**21 (minutes of work): the call stops after 64 panels per level of
    # max_depth instead.  sign(sin(1e6 x)) fails at max_depth first.
    calls = []

    def counted(x):
        calls.append(1)
        return f(x)

    with pytest.raises(QuadratureDepthError, match="quadrature failed to converge"):
        integrate(counted, Bracket(0.0, 1.0))
    assert len(calls) <= numerics._PANELS_PER_DEPTH * QuadratureSpec().max_depth + 1


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0)
    with pytest.raises(ValueError):
        Bracket(1.0, 1.0)
    for bracket in ((1.0, 1.0), np.array([2.0, 1.0]), (0.0, math.nan)):
        with pytest.raises(ValueError, match="requires lo < hi"):
            integrate(np.sin, bracket)
    # integrate takes one (lo, hi) pair; a table of them is refused, also
    # one of two rows, which has the shape of a pair of pairs.
    for table in (np.array([[0.0, 1.0], [1.0, 2.0]]), np.array([[0.0, 1.0]] * 3), [Bracket(0.0, 1.0)]):
        with pytest.raises(ValueError, match=r"one \(lo, hi\) pair"):
            integrate(np.sin, table)


def _rows(roots, counts) -> list[list[float]]:
    """``find_roots``' flat roots split into one list per row."""
    return [r.tolist() for r in np.split(roots, np.cumsum(counts)[:-1])]


def test_find_roots_simple_and_double():
    roots = _rows(*find_roots(lambda x: (x - 1.0) * (x - 2.5), [Bracket(0.0, 4.0)]))[0]
    assert len(roots) == 2
    assert roots[0] == pytest.approx(1.0, abs=1e-8)
    assert roots[1] == pytest.approx(2.5, abs=1e-8)
    assert _rows(*find_roots(lambda x: x * x + 1.0, [Bracket(-3.0, 3.0)])) == [[]]


def test_find_roots_returns_flat_roots_and_per_row_counts():
    # Two groups of two rows: the scan table has one row per group.
    def g(x):
        x = np.broadcast_to(x, (2, 2, x.shape[2]))
        return np.array([[np.sin(x[0, 0]), x[0, 1] - 4.0], [x[1, 0] * x[1, 0] + 1.0, np.cos(x[1, 1])]])

    scans = np.array([[0.5, 10.5], [-7.0, 30.0]])
    roots, counts = find_roots(g, scans, grid_points=21, group=2)
    assert isinstance(roots, np.ndarray) and roots.dtype == float
    assert isinstance(counts, np.ndarray) and counts.dtype.kind == "i"
    assert counts.tolist() == [3, 1, 0, 12] and roots.shape == (16,)
    # Split by the counts, the roots are the rows solved alone, ascending.
    alone = [np.sin, lambda x: x - 4.0, lambda x: x * x + 1.0, np.cos]
    assert _rows(roots, counts) == [_rows(*find_roots(f, [scans[k // 2]], grid_points=21))[0]
                                    for k, f in enumerate(alone)]
    assert all(r == sorted(r) for r in _rows(roots, counts))
    # No groups: no roots, and no rows to count.
    roots, counts = find_roots(g, np.empty((0, 2)), group=2)
    assert roots.shape == counts.shape == (0,)


@pytest.mark.parametrize("scan", [(2.0, 0.3), (1.0, 1.0), (math.nan, 1.0), (0.5, math.nan)],
                         ids=["inverted", "empty", "nan-lo", "nan-hi"])
def test_find_roots_refuses_a_scan_row_without_lo_below_hi(scan):
    scans = np.array([(0.5, 10.5), scan])
    with pytest.raises(ValueError, match="lo < hi"):
        find_roots(np.sin, scans, grid_points=21)


def test_bracket_is_a_validated_pair():
    b = Bracket(0.5, 10.5)
    assert (b.lo, b.hi) == b == (0.5, 10.5)
    assert np.array_equal(np.asarray([b, Bracket(-7.0, 30.0)]), [[0.5, 10.5], [-7.0, 30.0]])
    assert copy.deepcopy(b) == b and type(copy.copy(b)) is Bracket
    assert pickle.loads(pickle.dumps(b)) == b


def test_find_roots_returns_sorted():
    roots = _rows(*find_roots(np.sin, [Bracket(0.5, 10.0)]))[0]
    assert roots == sorted(roots)
    assert len(roots) == 3  # pi, 2*pi, 3*pi
    for r, expect in zip(roots, (math.pi, 2 * math.pi, 3 * math.pi)):
        assert r == pytest.approx(expect, abs=1e-8)


def test_find_roots_vectorized_scan_matches_scalar_scan():
    calls = []

    def g(x):
        calls.append(np.shape(x))
        return np.sin(x)

    (roots,) = _rows(*find_roots(g, [Bracket(0.5, 10.0)]))
    # One grid call, then one array call per bisection step holding the
    # midpoints of every open bracket: the three brackets start together
    # and only close.
    assert calls[0] == (1, 1, 256)
    sizes = [shape[2] for shape in calls[1:]]
    assert all(len(shape) == 3 and shape[:2] == (1, 1) for shape in calls[1:])
    assert sizes[0] == 3 and sizes == sorted(sizes, reverse=True)
    assert len(roots) == 3
    for r, expect in zip(roots, (math.pi, 2 * math.pi, 3 * math.pi)):
        assert r == pytest.approx(expect, abs=1e-8)


def test_find_roots_rows_match_rows_solved_alone():
    scan = Bracket(0.5, 10.5)  # 21 grid points 0.5 apart
    fs = [
        lambda x: x * x + 1.0,      # no root
        np.sin,                     # three bisected roots
        lambda x: x - 4.0,          # exact root at a grid point
        lambda x: np.exp(x) - 5.0,  # one bisected root
        lambda x: x - 10.5,         # exact root at the last grid point
    ]
    calls = []

    def g(x):
        calls.append(np.shape(x))
        return np.array([f(row) for f, row in zip(fs, x)])

    got = _rows(*find_roots(g, [scan] * len(fs), grid_points=21))
    assert got == [_rows(*find_roots(f, [scan], grid_points=21))[0] for f in fs]
    assert [len(r) for r in got] == [0, 3, 1, 1, 1]
    assert got[2] == [4.0] and got[4] == [10.5]
    assert got[3][0] == pytest.approx(math.log(5.0), abs=1e-9)
    # One grid call, then each bisection step is one (K, 1, R) call where R
    # is the most open brackets in any row.
    assert calls[0] == (len(fs), 1, 21)
    assert calls[1] == (len(fs), 1, 3)
    assert all(len(shape) == 3 and shape[0] == len(fs) for shape in calls[1:])


def test_find_roots_stops_at_float_resolution():
    # Float spacing near 3e9 is ~5e-7, far wider than tol, and |g| never
    # drops below tol: bisection must stop once the bracket holds two
    # adjacent floats.
    root = 3e9 + 0.123
    (got,) = _rows(*find_roots(lambda x: np.copysign(1.0, x - root), [Bracket(1e9, 5e9)], tol=1e-10))
    assert len(got) == 1
    assert abs(got[0] - root) <= 2 * math.ulp(root)


@pytest.mark.parametrize("k", [1e-200, 1e-170, 1e150, 1e299])
def test_lock_bands_scale_with_prices_past_the_product_range(k):
    # The scan and the bisection tested signs by multiplying values: at
    # price scale 1e-160 the products underflowed and the HTLC band moved
    # to [1.0372, 2.3547], at 1e-170 both games found no band, and large
    # scales overflowed.  Zero fees: the bands scale with the prices.
    from conftest import quick_baseline
    from swapsim.quickswapgame import continuation_band_t3

    with np.errstate(all="raise"):
        for band, p, pk in [
            (htlcgame.continuation_band_t2, (baseline(), 0.0), (baseline(x_a=2 * k, x_yb_t1=2 * k), 0.0)),
            (continuation_band_t3, (quick_baseline(),), (quick_baseline(x_a=2 * k, x_yb_t1=2 * k),)),
        ]:
            assert band(*pk) / k == pytest.approx(band(*p), rel=1e-9)


def test_find_roots_per_row_scans_match_rows_solved_alone():
    # Each row scans its own grid: the scans differ by decades, and the
    # log row would warn (an error here) if an idle slot held another row's
    # negative ``lo``.
    rows = [
        (Bracket(-3.0, 3.0), lambda x: x * x + 1.0),                 # no root
        (Bracket(0.5, 10.5), np.sin),                                # three bisected roots
        (Bracket(0.5, 10.5), lambda x: x - 4.0),                     # exact root at a grid point
        (Bracket(1e3, 1e5), lambda x: 12345.678 * np.log(x / 12345.678)),
        (Bracket(1e-4, 2e-3), lambda x: np.exp(x * 1e3) - 5.0),
    ]
    scans = [scan for scan, _ in rows]
    tols = [1e-10, 1e-10, 1e-10, 1e-7, 1e-14]
    calls = []

    def g(x):
        calls.append(np.array(x))
        return np.array([f(row) for (_, f), row in zip(rows, x)])

    got = _rows(*find_roots(g, scans, grid_points=21, tol=tols))
    assert got == [_rows(*find_roots(f, [scan], grid_points=21, tol=tol))[0]
                   for (scan, f), tol in zip(rows, tols)]
    assert [len(r) for r in got] == [0, 3, 1, 1, 1]
    assert got[2] == [4.0]
    assert got[3][0] == pytest.approx(12345.678, abs=1e-6)
    assert got[4][0] == pytest.approx(math.log(5.0) * 1e-3, rel=1e-9)
    # One (K, 1, n) grid call, then one (K, 1, R) call per bisection step;
    # every value a row sees lies on its own scan.
    assert calls[0].shape == (len(rows), 1, 21)
    assert calls[1].shape == (len(rows), 1, 3)
    for x in calls:
        for scan, row in zip(scans, x):
            assert ((scan.lo <= row) & (row <= scan.hi)).all()


def _find_roots_loop(g, scans, grid_points=256, tol=1e-10, group=1):
    """The bracket bookkeeping of ``find_roots`` as a plain Python loop.

    The reference ``find_roots`` must match call for call: the same ``g``
    inputs, in the same order, and the same roots, here one list per row.
    ``scans`` holds one ``(lo, hi)`` per group.  The scan takes the
    ``np.linspace`` grid of each group in chunks of the same number of
    columns.
    """
    heads = np.asarray(scans, dtype=float)
    n_rows = len(heads) * group
    xs = np.linspace(heads[:, 0], heads[:, 1], grid_points, axis=-1)
    width = max(1, numerics._CALL_BUDGET // n_rows)
    grid = np.concatenate([np.asarray(g(xs[:, None, c:c + width]), dtype=float).reshape(n_rows, -1)
                           for c in range(0, grid_points, width)], axis=1)
    xs = np.repeat(xs, group, axis=0)
    lo_col = xs[:, :1]
    left, right = grid[:, :-1], grid[:, 1:]
    hits = (left == 0.0) | (left * right < 0.0)
    hits[:, -1] |= right[:, -1] == 0.0
    tols = np.broadcast_to(np.asarray(tol, dtype=float), len(grid)).tolist()
    roots = [[] for _ in grid]
    live = []
    for k, i in zip(*np.nonzero(hits)):
        fa, fb = float(left[k, i]), float(right[k, i])
        if fa == 0.0 or fb == 0.0:
            roots[k].append(float(xs[k, i] if fa == 0.0 else xs[k, i + 1]))
        else:
            live.append([k, len(roots[k]), float(xs[k, i]), float(xs[k, i + 1]), fa])
            roots[k].append(None)
    while live:
        steps, mids = [], []
        for br in live:
            k, pos, a, b, _ = br
            m = 0.5 * (a + b)
            if m == a or m == b or b - a <= tols[k]:
                roots[k][pos] = m
            else:
                steps.append(br)
                mids.append(m)
        if not steps:
            break
        rows, slots, used = [], [], [0] * len(grid)
        for br in steps:
            rows.append(br[0])
            slots.append(used[br[0]])
            used[br[0]] += 1
        padded = np.repeat(lo_col, max(used), axis=1)
        padded[rows, slots] = mids
        fms = np.asarray(g(padded.reshape(len(heads), group, -1)), dtype=float).reshape(padded.shape)
        fms = fms[rows, slots].tolist()
        live = []
        for br, m, fm in zip(steps, mids, fms):
            if abs(fm) <= tols[br[0]]:
                roots[br[0]][br[1]] = m
                continue
            if br[4] * fm < 0.0:
                br[3] = m
            else:
                br[2], br[4] = m, fm
            live.append(br)
    return roots


def _band_solves():
    """(g, scans, kwargs) of the band solve of 147 rows of the default
    surface (x_a 1.0 to 1.6 by 21 claim delays: 7 groups of 21 rows, scanned
    in two column chunks), and of one single-row band solve."""
    solves = []

    def capture(g, scan, **kwargs):
        solves.append((g, scan, kwargs))
        return find_roots(g, scan, **kwargs)

    p = baseline()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(htlcgame, "find_roots", capture)
        htlcgame.continuation_band_t2(p, np.arange(21.0), x_a=np.round(1.0 + 0.1 * np.arange(7), 10))
        htlcgame.continuation_band_t2(p, 0.0)
    return solves


def _recorded(solver, g, scan, **kwargs):
    """``solver``'s roots, one list per row, and the inputs it gave ``g``."""
    inputs = []

    def recording(x):
        inputs.append(np.array(x))
        return g(x)

    got = solver(recording, scan, **kwargs)
    return (got if solver is _find_roots_loop else _rows(*got)), inputs


def test_find_roots_calls_g_as_the_loop_reference_does():
    cases = _band_solves() + [
        (np.sin, [(0.5, 10.5)], {"grid_points": 21}),
        (lambda x: np.copysign(1.0, x - (3e9 + 0.123)), [(1e9, 5e9)], {}),
        (lambda x: np.stack([np.sin(x[0]), x[1] - 4.0, x[2] * x[2] + 1.0, np.cos(x[3])]),
         [(0.5, 10.5)] * 3 + [(-7.0, 30.0)],
         {"grid_points": 21, "tol": [1e-10, 1e-10, 1e-10, 1e-3]}),
    ]
    for g, scan, kwargs in cases:
        got, seen = _recorded(find_roots, g, scan, **kwargs)
        want, expected = _recorded(_find_roots_loop, g, scan, **kwargs)
        assert got == want
        assert len(seen) == len(expected)
        for x, y in zip(seen, expected):
            assert x.shape == y.shape and np.array_equal(x, y)


def test_band_solves_keep_their_g_call_shapes():
    # The 147 rows scan each group's grid once, with a singleton delay axis,
    # in two column chunks of at most _CALL_BUDGET values; then one call per
    # bisection step on the most open brackets of any row, for all rows.
    assert numerics._CALL_BUDGET // 147 == 222
    shapes = [[x.shape for x in _recorded(find_roots, g, scan, **kwargs)[1]]
              for g, scan, kwargs in _band_solves()]
    assert shapes == [[(7, 1, 222), (7, 1, 34)] + [(7, 21, 2)] * 28 + [(7, 21, 1)],
                      [(1, 1, 256)] + [(1, 1, 2)] * 26 + [(1, 1, 1)] * 2]


def _two_groups(x):
    """Two groups of two rows, each row its own function of its group's
    points: x - 4 and 4 - x (exact grid roots), sin x, and x - 9 (a root on
    the last grid point of its scan)."""
    x = np.broadcast_to(x, (2, 2, x.shape[2]))
    return np.array([[x[0, 0] - 4.0, 4.0 - x[0, 1]], [np.sin(x[1, 0]), x[1, 1] - 9.0]])


@pytest.mark.parametrize("budget", [1, 40, 600])
def test_find_roots_chunked_scan_matches_the_loop_reference(monkeypatch, budget):
    # Narrow chunks put sign changes and exact grid roots on chunk
    # boundaries; at budget 1 every chunk is one column.
    monkeypatch.setattr(numerics, "_CALL_BUDGET", budget)
    cases = [
        (lambda x: np.stack([np.sin(x[0]), x[1] - 4.0, x[2] * x[2] + 1.0, np.cos(x[3])]),
         [(0.5, 10.5)] * 3 + [(-7.0, 30.0)], {"grid_points": 21}),
        (_two_groups, [(0.5, 10.5), (-3.0, 9.0)], {"grid_points": 21, "group": 2}),
        (np.sin, [(0.5, 10.5)], {}),
    ]
    for g, scans, kwargs in cases:
        got, seen = _recorded(find_roots, g, scans, **kwargs)
        want, expected = _recorded(_find_roots_loop, g, scans, **kwargs)
        assert got == want
        assert len(seen) == len(expected)
        for x, y in zip(seen, expected):
            assert x.shape == y.shape and np.array_equal(x, y)
        # The scan's chunks hold at most the budget, but at least one column.
        rows = len(scans) * kwargs.get("group", 1)
        width = max(1, budget // rows)
        grid = kwargs.get("grid_points", 256)
        assert [x.shape[2] for x in seen[:-(-grid // width)]] == [
            min(width, grid - c) for c in range(0, grid, width)]
