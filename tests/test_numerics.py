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
    # One grid call, then array calls holding _LEVELS bisection midpoints
    # of every open bracket: the three brackets start together and only
    # close.
    assert calls[0] == (1, 1, 256)
    sizes = [shape[2] for shape in calls[1:]]
    assert all(len(shape) == 3 and shape[:2] == (1, 1) for shape in calls[1:])
    assert sizes[0] == 3 * numerics._LEVELS and sizes == sorted(sizes, reverse=True)
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
    # One grid call, then each refinement call is one (K, 1, R * levels)
    # call where R is the most open brackets in any row.
    assert calls[0] == (len(fs), 1, 21)
    assert calls[1] == (len(fs), 1, 3 * numerics._LEVELS)
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
    # One (K, 1, n) grid call, then (K, 1, R * levels) refinement calls;
    # every value a row sees lies on its own scan.
    assert calls[0].shape == (len(rows), 1, 21)
    assert calls[1].shape == (len(rows), 1, 3 * numerics._LEVELS)
    for x in calls:
        for scan, row in zip(scans, x):
            assert ((scan.lo <= row) & (row <= scan.hi)).all()


def _loop_brackets(g, scans, grid_points, tol, group):
    """The scan of the loop references: each group's ``np.linspace`` grid,
    in chunks of the number of columns ``find_roots`` takes.  Returns the
    scan heads, each row's scan ``lo`` (a column), each row's tolerance,
    each row's root list (None where a bracket is open), and the open
    brackets ``[row, root index, a, b, g(a), g(b)]``."""
    heads = np.asarray(scans, dtype=float)
    n_rows = len(heads) * group
    xs = np.linspace(heads[:, 0], heads[:, 1], grid_points, axis=-1)
    width = max(1, numerics._CALL_BUDGET // n_rows)
    grid = np.concatenate([np.asarray(g(xs[:, None, c:c + width]), dtype=float).reshape(n_rows, -1)
                           for c in range(0, grid_points, width)], axis=1)
    xs = np.repeat(xs, group, axis=0)
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
            live.append([k, len(roots[k]), float(xs[k, i]), float(xs[k, i + 1]), fa, fb])
            roots[k].append(None)
    return heads, xs[:, :1], tols, roots, live


def _slots(steps, n_rows):
    """Each bracket's row and its slot among its row's open brackets, and
    the most open brackets in any row."""
    rows, slots, used = [], [], [0] * n_rows
    for br in steps:
        rows.append(br[0])
        slots.append(used[br[0]])
        used[br[0]] += 1
    return rows, slots, max(used)


def _find_roots_loop(g, scans, grid_points=256, tol=1e-10, group=1):
    """Bisection of ``find_roots``' brackets as a plain Python loop, one
    midpoint per bracket and call: the reference for its roots, one list
    per row.  ``scans`` holds one ``(lo, hi)`` per group."""
    heads, lo_col, tols, roots, live = _loop_brackets(g, scans, grid_points, tol, group)
    while live:
        steps, mids = [], []
        for br in live:
            k, pos, a, b = br[:4]
            m = 0.5 * (a + b)
            if m == a or m == b or b - a <= tols[k]:
                roots[k][pos] = m
            else:
                steps.append(br)
                mids.append(m)
        if not steps:
            break
        rows, slots, width = _slots(steps, len(roots))
        padded = np.repeat(lo_col, width, axis=1)
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


def _find_roots_levels(g, scans, grid_points=256, tol=1e-10, group=1):
    """The bracket bookkeeping of ``find_roots`` as a plain Python loop.

    ``find_roots`` must match it call for call: the same ``g`` inputs, in
    the same order, and the same roots, here one list per row.  Each call
    holds, for every open bracket, bisection's next midpoints on the path
    its regula-falsi estimate r predicts (left where r < m).  The bracket
    then takes bisection's steps in order; the first step that closes it,
    or whose g(m) has not strictly the sign of its predicted side, is the
    last of the call.
    """
    heads, lo_col, tols, roots, live = _loop_brackets(g, scans, grid_points, tol, group)
    while live:
        steps = []
        for br in live:
            k, pos, a, b = br[:4]
            m = 0.5 * (a + b)
            if m == a or m == b or b - a <= tols[k]:
                roots[k][pos] = m
            else:
                steps.append(br)
        if not steps:
            break
        rows, slots, width = _slots(steps, len(roots))
        levels = max(1, min(numerics._LEVELS, numerics._CALL_BUDGET // 8 // (len(roots) * width)))
        paths = []
        for _, _, a, b, fa, fb in steps:
            r = a + (b - a) * (fa / (fa - fb))
            path = []
            for _ in range(levels):
                m = 0.5 * (a + b)
                path.append((a, b, m, r < m))
                a, b = (a, m) if r < m else (m, b)
            paths.append(path)
        padded = np.repeat(lo_col, width * levels, axis=1)
        for k, slot, path in zip(rows, slots, paths):
            for level, (_, _, m, _) in enumerate(path):
                padded[k, slot + width * level] = m
        fms = np.asarray(g(padded.reshape(len(heads), group, -1)), dtype=float).reshape(padded.shape)
        live = []
        for br, slot, path in zip(steps, slots, paths):
            k, pos = br[:2]
            for level, (a, b, m, left) in enumerate(path):
                if level and (m == a or m == b or b - a <= tols[k]):
                    roots[k][pos] = m
                    break
                fa, fm = br[4], float(fms[k, slot + width * level])
                if fa * fm < 0.0:
                    br[3], br[5] = m, fm
                else:
                    br[2], br[4] = m, fm
                if abs(fm) <= tols[k]:
                    roots[k][pos] = m
                    break
                if not (fa * fm < 0.0 if left else fa * fm > 0.0):
                    live.append(br)
                    break
            else:
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
    return (_rows(*got) if solver is find_roots else got), inputs


def _loop_cases():
    """Solves whose ``g`` calls ``find_roots`` must make as the loop
    reference does: the band solves, a bracket that ends at adjacent
    floats, and rows with their own tolerances."""
    return _band_solves() + [
        (np.sin, [(0.5, 10.5)], {"grid_points": 21}),
        (lambda x: np.copysign(1.0, x - (3e9 + 0.123)), [(1e9, 5e9)], {}),
        (lambda x: np.stack([np.sin(x[0]), x[1] - 4.0, x[2] * x[2] + 1.0, np.cos(x[3])]),
         [(0.5, 10.5)] * 3 + [(-7.0, 30.0)],
         {"grid_points": 21, "tol": [1e-10, 1e-10, 1e-10, 1e-3]}),
    ]


def _chunked_cases():
    """Solves whose scan chunks end at sign changes and exact grid roots
    under small budgets."""
    return [
        (lambda x: np.stack([np.sin(x[0]), x[1] - 4.0, x[2] * x[2] + 1.0, np.cos(x[3])]),
         [(0.5, 10.5)] * 3 + [(-7.0, 30.0)], {"grid_points": 21}),
        (_two_groups, [(0.5, 10.5), (-3.0, 9.0)], {"grid_points": 21, "group": 2}),
        (np.sin, [(0.5, 10.5)], {}),
    ]


def _edge_cases():
    """Roots that bisection reaches in unusual ways."""
    r = 1.2345
    return [
        # g is NaN on both sides of the root: the bracket's a moves right.
        (lambda x: np.where(np.abs(x - r) < 1e-3, np.nan, x - r), [(0.0, 4.0)], {}),
        # A triple root, whose |g| is below tol on a wide interval.
        (lambda x: (x - r) ** 3, [(0.0, 4.0)], {}),
        # A step as steep as the scan's spacing.
        (lambda x: np.tanh(50.0 * (x - r)), [(0.0, 4.0)], {}),
        # Float spacing near 3e9 far wider than tol, and |g| never below it.
        (lambda x: np.copysign(1.0, x - (3e9 + 0.123)), [(1e9, 5e9)], {}),
        # |g| <= tol everywhere: the first midpoint closes.
        (lambda x: 1e-12 * np.sign(x - r), [(0.0, 4.0)], {}),
        # A tolerance per row, one of them 0 (bisection to adjacent floats).
        (lambda x: np.stack([np.sin(x[0]), np.tanh(50.0 * (x[1] - r)), (x[2] - r) ** 3, np.cos(x[3])]),
         [(0.5, 10.5)] * 3 + [(-7.0, 30.0)], {"tol": [1e-3, 0.0, 1e-14, 1e-10]}),
        # A root at 3e-300, bisected to adjacent floats (g is of order 1, as
        # the reference's sign products need).
        (lambda x: np.log(x / 3e-300), [(1e-301, 1e-299)], {"tol": 0.0}),
        # Roots that crowd toward the scan's lo.
        (lambda x: np.sin(1.0 / x), [(0.01, 1.0)], {}),
    ]


def test_find_roots_calls_g_as_the_loop_reference_does():
    for g, scan, kwargs in _loop_cases():
        got, seen = _recorded(find_roots, g, scan, **kwargs)
        want, expected = _recorded(_find_roots_levels, g, scan, **kwargs)
        assert got == want
        assert len(seen) == len(expected)
        for x, y in zip(seen, expected):
            assert x.shape == y.shape and np.array_equal(x, y)


@pytest.mark.parametrize("budget", [1, 40, 600, numerics._CALL_BUDGET])
def test_find_roots_takes_the_roots_of_one_step_per_call_bisection(monkeypatch, budget):
    # Each call of g takes up to _LEVELS bisection steps of every bracket,
    # so the roots and counts are those of one midpoint per bracket and
    # call, bit for bit.
    monkeypatch.setattr(numerics, "_CALL_BUDGET", budget)
    cases = _chunked_cases() + _edge_cases()
    if budget >= 600:
        cases += _loop_cases()
    for g, scans, kwargs in cases:
        want = _find_roots_loop(g, scans, **kwargs)
        calls = []

        def recording(x):
            calls.append(np.array(x))
            return g(x)

        roots, counts = find_roots(recording, scans, **kwargs)
        assert np.array_equal(roots, [root for row in want for root in row])
        assert np.array_equal(counts, [len(row) for row in want])
        # Every point g sees lies in its row's scan.  At budgets 1 and 40 a
        # scan chunk of one column already holds more values than the budget.
        heads = np.asarray(scans, dtype=float)[:, None, None, :]
        for x in calls:
            assert ((heads[..., 0] <= x) & (x <= heads[..., 1])).all()
            assert x.size <= budget or budget < 600


def test_band_solves_keep_their_g_call_shapes():
    # The 147 rows scan each group's grid once, with a singleton delay axis,
    # in two column chunks of at most _CALL_BUDGET values; then each call
    # holds _LEVELS bisection midpoints of every row's open brackets.
    assert numerics._CALL_BUDGET // 147 == 222
    shapes = [[x.shape for x in _recorded(find_roots, g, scan, **kwargs)[1]]
              for g, scan, kwargs in _band_solves()]
    assert numerics._CALL_BUDGET // 8 // (147 * 2) >= numerics._LEVELS == 6
    assert shapes == [[(7, 1, 222), (7, 1, 34)] + [(7, 21, 12)] * 5 + [(7, 21, 6)],
                      [(1, 1, 256)] + [(1, 1, 12)] * 5]


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
    for g, scans, kwargs in _chunked_cases():
        got, seen = _recorded(find_roots, g, scans, **kwargs)
        want, expected = _recorded(_find_roots_levels, g, scans, **kwargs)
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
