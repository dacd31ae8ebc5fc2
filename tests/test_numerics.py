import math

import numpy as np
import pytest

from swapsim.numerics import (
    Bracket,
    QuadratureDepthError,
    QuadratureSpec,
    fixed_gauss,
    find_roots,
    integrate,
)


def test_fixed_gauss_exact_on_polynomials():
    # 32-point Gauss-Legendre is exact up to degree 63.
    got = fixed_gauss(lambda x: 3 * x**2 + x, 0.0, 2.0)
    assert got == pytest.approx(8.0 + 2.0, abs=1e-12)


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


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0)
    with pytest.raises(ValueError):
        Bracket(1.0, 1.0)


def test_find_roots_simple_and_double():
    roots = find_roots(lambda x: (x - 1.0) * (x - 2.5), Bracket(0.0, 4.0))
    assert len(roots) == 2
    assert roots[0] == pytest.approx(1.0, abs=1e-8)
    assert roots[1] == pytest.approx(2.5, abs=1e-8)
    assert find_roots(lambda x: x * x + 1.0, Bracket(-3.0, 3.0)) == []


def test_find_roots_returns_sorted():
    roots = find_roots(np.sin, Bracket(0.5, 10.0))
    assert roots == sorted(roots)
    assert len(roots) == 3  # pi, 2*pi, 3*pi
    for r, expect in zip(roots, (math.pi, 2 * math.pi, 3 * math.pi)):
        assert r == pytest.approx(expect, abs=1e-8)


def test_find_roots_vectorized_scan_matches_scalar_scan():
    calls = []

    def g(x):
        calls.append(np.shape(x))
        return np.sin(x)

    roots = find_roots(g, Bracket(0.5, 10.0))
    # One grid call, then one array call per bisection step holding the
    # midpoints of every open bracket: the three brackets start together
    # and only close.
    assert calls[0] == (256,)
    sizes = [shape[0] for shape in calls[1:]]
    assert all(len(shape) == 1 for shape in calls[1:])
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
        rows = np.broadcast_to(x, (len(fs),) + np.shape(x)[-1:])
        return np.array([f(row) for f, row in zip(fs, rows)])

    got = find_roots(g, scan, grid_points=21)
    assert got == [find_roots(f, scan, grid_points=21) for f in fs]
    assert [len(r) for r in got] == [0, 3, 1, 1, 1]
    assert got[2] == [4.0] and got[4] == [10.5]
    assert got[3][0] == pytest.approx(math.log(5.0), abs=1e-9)
    # One grid call, then each bisection step is one (K, R) call where R is
    # the most open brackets in any row.
    assert calls[0] == (21,)
    assert calls[1] == (len(fs), 3)
    assert all(len(shape) == 2 and shape[0] == len(fs) for shape in calls[1:])


def test_find_roots_stops_at_float_resolution():
    # Float spacing near 3e9 is ~5e-7, far wider than tol, and |g| never
    # drops below tol: bisection must stop once the bracket holds two
    # adjacent floats.
    root = 3e9 + 0.123
    got = find_roots(lambda x: np.copysign(1.0, x - root), Bracket(1e9, 5e9), tol=1e-10)
    assert len(got) == 1
    assert abs(got[0] - root) <= 2 * math.ulp(root)
