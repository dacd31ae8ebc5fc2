"""Adaptive quadrature and bracketed root scanning shared by the game solvers.

Integrands are smooth log-normal mixtures, so the workhorse is the 65-point
Gauss-Kronrod extension of the 32-point Gauss-Legendre rule: each panel is
evaluated once on the 65 nodes, the Kronrod estimate is returned, and its
distance from the embedded Gauss estimate decides whether the panel is
bisected.  Integrands must accept numpy arrays (evaluated on the node vector
of each panel).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "Bracket",
    "QuadratureDepthError",
    "integrate",
    "find_roots",
]

# Order of the embedded Gauss-Legendre rule.  Kept at 32 so that the rule
# is not tuned to one volatility: on the default surface grid a 20-point
# rule (41 nodes) evaluates 0.42M integrand values at sigma 0.1 against
# 0.67M for this one, but 1.32M against 0.94M at sigma 0.02, where its
# panels refine.
_GL_ORDER = 32
# Nodes and weights on [-1, 1] of the 2 * _GL_ORDER + 1 point Gauss-Kronrod
# rule (Laurie, Math. Comp. 66, 1997), exact for polynomials of degree 97:
# the non-negative nodes, ascending, with their Kronrod weights, and the
# Gauss weights of the nodes at odd positions (the Gauss-Legendre nodes).
# Computed in 80-digit arithmetic and rounded to the nearest double.
_HALF_NODES = np.array([
    0.0, 0.04830766568773832, 0.09650269687689436, 0.1444719615827965, 0.1921036089831425,
    0.23928736225213706, 0.28591245858945974, 0.33186860228212767, 0.3770494211541211,
    0.42135127613063533, 0.4646693084819922, 0.5068999089322294, 0.5479463141991525,
    0.5877157572407623, 0.626112937701824, 0.6630442669302152, 0.6984265577952105,
    0.7321821187402897, 0.7642282519978038, 0.7944837959679424, 0.8228829501360513,
    0.84936761373257, 0.8738697689453107, 0.8963211557660521, 0.9166772666513643,
    0.9349060759377397, 0.9509546848486612, 0.9647622555875064, 0.9763102836146638,
    0.9856115115452684, 0.9926280352629719, 0.9972638618494816, 0.9995459021243644,
])
_HALF_KRONROD_WEIGHTS = np.array([
    0.04832638398656776, 0.04827019307577739, 0.04810096918545775, 0.04781890873698847,
    0.04742606187388238, 0.046922968281703614, 0.046308756738025716, 0.04558582656454707,
    0.04475863874976694, 0.04382754403013975, 0.042791115596446744, 0.041654019985643054,
    0.0404234923703731, 0.03909942013330661, 0.0376791306456134, 0.0361697694756423,
    0.03458212274473303, 0.0329150776439036, 0.031163325561973737, 0.02933695668962066,
    0.027452098422210403, 0.025505695480894652, 0.023486659672163325, 0.021408913184821916,
    0.01929877143032681, 0.017149805209784253, 0.014936103606086028, 0.012676054806654402,
    0.010423987398806818, 0.008172504038531668, 0.005841737079166694, 0.003426818775772371,
    0.001223360817951472,
])
_HALF_GAUSS_WEIGHTS = np.array([
    0.0965400885147278, 0.09563872007927486, 0.09384439908080457, 0.09117387869576389,
    0.08765209300440381, 0.08331192422694675, 0.07819389578707031, 0.0723457941088485,
    0.06582222277636185, 0.058684093478535544, 0.050998059262376175, 0.04283589802222668,
    0.03427386291302143, 0.02539206530926206, 0.01627439473090567, 0.007018610009470096,
])
_NODES = np.concatenate([-_HALF_NODES[:0:-1], _HALF_NODES])
_KRONROD_WEIGHTS = np.concatenate([_HALF_KRONROD_WEIGHTS[:0:-1], _HALF_KRONROD_WEIGHTS])
_GAUSS_WEIGHTS = np.concatenate([_HALF_GAUSS_WEIGHTS[::-1], _HALF_GAUSS_WEIGHTS])
# Integrand values per row of one panel; callers size their blocks by it.
_PANEL_NODES = len(_NODES)
# Panels an ``integrate`` call may evaluate per level of max_depth (workloads use <= 3).
_PANELS_PER_DEPTH = 64
# Rows whose products ``_panel`` forms at a time: a product as large as a
# root-node block's values (480 KB at one x_a of the default surface) makes
# glibc trim and refault its heap.
_SUM_ROWS = 256


class QuadratureDepthError(RuntimeError):
    """Raised when adaptive refinement exhausts max_depth before converging."""


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_depth: int = 24

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):  # NaN included
            raise ValueError("tolerances must be > 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


class Bracket(namedtuple("Bracket", "lo hi")):
    """A ``(lo, hi)`` pair with ``lo < hi``, the form of every interval here."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float) -> Bracket:
        if not lo < hi:
            raise ValueError(f"bracket requires lo < hi, got [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)


def _panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> tuple:
    """Kronrod and embedded Gauss estimates of every row on the panel [lo, hi].

    ``f`` maps the (n,) nodes to (n,) values, and two floats are returned,
    or to (K, n) values, and two (K,) arrays.  Each estimate is the numpy
    sum of its own row, formed ``_SUM_ROWS`` rows at a time, whose bits do
    not depend on the other rows (a BLAS dot product does not give that).
    """
    half = 0.5 * (hi - lo)
    vals = np.asarray(f(0.5 * (hi + lo) + half * _NODES), dtype=float)
    table = np.atleast_2d(vals)
    sums = np.empty((2, len(table)))
    for k in range(0, len(table), _SUM_ROWS):
        block = table[k:k + _SUM_ROWS]
        sums[:, k:k + _SUM_ROWS] = ((block * _KRONROD_WEIGHTS).sum(axis=1),
                                    (block[:, 1::2] * _GAUSS_WEIGHTS).sum(axis=1))
    return tuple(half * sums.reshape((2,) + vals.shape[:-1]))


def integrate(f: Callable[[np.ndarray], np.ndarray], bracket,
              spec: QuadratureSpec = QuadratureSpec()):
    """Adaptive panel-bisection Gauss-Kronrod quadrature over one bracket.

    A panel is evaluated once, on the 65 nodes of the Kronrod rule, and is
    accepted when its Kronrod and embedded 32-point Gauss estimates agree
    within the (locally scaled) tolerance; then its Kronrod estimate is
    returned.  Otherwise both halves are refined the same way.
    Deterministic for a given integrand and spec.

    ``bracket`` is one ``(lo, hi)`` pair: a tuple, a ``Bracket`` or a (2,)
    array.  ``f`` maps the (n,) node vector to (n,) values, and then a
    float is returned; or to a (K, n) array of K integrands, and then a
    length-K array is returned.  Each row has its own scale, acceptance
    test and refinement, so row k equals the result for row k alone bit for
    bit.  Only rows that fail a panel are refined, but ``f`` evaluates
    every row on each panel.
    Raises ``QuadratureDepthError`` when a row fails at ``max_depth``, or after
    ``_PANELS_PER_DEPTH * max_depth`` panels (not 2**(max_depth + 1) of them).
    """
    ends = np.asarray(bracket, dtype=float)
    if ends.shape != (2,):
        raise ValueError(f"integrate takes one (lo, hi) pair, got an array of shape {ends.shape}")
    lo, hi = Bracket(*ends.tolist())
    width = hi - lo
    first = _panel(f, lo, hi)
    whole = np.atleast_1d(first[0])
    bound = np.maximum(spec.abs_tol, spec.rel_tol * np.maximum(np.abs(whole), 1.0e-300))
    panels = [1]

    def settle(lo: float, hi: float, estimates: tuple, rows: np.ndarray, depth: int) -> np.ndarray:
        # Kronrod estimates of ``rows`` on [lo, hi], failing rows bisected.
        kronrod, gauss = (np.atleast_1d(v)[rows] for v in estimates)
        err = np.abs(kronrod - gauss)
        failed = ~(err <= bound[rows] * (hi - lo) / width)
        if failed.any():
            if depth >= spec.max_depth or panels[0] >= _PANELS_PER_DEPTH * spec.max_depth:
                raise QuadratureDepthError(
                    f"quadrature failed to converge on [{lo}, {hi}] at depth {depth} "
                    f"after {panels[0]} panels (err={np.max(err[failed]):.3e})"
                )
            panels[0] += 2
            sub, mid = rows[failed], 0.5 * (lo + hi)
            kronrod[failed] = (settle(lo, mid, _panel(f, lo, mid), sub, depth + 1)
                               + settle(mid, hi, _panel(f, mid, hi), sub, depth + 1))
        return kronrod

    try:
        result = settle(lo, hi, first, np.arange(len(whole)), 0)
    finally:
        # ``settle`` refers to itself; without the cycle the integrand and
        # the arrays it holds are freed now, not at the next collection.
        del settle
    return result if np.ndim(first[0]) else float(result[0])


# Most values one call of a root function computes.  ``find_roots`` scans K
# rows in chunks of max(1, _CALL_BUDGET // K) grid columns, so it never holds
# a K x grid_points table.  Its refinement calls take as many bisection
# levels as fit _CALL_BUDGET / 8 values (at least one, at most _LEVELS), and
# the band solver puts at most _CALL_BUDGET / 8 rows in one lockstep.  2**15
# is the 128 x 256 block that the band solver once scanned at a time.
_CALL_BUDGET = 1 << 15
# Most integrand values per quantity of one band-quadrature block, the x_a
# blocks of ``htlcgame.sr_surface`` and ``quickswapgame.success_rate``: about
# 1 MB per float array, 4 x_a of the default surface (30,030 values each), so
# its root node makes 6 calls.  With fixed bands, that root node (best of 45
# runs, 2-CPU x86 host) in blocks of 1, 2, 3, 4 and all 21 x_a took 20.4,
# 17.4, 15.7, 15.5 and 14.8 ms at traced peaks of 0.92, 1.68, 2.45, 3.21 and 16.1 MB.  The band
# solver keeps _CALL_BUDGET: at 2**16 its 10,000-row solve in
# test_band_solve_holds_no_rows_by_grid_table peaks at 6.3 MB traced, past
# that test's bound of 5.12 MB.
_QUAD_BUDGET = 1 << 17
# Most bisection levels one refinement call takes.  On quickswap-sr's and
# montecarlo's four band solves, 6 and 9 were the fastest of 3 to 12 (best
# of 25 runs 6.7 ms, against 8.1 ms at 3 and 7.1 ms at 12).
_LEVELS = 6


def _opposite(x, y):
    """Where ``x`` and ``y`` have opposite signs, neither 0 nor NaN.  Their
    product would underflow to 0 or overflow at extreme price scales."""
    return ((x < 0.0) & (y > 0.0)) | ((x > 0.0) & (y < 0.0))


def find_roots(
    g: Callable,
    scans,
    grid_points: int = 256,
    tol: float | Sequence[float] = 1e-10,
    group: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Scan a uniform grid per row for sign changes and bisect each to tolerance.

    ``scans`` is a (G, 2) table of ``(lo, hi)`` pairs, one scan per group of
    ``group`` rows: ``g`` maps the (G, 1, n) grid points of the G groups, or
    the (G, group, n) points of every row, to (G, group, n) values.  Returns
    every row's roots in one array, row by row and ascending, and the
    (G * group,) count of each row's roots.  Grid points that are exact
    roots are returned directly.  ``tol`` is one tolerance, or one per row.

    Grid point i of a group is ``i * step + lo``, and the last one ``hi``,
    bit for bit as ``np.linspace`` places them.  The scan runs in chunks of
    grid columns, one ``g`` call of at most ``_CALL_BUDGET`` values each (at
    least one column), and keeps only the sign changes it finds.  Then all
    open brackets of all rows bisect in lockstep.  A bracket returns its
    midpoint once the midpoint equals an endpoint (adjacent floats), the
    bracket is at most ``tol`` wide, or |g(midpoint)| <= tol.

    Each refinement call takes up to D bisection steps of every bracket,
    D = max(1, min(_LEVELS, (_CALL_BUDGET // 8) // slots)) for the call's
    slots, rows times R, where R is the most open brackets in any row.  It
    is one (G, group, R * D) call of ``g`` on bisection's next D midpoints
    along the path the regula-falsi estimate predicts (idle slots hold the
    row's own scan ``lo``; their values are discarded).  Each bracket then
    takes the steps in order, with bisection's own update and stop rules,
    and the first step that closes it or whose g(midpoint) has not strictly
    the sign of its predicted side is the last of the call.  So every
    midpoint a bracket takes is the one bisection would evaluate, and the
    roots are those of one bisection step per call, bit for bit.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if group < 1:
        raise ValueError(f"group must be >= 1, got {group}")
    lo, hi = np.asarray(scans, dtype=float).T
    if not np.all(lo < hi):
        raise ValueError("every scan requires lo < hi")
    n_groups, n_rows = len(lo), len(lo) * group
    if not n_rows:
        return np.empty(0), np.zeros(0, dtype=np.intp)
    shape = (n_groups, group, -1)
    step = (hi - lo) / (grid_points - 1)
    # Each chunk's sign changes: row, left grid index, ends, and g at both.
    parts = []
    width = max(1, _CALL_BUDGET // n_rows)
    prev_x, prev_f = np.empty((n_groups, 0)), np.empty((n_rows, 0))
    for first in range(0, grid_points, width):
        stop = min(first + width, grid_points)
        x = np.arange(first, stop, dtype=float) * step[:, None] + lo[:, None]
        if stop == grid_points:
            x[:, -1] = hi
        f = np.asarray(g(x[:, None, :]), dtype=float)
        if f.shape != (n_groups, group, stop - first):
            raise ValueError(f"g returned shape {f.shape}, expected {(n_groups, group, stop - first)}")
        # The pair across the chunk boundary starts at the previous last column.
        x, f = np.hstack([prev_x, x]), np.hstack([prev_f, f.reshape(n_rows, -1)])
        prev_x, prev_f = x[:, -1:], f[:, -1:]
        left, right = f[:, :-1], f[:, 1:]
        hits = (left == 0.0) | _opposite(left, right)
        if stop == grid_points:
            hits[:, -1] |= right[:, -1] == 0.0
        rows, cols = np.nonzero(hits)
        head = rows // group
        parts.append((rows, cols + stop - x.shape[1], x[head, cols], x[head, cols + 1],
                      left[rows, cols], right[rows, cols]))
    rows, cols, a, b, fa, fb = map(np.concatenate, zip(*parts))
    # Every sign change in row-major order: its row, and its root in ``found``.
    order = np.lexsort((cols, rows))
    rows, a, b, fa, fb = (v[order] for v in (rows, a, b, fa, fb))
    found = np.where(fa == 0.0, a, b)
    counts = np.bincount(rows, minlength=n_rows)
    # Open brackets, one array entry each; ``rows`` stays ascending.
    live = (fa != 0.0) & (fb != 0.0)
    rows, pos = rows[live], np.flatnonzero(live)
    a, b, fa, fb = a[live], b[live], fa[live], fb[live]
    tl = np.broadcast_to(np.asarray(tol, dtype=float), n_rows)[rows]
    lo_col = np.repeat(lo, group)[:, None]
    while rows.size:
        m = 0.5 * (a + b)
        # Adjacent floats: the bracket cannot shrink further, even when
        # the float spacing at the root exceeds ``tol`` (large price scales).
        done = (m == a) | (m == b) | (b - a <= tl)
        if done.any():
            found[pos[done]] = m[done]
            go = ~done
            rows, pos, a, b, fa, fb, tl = (v[go] for v in (rows, pos, a, b, fa, fb, tl))
            if not rows.size:
                break
        # Slot of each bracket among its row's open brackets.
        n = len(rows)
        slots = np.arange(n) - np.searchsorted(rows, rows)
        width = slots.max() + 1
        levels = max(1, min(_LEVELS, _CALL_BUDGET // 8 // (n_rows * width)))
        # Bisection's own brackets of the next ``levels`` steps, on the path
        # that the regula-falsi estimate r predicts: left where r < m.  r
        # only steers the guess; no root is taken from it.
        with np.errstate(all="ignore"):
            r = a + (b - a) * (fa / (fa - fb))
        ea, eb = np.empty((2, levels, n))
        ea[0], eb[0] = a, b
        for k in range(1, levels):
            mk = 0.5 * (ea[k - 1] + eb[k - 1])
            left = r < mk
            ea[k] = np.where(left, ea[k - 1], mk)
            eb[k] = np.where(left, mk, eb[k - 1])
        mids = 0.5 * (ea + eb)
        left = r < mids
        # Level k of slot s is column s + k * width of its row.
        flat = (rows * (width * levels) + slots) + (width * np.arange(levels))[:, None]
        padded = np.repeat(lo_col, width * levels, axis=1)
        padded.ravel()[flat] = mids
        fm = np.asarray(g(padded.reshape(shape)), dtype=float).reshape(padded.size)[flat]
        # g at each level's ends while the path holds.
        fa_at, fb_at = np.empty((2, levels, n))
        fa_at[0], fb_at[0] = fa, fb
        for k in range(1, levels):
            fa_at[k] = np.where(left[k - 1], fa_at[k - 1], fm[k - 1])
            fb_at[k] = np.where(left[k - 1], fm[k - 1], fb_at[k - 1])
        # A level is passed while g(m) has strictly the sign of its predicted
        # side (against g at a, which keeps fa's sign) and does not close it,
        # and the next level is not closed by the rules above.
        sign = np.sign(fa)
        go = (np.sign(fm) * np.where(left, -sign, sign) > 0.0) & (np.abs(fm) > tl)
        go[:-1] &= (mids[1:] != ea[1:]) & (mids[1:] != eb[1:]) & (eb[1:] - ea[1:] > tl)
        go[-1] = False
        # The first level not passed is the last taken: bisection's update.
        at = np.argmin(go, axis=0) * n + np.arange(n)
        m, f, fa_m = mids.take(at), fm.take(at), fa_at.take(at)
        left_of = _opposite(fa_m, f)
        a, fa = np.where(left_of, ea.take(at), m), np.where(left_of, fa_m, f)
        b, fb = np.where(left_of, m, eb.take(at)), np.where(left_of, f, fb_at.take(at))
        done = np.abs(f) <= tl
        if done.any():
            found[pos[done]] = m[done]
            go = ~done
            rows, pos, a, b, fa, fb, tl = (v[go] for v in (rows, pos, a, b, fa, fb, tl))
    return found, counts
