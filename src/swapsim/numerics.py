"""Adaptive quadrature and bracketed root scanning shared by the game solvers.

Integrands are smooth log-normal mixtures, so the workhorse is a fixed-order
Gauss-Legendre rule applied per panel, with adaptive bisection only at the
outermost level.  Integrands must accept numpy arrays (evaluated on the node
vector of each panel).
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
    "fixed_gauss",
    "find_roots",
]

# Nodes/weights on [-1, 1]; order 32 keeps the inner (non-adaptive) level cheap.
_GL_ORDER = 32
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


class QuadratureDepthError(RuntimeError):
    """Raised when adaptive refinement exhausts max_depth before converging."""


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_depth: int = 24

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0:
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


def fixed_gauss(f: Callable[[np.ndarray], np.ndarray], lo, hi):
    """Single-panel Gauss-Legendre estimate; no adaptivity, no error control.

    ``lo`` and ``hi`` are floats, and ``f`` maps the (n,) nodes to (n,)
    values (a float is returned) or to a (K, n) array (one estimate per
    row); or they are (K,) arrays of per-row panel ends, and ``f`` maps the
    (K, n) nodes, row k on [lo[k], hi[k]], to (K, n) values.  Each estimate
    is the numpy sum of its own row, whose bits do not depend on the other
    rows (a BLAS dot product of a (K, n) table does not give that).
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    if np.ndim(half):
        half, mid = half[:, None], mid[:, None]
    vals = np.asarray(f(mid + half * _GL_NODES), dtype=float)
    est = np.reshape(half, -1) * (vals * _GL_WEIGHTS).sum(axis=-1)
    return float(est[0]) if vals.ndim == 1 else est


def integrate(f: Callable[[np.ndarray], np.ndarray], bracket,
              spec: QuadratureSpec = QuadratureSpec()):
    """Adaptive panel-bisection quadrature over the bracket.

    A panel is accepted when its whole-panel estimate agrees with the sum of
    its two halves within the (locally scaled) tolerance; otherwise both
    halves are refined.  Deterministic for a given integrand and spec.

    With one ``(lo, hi)`` pair, ``f`` maps the (n,) node vector to (n,)
    values, and then a float is returned; or to a (K, n) array of K
    integrands over the same bracket, and then a length-K array is returned.
    With a (K, 2) table of pairs, one per row, ``f`` maps a (K, n) node
    array, row k on a panel of its own bracket, to (K, n) values, and a
    length-K array is returned.  Each row has its own scale, acceptance
    test and refinement, on panels that split its own bracket as a lone call
    would, so row k equals the result for row k alone bit for bit.  Only rows that
    fail a panel are refined, but ``f`` evaluates every row on each panel.
    """
    lo, hi = np.asarray(bracket, dtype=float).T
    if not np.all(lo < hi):
        raise ValueError("every bracket requires lo < hi")
    width = hi - lo
    first = fixed_gauss(f, lo, hi)
    whole = np.atleast_1d(first)
    bound = np.maximum(spec.abs_tol, spec.rel_tol * np.maximum(np.abs(whole), 1.0e-300))

    def at(v, rows):
        # Per-row panel ends are arrays; shared ones are floats.
        return v[rows] if np.ndim(v) else v

    def recurse(lo, hi, whole: np.ndarray, rows: np.ndarray, depth: int) -> np.ndarray:
        mid = 0.5 * (lo + hi)
        left = np.atleast_1d(fixed_gauss(f, lo, mid))[rows]
        right = np.atleast_1d(fixed_gauss(f, mid, hi))[rows]
        out = left + right
        err = np.abs(whole - out)
        failed = ~(err <= bound[rows] * at(hi - lo, rows) / at(width, rows))
        if failed.any():
            if depth >= spec.max_depth:
                k = rows[failed][0]
                raise QuadratureDepthError(
                    f"quadrature failed to converge on [{at(lo, k)}, {at(hi, k)}] at depth {depth} "
                    f"(err={np.max(err[failed]):.3e})"
                )
            sub = rows[failed]
            out[failed] = (recurse(lo, mid, left[failed], sub, depth + 1)
                           + recurse(mid, hi, right[failed], sub, depth + 1))
        return out

    try:
        result = recurse(lo, hi, whole, np.arange(len(whole)), 0)
    finally:
        # ``recurse`` refers to itself; without the cycle the integrand and
        # the arrays it holds are freed now, not at the next collection.
        del recurse
    return result if np.ndim(first) else float(result[0])


# Most values one call of a root function computes.  ``find_roots`` scans K
# rows in chunks of max(1, _CALL_BUDGET // K) grid columns, so it never holds
# a K x grid_points table, and the band solver puts at most _CALL_BUDGET / 8
# rows in one lockstep.  2**15 is the 128 x 256 block that the band solver
# once scanned at a time.
_CALL_BUDGET = 1 << 15


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
    open brackets of all rows bisect in lockstep: each step is one
    (G, group, R) call of ``g`` on the midpoints, where R is the most open
    brackets in any row (idle slots hold the row's own scan ``lo``; their
    values are discarded).  A bracket returns its midpoint once the midpoint
    equals an endpoint (adjacent floats), the bracket is at most ``tol``
    wide, or |g(midpoint)| <= tol.
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
        hits = (left == 0.0) | (left * right < 0.0)
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
    a, b, fa = a[live], b[live], fa[live]
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
            rows, pos, a, b, fa, tl, m = (v[go] for v in (rows, pos, a, b, fa, tl, m))
            if not rows.size:
                break
        # Slot of each bracket among its row's open brackets.
        slots = np.arange(len(rows)) - np.searchsorted(rows, rows)
        padded = np.repeat(lo_col, slots.max() + 1, axis=1)
        padded[rows, slots] = m
        fm = np.asarray(g(padded.reshape(shape)), dtype=float).reshape(padded.shape)[rows, slots]
        left_of = fa * fm < 0.0
        b = np.where(left_of, m, b)
        a = np.where(left_of, a, m)
        fa = np.where(left_of, fa, fm)
        done = np.abs(fm) <= tl
        if done.any():
            found[pos[done]] = m[done]
            go = ~done
            rows, pos, a, b, fa, tl = (v[go] for v in (rows, pos, a, b, fa, tl))
    return found, counts
