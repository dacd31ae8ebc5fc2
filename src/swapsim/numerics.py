"""Adaptive quadrature and bracketed root scanning shared by the game solvers.

Integrands are smooth log-normal mixtures, so the workhorse is a fixed-order
Gauss-Legendre rule applied per panel, with adaptive bisection only at the
outermost level.  Integrands must accept numpy arrays (evaluated on the node
vector of each panel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def fixed_gauss(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float):
    """Single-panel Gauss-Legendre estimate; no adaptivity, no error control.

    Returns a float, or one estimate per row when ``f`` returns a (K, n) array.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    vals = np.asarray(f(mid + half * _GL_NODES), dtype=float)
    est = half * np.dot(vals, _GL_WEIGHTS)
    return float(est) if vals.ndim == 1 else est


def integrate(f: Callable[[np.ndarray], np.ndarray], bracket: Bracket, spec: QuadratureSpec = QuadratureSpec()):
    """Adaptive panel-bisection quadrature over the bracket.

    A panel is accepted when its whole-panel estimate agrees with the sum of
    its two halves within the (locally scaled) tolerance; otherwise both
    halves are refined.  Deterministic for a given integrand and spec.

    ``f`` maps the (n,) node vector to (n,) values, and then a float is
    returned; or to a (K, n) array of K integrands over the same bracket, and
    then a length-K array is returned.  Each row has its own scale,
    acceptance test and refinement, so row k equals the scalar result for
    row k alone (up to rounding); only rows that fail a panel are refined.
    """
    first = fixed_gauss(f, bracket.lo, bracket.hi)
    whole = np.atleast_1d(first)
    bound = np.maximum(spec.abs_tol, spec.rel_tol * np.maximum(np.abs(whole), 1.0e-300))

    def recurse(lo: float, hi: float, whole: np.ndarray, rows: np.ndarray, depth: int) -> np.ndarray:
        mid = 0.5 * (lo + hi)
        left = np.atleast_1d(fixed_gauss(f, lo, mid))[rows]
        right = np.atleast_1d(fixed_gauss(f, mid, hi))[rows]
        out = left + right
        err = np.abs(whole - out)
        failed = ~(err <= bound[rows] * (hi - lo) / bracket.width)
        if failed.any():
            if depth >= spec.max_depth:
                raise QuadratureDepthError(
                    f"quadrature failed to converge on [{lo}, {hi}] at depth {depth} "
                    f"(err={np.max(err[failed]):.3e})"
                )
            sub = rows[failed]
            out[failed] = (recurse(lo, mid, left[failed], sub, depth + 1)
                           + recurse(mid, hi, right[failed], sub, depth + 1))
        return out

    result = recurse(bracket.lo, bracket.hi, whole, np.arange(len(whole)), 0)
    return result if np.ndim(first) else float(result[0])


def find_roots(
    g: Callable,
    scan: Bracket,
    grid_points: int = 256,
    tol: float = 1e-10,
) -> list[float] | list[list[float]]:
    """Scan a uniform grid for sign changes and bisect each to tolerance.

    Grid points that are exact roots are returned directly.  Returns an
    ascending list; empty when no sign change is found.  ``g`` is called on
    arrays: on the (n,) grid it returns (n,) values, or a (K, n) array of K
    functions sharing the grid, and then one root list per row is returned.

    All open brackets of all rows bisect in lockstep: each step is one call
    of ``g`` on the midpoints, an (R,) array for a one-row ``g`` and (K, R)
    for K rows, where R is the most open brackets in any row (idle slots
    hold ``scan.lo``; their values are discarded).  A bracket returns its
    midpoint once the midpoint equals an endpoint (adjacent floats), the
    bracket is at most ``tol`` wide, or |g(midpoint)| <= tol.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    xs = np.linspace(scan.lo, scan.hi, grid_points)
    vals = np.asarray(g(xs), dtype=float)
    if vals.shape[-1:] != xs.shape or vals.ndim > 2:
        raise ValueError(f"g returned shape {vals.shape}, expected (n,) or (K, n) for n={len(xs)}")
    grid = np.atleast_2d(vals)
    left, right = grid[:, :-1], grid[:, 1:]
    hits = (left == 0.0) | (left * right < 0.0)
    hits[:, -1] |= right[:, -1] == 0.0
    roots: list[list] = [[] for _ in grid]
    # Open brackets as [row, index in roots[row], a, b, g(a)].  The few
    # brackets per step are cheaper to track in Python than in numpy.
    live = []
    for k, i in zip(*np.nonzero(hits)):
        fa, fb = float(left[k, i]), float(right[k, i])
        if fa == 0.0 or fb == 0.0:
            roots[k].append(float(xs[i] if fa == 0.0 else xs[i + 1]))
        else:
            live.append([k, len(roots[k]), float(xs[i]), float(xs[i + 1]), fa])
            roots[k].append(None)
    while live:
        steps, mids = [], []
        for br in live:
            k, pos, a, b, _ = br
            m = 0.5 * (a + b)
            # Adjacent floats: the bracket cannot shrink further, even when
            # the float spacing at the root exceeds ``tol`` (large price scales).
            if m == a or m == b or b - a <= tol:
                roots[k][pos] = m
            else:
                steps.append(br)
                mids.append(m)
        if not steps:
            break
        if vals.ndim == 1:
            fms = np.asarray(g(np.array(mids)), dtype=float).tolist()
        else:
            rows = [br[0] for br in steps]
            slots = [j - rows.index(k) for j, k in enumerate(rows)]  # rows ascend
            padded = np.full((len(grid), max(slots) + 1), scan.lo)
            padded[rows, slots] = mids
            fms = np.asarray(g(padded), dtype=float)[rows, slots].tolist()
        live = []
        for br, m, fm in zip(steps, mids, fms):
            if abs(fm) <= tol:
                roots[br[0]][br[1]] = m
                continue
            if br[4] * fm < 0.0:
                br[3] = m
            else:
                br[2], br[4] = m, fm
            live.append(br)
    return roots if vals.ndim == 2 else roots[0]
