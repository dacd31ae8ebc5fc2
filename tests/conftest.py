"""Shared baseline parameter sets for the test suite."""

import numpy as np

from swapsim import htlcgame
from swapsim.htlcgame import SwapParams
from swapsim.pricemodel import GbmParams
from swapsim.quickswapgame import QuickSwapParams


def baseline(sigma: float = 0.1, **overrides) -> SwapParams:
    """Reference configuration used throughout: x(y_b,t1)=2, 48h/24h locks."""
    kwargs = dict(
        x_a=2.0, x_yb_t1=2.0, t_a=48.0, t_b=24.0,
        tau_a=3.0, tau_b=3.0, t_eps=1.0, eps=1.0,
        sp_a=0.3, sp_b=0.3, r_a=0.005, r_b=0.005,
        f_a=0.0, f_b=0.0, theta_1=0.5, theta_2=0.5,
        gbm=GbmParams(mu=0.002, sigma=sigma),
    )
    kwargs.update(overrides)
    return SwapParams(**kwargs)


def quick_baseline(sigma: float = 0.1, **overrides) -> QuickSwapParams:
    quick_keys = {"D", "Delta", "rho"}
    quick_kwargs = {k: overrides.pop(k) for k in list(overrides) if k in quick_keys}
    return QuickSwapParams(base=baseline(sigma, **overrides), **quick_kwargs)


def start_scans_at(monkeypatch, scan) -> None:
    """Start every band solve of either game from the ``(lo, hi)`` pair
    ``scan`` for each x_a, in place of its default scan; a band that reaches
    past it still widens it."""
    default = htlcgame._scan_brackets
    monkeypatch.setattr(htlcgame, "_scan_brackets",
                        lambda *prices: np.full(default(*prices).shape, scan, dtype=float))
