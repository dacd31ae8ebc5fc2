"""Atomic-swap game solvers and protocol simulator.

Analytic backward-induction solvers for two swap protocols over a geometric
Brownian motion exchange rate — the plain hashlock/timelock swap and its
premium-backed variant — plus a multi-chain ledger simulator, strategy-grid
property checking, an n-party cyclic swap generator, and Monte Carlo
cross-validation, all behind one CLI.
"""

from . import (  # noqa: F401
    cli,
    cyclic,
    htlcgame,
    ledgersim,
    numerics,
    pricemodel,
    protocol,
    quickswapgame,
)

__version__ = "0.1.0"
