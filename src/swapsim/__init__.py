"""Atomic-swap game solvers and protocol simulator.

Analytic backward-induction solvers for two swap protocols over a geometric
Brownian motion exchange rate — the plain hashlock/timelock swap and its
premium-backed variant — plus a multi-chain ledger simulator, strategy-grid
property checking, an n-party cyclic swap generator, and Monte Carlo
cross-validation, all behind one CLI.
"""

# Leaves first.  ``cli`` stays out: ``python -m swapsim.cli`` must be the
# first import of that module, or runpy warns on every run.
from . import (  # noqa: F401
    pricemodel,
    numerics,
    htlcgame,
    quickswapgame,
    ledgersim,
    protocol,
    cyclic,
)

__version__ = "0.1.0"
