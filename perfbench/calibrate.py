"""Host-speed calibration: a fixed probe sampled while the jobs run.

The benchmark's host is shared, and its speed swings by up to 2x on a scale of
seconds to minutes (same code, same inputs; process CPU time equals wall
time, so the slowdown is inside the CPU).  Run medians of raw wall time
therefore spread wider than any useful bound.

``Sampler`` measures the host's speed *during* the jobs: an ``ITIMER_PROF``
signal every ``INTERVAL_S`` of process CPU time runs ``probe`` (a fixed
piece of work of the same kind as swapsim's solvers: Gauss-Legendre panels of
a log-normal density over 32 nodes through numpy and ``scipy.special.erfc``,
plus scalar ``math`` calls) and records how long it took.  The probe's own
time is taken out of the job's wall time, and the rest is rescaled to a host
on which one probe takes ``REF_PROBE_S``:

    normalized = work * REF_PROBE_S * mean(1 / probe_i)

where ``work`` is the job time without probes.  Samples are spread evenly over
the jobs' CPU time, so ``mean(1 / probe_i)`` is the host's mean speed while
the jobs ran.  The probe code is fixed in this file and never changes with
the program under test.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy.special import erfc as _erfc_vec

INTERVAL_S = 0.04      # process CPU time between probes (~2.5% overhead)
REF_PROBE_S = 1.0e-3   # probe time of the reference host
PROBE_PANELS = 40
PROBE_SCALARS = 8      # scalar math calls per panel

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)
_SQRT2 = math.sqrt(2.0)


def _scalar_cdf(x: float) -> float:
    return 0.5 * math.erfc(-(math.log(x) - 0.01) / (0.1 * _SQRT2))


def probe() -> float:
    """The fixed calibration work (about 1 ms); returns its result so that
    nothing is optimized away."""
    acc = 0.0
    for k in range(PROBE_PANELS):
        x = 1.0 + (0.5 + 0.001 * k) * _NODES
        z = (np.log(x) - 0.01) / 0.1
        density = np.exp(-0.5 * z * z) / x * _erfc_vec(-z / _SQRT2)
        acc += float(np.dot(_WEIGHTS, density))
        for j in range(PROBE_SCALARS):
            acc += _scalar_cdf(1.0 + 0.01 * j)
    return acc


class Sampler:
    """Runs ``probe`` on a CPU-time timer while a job is inside ``job()``.

    Use as a context manager around a pass; wrap each job in ``job()``.
    Ticks that fall outside a job (the reference check) run no probe.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.probe_s = 0.0        # total probe time inside jobs
        self._in_job = False
        self._previous = None

    def _on_tick(self, signum, frame) -> None:
        if not self._in_job:
            return
        start = time.perf_counter()
        probe()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.probe_s += took

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    @contextmanager
    def job(self):
        self._in_job = True
        try:
            yield
        finally:
            self._in_job = False

    def normalize(self, work_s: float) -> float | None:
        """``work_s`` rescaled to the reference host; None without samples."""
        if not self.samples:
            return None
        return work_s * REF_PROBE_S * statistics.fmean(1.0 / p for p in self.samples)

