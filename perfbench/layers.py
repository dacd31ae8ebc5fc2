"""Outside-in tracing of swapsim's layers.

``Tracer.installed()`` replaces public functions at the names their callers
look up (a module's imported binding, or a class attribute) with wrappers
that record spans and counts, and restores every original on exit.  Nothing
inside ``swapsim`` changes.  Spans are kept in memory as
``[name, start, end, parent index, job id]``; ``layer_metrics`` turns one
traced pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from swapsim import cli, cyclic, htlcgame, ledgersim, numerics, protocol, quickswapgame

# (owner, attribute): each binding is wrapped in a span named after the
# function's defining module, e.g. "numerics.integrate" at either solver.
SPAN_SITES = [
    (htlcgame, "find_roots"), (htlcgame, "integrate"),
    (htlcgame, "continuation_band_t2"), (htlcgame, "payoff_t1_with_band"),
    (htlcgame, "sr_surface"), (htlcgame, "success_rate"),
    (quickswapgame, "find_roots"), (quickswapgame, "integrate"),
    (quickswapgame, "sr_surface"), (quickswapgame, "continuation_band_t3"),
    (quickswapgame, "success_rate"), (quickswapgame, "compare_participation"),
    (protocol, "run"), (protocol, "continuation_band_t2"), (protocol, "continuation_band_t3"),
    (cli, "build_htlc_instance"), (cli, "build_quickswap_instance"),
    (cli, "check_properties"), (cli, "mc_success_rate_htlc"),
    (cli, "mc_success_rate_quickswap"),
    (cyclic, "run_cyclic"), (cyclic, "generate"), (cyclic, "validate_plan"),
    (ledgersim.Chain, "broadcast"), (ledgersim.Chain, "advance"),
]
# Price-law kernels are counted, not timed: the surface makes ~0.5M tiny
# calls, and a span on each would swamp the trace.
KERNEL_SITES = [
    (htlcgame, "erfc"), (htlcgame, "transition_pdf"), (htlcgame, "transition_cdf"),
    (quickswapgame, "transition_pdf"),
]
KERNELS = ("erfc", "transition_pdf", "transition_cdf")

_FIND_ROOTS_GRID = inspect.signature(numerics.find_roots).parameters["grid_points"].default
_MC_PATHS = {
    "protocol.mc_success_rate_htlc": inspect.signature(protocol.mc_success_rate_htlc),
    "protocol.mc_success_rate_quickswap": inspect.signature(protocol.mc_success_rate_quickswap),
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []

    # -- spans ---------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn):
        name = span_name(fn)
        adapt = {
            "numerics.find_roots": self._count_root_evals,
            "numerics.integrate": self._count_panels,
        }.get(name)
        observe = {
            "protocol.run": self._count_events,
            "ledgersim.Chain.advance": self._count_confirmations,
        }.get(name)

        mc_signature = _MC_PATHS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if mc_signature is not None:
                self.counts["protocol.mc_paths"] += mc_signature.bind(*args, **kwargs).arguments["n_paths"]
            finish = None
            if adapt is not None:
                args, finish = adapt(args, kwargs)
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self.counts[name + ".raised"] += 1
                    raise
            if finish is not None:
                finish()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count_root_evals(self, args, kwargs):
        evals = [0]
        g = args[0]

        def counted(x):
            evals[0] += 1
            return g(x)

        grid = kwargs.get("grid_points", args[2] if len(args) > 2 else _FIND_ROOTS_GRID)

        def finish():
            self.counts["numerics.root_fn_evals"] += evals[0]
            self.counts["numerics.bisect_evals"] += evals[0] - grid

        return (counted,) + tuple(args[1:]), finish

    def _count_panels(self, args, kwargs):
        f = args[0]

        def counted(x):
            self.counts["numerics.panels"] += 1
            self.counts["numerics.integrand_nodes"] += np.size(x)
            return f(x)

        return (counted,) + tuple(args[1:]), None

    def _count_events(self, verdict) -> None:
        self.counts["protocol.events"] += len(verdict.events)

    def _count_confirmations(self, events) -> None:
        self.counts["ledgersim.useful_advances"] += bool(events)
        self.counts["ledgersim.confirmations"] += sum(e.kind == "confirmed" for e in events)

    def _kernel(self, fn, kernel: str):
        calls, elems = f"pricemodel.{kernel}.calls", f"pricemodel.{kernel}.elems"

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            self.counts[calls] += 1
            self.counts[elems] += np.size(x)
            return fn(x, *args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore."""
        originals = []
        try:
            for owner, attr in SPAN_SITES + KERNEL_SITES:
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                if (owner, attr) in KERNEL_SITES:
                    setattr(owner, attr, self._kernel(fn, attr))
                else:
                    setattr(owner, attr, self._wrap(fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass.

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: ``*_s`` are seconds, the rest counts or ratios.

    Times of a recursive function (band widening) count only the outermost
    call; self time is a span's duration minus its direct children's.
    """
    spans, counts = tracer.spans, tracer.counts
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls: Counter = Counter()
    outer: Counter = Counter()
    self_time: Counter = Counter()
    sr_calls, sr_time = 0, 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_time[name] += dur - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            outer[name] += dur
        if name == "numerics.integrate" and parent >= 0 and spans[parent][0] in (
                "htlcgame.sr_surface", "htlcgame.success_rate"):
            sr_calls += 1
            sr_time += dur

    def count(value) -> tuple[float, str]:
        return value, "count"

    mc_s = sum(self_time[n] for n in _MC_PATHS)
    broadcasts = calls["ledgersim.Chain.broadcast"]
    advances = calls["ledgersim.Chain.advance"]
    m: dict[str, tuple[float, str]] = {
        "cli.self_s": (self_time["cli.main"], "s"),
        "htlcgame.band_scan_s": (outer["htlcgame.continuation_band_t2"], "s"),
        "htlcgame.band_scans": count(calls["htlcgame.continuation_band_t2"]),
        "htlcgame.root_payoff_s": (outer["htlcgame.payoff_t1_with_band"], "s"),
        "htlcgame.root_payoffs": count(calls["htlcgame.payoff_t1_with_band"]),
        "htlcgame.sr_integral_s": (sr_time, "s"),
        "htlcgame.sr_integrals": count(sr_calls),
        "quickswapgame.band_scan_s": (outer["quickswapgame.continuation_band_t3"], "s"),
        "quickswapgame.band_scans": count(calls["quickswapgame.continuation_band_t3"]),
        "quickswapgame.sr_s": (outer["quickswapgame.success_rate"], "s"),
        "quickswapgame.participation_s": (self_time["quickswapgame.compare_participation"], "s"),
        "numerics.find_roots_s": (outer["numerics.find_roots"], "s"),
        "numerics.find_roots_calls": count(calls["numerics.find_roots"]),
        "numerics.root_fn_evals": count(counts["numerics.root_fn_evals"]),
        "numerics.bisect_evals": count(counts["numerics.bisect_evals"]),
        "numerics.integrate_s": (outer["numerics.integrate"], "s"),
        "numerics.integrate_calls": count(calls["numerics.integrate"]),
        "numerics.panels": count(counts["numerics.panels"]),
        "numerics.integrand_nodes": count(counts["numerics.integrand_nodes"]),
    }
    for k in KERNELS:
        kc, ke = counts[f"pricemodel.{k}.calls"], counts[f"pricemodel.{k}.elems"]
        m[f"pricemodel.{k}.kernel_calls"] = count(kc)
        m[f"pricemodel.{k}.kernel_elems"] = count(ke)
        m[f"pricemodel.{k}.elems_per_call"] = (_ratio(ke, kc), "ratio")
    m.update({
        "protocol.run_s": (outer["protocol.run"], "s"),
        "protocol.traces": count(calls["protocol.run"]),
        "protocol.check_s": (outer["protocol.check_properties"], "s"),
        "protocol.events": count(counts["protocol.events"]),
        "protocol.mc_s": (mc_s, "s"),
        "protocol.mc_paths": count(counts["protocol.mc_paths"]),
        "protocol.mc_paths_per_s": (_ratio(counts["protocol.mc_paths"], mc_s), "1/s"),
        "ledgersim.broadcast_s": (outer["ledgersim.Chain.broadcast"], "s"),
        "ledgersim.broadcasts": count(broadcasts),
        "ledgersim.accept_ratio": (
            _ratio(broadcasts - counts["ledgersim.Chain.broadcast.raised"], broadcasts), "ratio"),
        "ledgersim.advance_s": (outer["ledgersim.Chain.advance"], "s"),
        "ledgersim.advances": count(advances),
        "ledgersim.advance_useful_ratio": (
            _ratio(counts["ledgersim.useful_advances"], advances), "ratio"),
        "ledgersim.confirmations": count(counts["ledgersim.confirmations"]),
        "cyclic.run_s": (outer["cyclic.run_cyclic"], "s"),
        "cyclic.traces": count(calls["cyclic.run_cyclic"]),
        "cyclic.plan_s": (outer["cyclic.generate"] + outer["cyclic.validate_plan"], "s"),
    })
    return {name: (float(value), unit) for name, (value, unit) in m.items()}


def median_metrics(passes: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    """Per-metric median over traced passes (counts are equal in every pass)."""
    return {name: (statistics.median(p[name][0] for p in passes), unit)
            for name, (_, unit) in passes[0].items()}
