"""Self-tests of the benchmark (not of swapsim).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection; the
traced surface passes take about 15 s.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import jobs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def test_wrappers_restore_every_patched_name():
    sites = layers.SPAN_SITES + layers.KERNEL_SITES
    before = [owner.__dict__[attr] for owner, attr in sites]
    tracer = layers.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(owner.__dict__[attr] is not fn
                       for (owner, attr), fn in zip(sites, before))
            raise RuntimeError("leave the block by an exception")
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(sites, before))


def _traced_surface_pass() -> dict:
    bench = run.Bench("surface", seed=0)
    tracer = layers.Tracer()
    with tracer.installed():
        bench.run_pass(tracer)
    assert bench.failed == 0, bench.failures
    return layers.layer_metrics(tracer)


def test_traced_surface_counts_repeat_exactly():
    first, second = _traced_surface_pass(), _traced_surface_pass()
    counts = {k for k, (_, unit) in first.items() if unit == "count"}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    value = {k: v for k, (v, _) in first.items()}
    assert value["htlcgame.band_scans"] > 0 and value["htlcgame.root_payoffs"] > 0
    # Every find_roots call evaluates its whole scan grid, then bisects.
    assert value["numerics.root_fn_evals"] == (
        value["numerics.find_roots_calls"] * layers._FIND_ROOTS_GRID + value["numerics.bisect_evals"])
    # On the surface every integral is a root payoff or an SR integral.
    assert value["numerics.integrate_calls"] == (
        value["htlcgame.root_payoffs"] + value["htlcgame.sr_integrals"])
    assert value["protocol.traces"] == value["ledgersim.broadcasts"] == 0


def _surface_reference() -> str:
    return (jobs.REFERENCE_DIR / "htlc-surface" / "htlc_surface.csv").read_text()


def _perturb_first_rate(text: str, delta: float) -> str:
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        cells = line.rstrip("\n").split(",")
        if cells[3] != "NA":
            cells[3] = repr(float(cells[3]) + delta)
            lines[i] = ",".join(cells) + "\n"
            return "".join(lines)
    raise AssertionError("reference has no finite rate")


def test_reference_check_rejects_1e8_perturbation():
    ref = _surface_reference()
    dev = jobs.Deviation()
    jobs.compare_csv(ref, ref, dev, "same")
    assert dev.max_abs == 0.0
    jobs.compare_csv(_perturb_first_rate(ref, 1e-10), ref, dev, "within tolerance")
    with pytest.raises(jobs.Mismatch):
        jobs.compare_csv(_perturb_first_rate(ref, 1e-8), ref, dev, "perturbed")
    assert dev.max_abs > jobs.FLOAT_TOL


def test_reference_check_rejects_changed_na_mask():
    ref = _surface_reference()
    first_na = ref.index(",NA,NA,0\n")
    changed = ref[:first_na] + ",0,0,1\n" + ref[first_na + len(",NA,NA,0\n"):]
    with pytest.raises(jobs.Mismatch):
        jobs.compare_csv(changed, ref, jobs.Deviation(), "na mask")


def test_hang_guard_interrupts_a_busy_loop():
    start = time.perf_counter()
    with pytest.raises(run.JobTimeout):
        with run.time_limit(0.2):
            while True:
                pass
    assert time.perf_counter() - start < 5.0


def _busy(cpu_s: float) -> None:
    start = time.process_time()
    while time.process_time() - start < cpu_s:
        pass


def test_sampler_probes_only_inside_jobs_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGPROF)
    with calibrate.Sampler() as sampler:
        _busy(0.2)
        assert sampler.samples == []
        with sampler.job():
            _busy(0.4)
    assert len(sampler.samples) >= 3
    assert sampler.probe_s == pytest.approx(sum(sampler.samples))
    assert signal.getsignal(signal.SIGPROF) is previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    speed = statistics.fmean(1.0 / p for p in sampler.samples)
    assert sampler.normalize(2.0) == pytest.approx(2.0 * calibrate.REF_PROBE_S * speed)
    assert calibrate.Sampler().normalize(2.0) is None
