"""swapsim benchmark: time-to-solution of the CLI's batch workloads.

    python3 perfbench/run.py --workload surface|premium|audit --seed N --seconds S --trace 0|1

Runs every job of the workload through ``swapsim.cli.main`` in this process,
on one thread, and checks each job's outputs (see ``jobs.py``).

``--trace 0`` reports the end-to-end metrics:

- ``wall_ref_s``: median wall time of one pass over the job list, after an
  untimed warm-up pass, rescaled to the reference host by the calibration
  probe sampled during the jobs (``calibrate.py``); passes repeat until
  ``--seconds`` have elapsed.  The raw wall times are in the run record.
- ``setup_s``: median time of ``import swapsim`` in a fresh interpreter,
  which every CLI invocation pays (SETUP_SAMPLES interpreters per run, one
  after each timed pass, so that they spread over the run).
- ``peak_rss_mb``: peak resident set of this process.

``error_rate`` (failed / attempted jobs) is printed with them and carried by
the ``attempted``/``failed`` fields of the result line; it is 0 on a correct
program, so it is not a bounded metric.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.py`` (median over traced passes) plus
``trace.overhead``.  The last stdout line is the JSON result; a run record
with library versions, machine and quartiles goes to
``.perfbench/results/``, and the spans of the first traced pass next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import calibrate
import jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Wall-clock limit per job.  Today's slowest job (htlc-surface) takes 3-6 s
# on a 2-CPU host; a job still running after this long is counted as hung.
JOB_LIMIT_S = 60.0
SETUP_SAMPLES = 9
SETUP_LIMIT_S = 60.0
SETUP_CODE = "import time; t = time.perf_counter(); import swapsim; print(time.perf_counter() - t)"


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; a BaseException so that no
    ``except Exception`` in the program swallows it."""


@contextmanager
def time_limit(seconds: float):
    def on_alarm(signum, frame):
        raise JobTimeout(f"no result after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class Bench:
    """Runs passes over one workload's jobs and tallies their failures."""

    def __init__(self, workload: str, seed: int) -> None:
        from swapsim import cli

        self.main = cli.main
        self.job_list = jobs.workload_jobs(workload, seed)
        self.checker = jobs.ReferenceCheck()
        self.dev = jobs.Deviation()
        self.out_root = WORK / "out" / f"{workload}-{seed}"
        self.attempted = self.failed = 0
        self.hung = False
        self.failures: list[str] = []

    def run_pass(self, tracer=None, sampler=None) -> tuple[float, int]:
        """One pass over the job list: (summed job wall time, bytes written).

        With a ``calibrate.Sampler``, probes run during the jobs and their
        time is left out of the wall time."""
        wall, bytes_out = 0.0, 0
        for job in self.job_list:
            out = self.out_root / job.id
            shutil.rmtree(out, ignore_errors=True)
            argv = list(job.argv) + ["--out", str(out)]
            error, status = None, None
            if tracer is not None:
                tracer.job = job.id
            probe_s = sampler.probe_s if sampler else 0.0
            start = time.perf_counter()
            try:
                with (time_limit(JOB_LIMIT_S), (tracer.span("cli.main") if tracer else nullcontext()),
                      (sampler.job() if sampler else nullcontext())):
                    status = self.main(argv)
            except JobTimeout as exc:
                error, self.hung = f"hang: {exc}", True
            except SystemExit as exc:
                error = f"argument error (exit {exc.code})"
            except Exception as exc:  # a crashing job is a counted failure
                error = f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - start
            if sampler:
                wall -= sampler.probe_s - probe_s
            self.attempted += 1
            if error is None:
                try:
                    self.checker.check(job, status, out, self.dev)
                except jobs.Mismatch as exc:
                    error = str(exc)
            if error is not None:
                self.failed += 1
                self.failures.append(f"{job.id}: {error}")
            if out.is_dir():
                bytes_out += sum(f.stat().st_size for f in out.iterdir())
            if self.hung:
                break
        return wall, bytes_out


def measure_setup() -> float:
    """Seconds of ``import swapsim`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=SETUP_LIMIT_S, check=True)
    return float(done.stdout)


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "platform": platform.platform(), "commit": _git_commit(),
    }


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    bench.run_pass()  # warm-up
    walls, ref_walls, probes, setup = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not bench.hung and (not ref_walls or time.perf_counter() < deadline):
        with calibrate.Sampler() as sampler:
            wall = bench.run_pass(sampler=sampler)[0]
        ref_wall = sampler.normalize(wall)
        if ref_wall is not None:
            walls.append(wall)
            ref_walls.append(ref_wall)
            probes.append(statistics.median(sampler.samples) * 1e3)
        if len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup())
    if bench.hung:
        return {}, {}
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = {"wall_ref_s": summary(ref_walls), "setup_s": summary(setup),
             "peak_rss_mb": summary([rss_mb])}
    units = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: (s["median"], units[name]) for name, s in stats.items()}
    stats["wall_s"] = summary(walls)
    stats["probe_ms"] = summary(probes)
    return metrics, stats


def traced_run(bench: Bench, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from layers import Tracer, layer_metrics, median_metrics

    bench.run_pass()  # warm-up
    untraced, traced, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    while not bench.hung and (not traced or time.perf_counter() < deadline):
        untraced.append(bench.run_pass()[0])
        tracer = Tracer()
        with tracer.installed():
            wall, bytes_out = bench.run_pass(tracer)
        if bench.hung:
            break
        traced.append(wall)
        layer = layer_metrics(tracer)
        layer["cli.bytes_out"] = (float(bytes_out), "bytes")
        per_pass.append(layer)
        if len(per_pass) == 1:
            write_spans(tracer.spans, spans_path)
    if not per_pass:
        return {}, {}
    metrics = median_metrics(per_pass)
    metrics["cli.max_abs_dev"] = (bench.dev.max_abs, "abs")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced) - 1.0,
                                 "ratio")
    return metrics, {"untraced_wall_s": summary(untraced), "traced_wall_s": summary(traced)}


def write_spans(spans: list, path: Path) -> None:
    t0 = spans[0][1] if spans else 0.0
    with path.open("w", encoding="utf-8") as fh:
        for name, start, end, parent, job in spans:
            row = [name, round(start - t0, 7), round(end - t0, 7), parent, job]
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    if not (SRC / "swapsim" / "__init__.py").is_file():
        print(f"error: no swapsim sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import swapsim

    if Path(swapsim.__file__).resolve().parent != (SRC / "swapsim").resolve():
        print(f"error: imported swapsim from {swapsim.__file__}, not {SRC}", file=sys.stderr)
        return 1

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    bench = Bench(args.workload, args.seed)
    if args.trace:
        metrics, stats = traced_run(bench, args.seconds, results / f"{stem}-spans.jsonl")
    else:
        metrics, stats = timed_run(bench, args.seconds)
    shutil.rmtree(bench.out_root, ignore_errors=True)

    error_rate = bench.failed / bench.attempted
    passes = stats["wall_s" if not args.trace else "traced_wall_s"]["n"] if stats else 0
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs/pass={len(bench.job_list)} passes={passes} (+1 warm-up)")
    for name, (value, unit) in metrics.items():
        s = stats.get(name)
        spread = f"  q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}" if s else ""
        print(f"  {name:40s} {value:.6g} {unit}{spread}")
    for name, unit in (("wall_s", "s"), ("probe_ms", "ms")):
        if not args.trace and name in stats:
            s = stats[name]
            print(f"  ({name} raw){'':{33 - len(name)}s} {s['median']:.6g} {unit}  "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    print(f"  {'error_rate':40s} {error_rate:.6g} fraction "
          f"({bench.failed} failed / {bench.attempted} attempted)")
    for line in bench.failures[:20]:
        print(f"  FAILED {line}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_per_pass": len(bench.job_list), "passes": passes,
        "environment": environment(), "stats": stats,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": bench.attempted, "failed": bench.failed, "error_rate": error_rate,
        "failures": bench.failures,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
