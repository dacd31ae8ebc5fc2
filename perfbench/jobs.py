"""Workload job lists and the reference check for their outputs.

A job is one ``swapsim`` CLI invocation.  Deterministic jobs are compared
against committed reference outputs under ``reference/<job id>/``; the Monte
Carlo job is checked by its own statistics (see ``check_montecarlo``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# ROADMAP item 1's gate: success rates agree within 1e-9 absolute.
FLOAT_TOL = 1e-9
# Columns compared within FLOAT_TOL; every other cell (axes, the NA mask,
# verdicts, plan rows) must match exactly.
FLOAT_COLUMNS = frozenset({"sr_raw", "sr_conditional", "x_t4_star", "analytic"})

# ``montecarlo`` exits 1 when any cell has |z| > 3, which an unbiased
# estimator does in about 2.7% of seeds (10 cells).  The benchmark gates on
# |z| <= 5 instead (false alarm below 1e-5 per job) and checks that the exit
# status agrees with the table.
MC_Z_LIMIT = 5.0
MC_Z_CLI = 3.0

AUDIT_XA = (1.6, 2.0, 2.4)
AUDIT_SIGMA = (0.05, 0.1, 0.2)
AUDIT_CYCLIC_N = tuple(range(2, 17))
AUDIT_PLAN_N = (2, 4, 8, 16)


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()   # files compared against reference/<id>/
    montecarlo: bool = False


def _cyclic_set(n: int) -> tuple[str, ...]:
    # Default D=12, Delta=2: the shortest locktime must exceed 12 + 2(n-1),
    # so the default 48 - 6i ladder is invalid beyond n=3.
    locktimes = ",".join(f"{12.0 + 2.0 * (n - 1) + 6.0 * (n - i):g}" for i in range(n))
    return ("--set", f"n={n}", "--set", f"locktimes={locktimes}")


def workload_jobs(workload: str, seed: int) -> list[Job]:
    """Job list of one pass; the seed orders the jobs and seeds Monte Carlo."""
    if workload == "surface":
        jobs = [Job("htlc-surface", ("htlc-surface",), ("htlc_surface.csv",))]
    elif workload == "premium":
        jobs = [
            Job("quickswap-sr", ("quickswap-sr",), ("quickswap_sr.csv", "participation.json")),
            Job("montecarlo", ("montecarlo", "--seed", str(seed % 2**31)), montecarlo=True),
        ]
    elif workload == "audit":
        jobs = [
            Job(f"validate-{kind}-xa{xa:g}-sigma{sigma:g}",
                ("validate", "--set", f"kind={kind}", "--set", f"x_a={xa:g}",
                 "--set", f"sigma={sigma:g}"),
                ("validate.csv",))
            for kind in ("htlc", "quickswap") for xa in AUDIT_XA for sigma in AUDIT_SIGMA
        ]
        jobs += [Job(f"validate-cyclic-n{n}", ("validate", "--set", "kind=cyclic") + _cyclic_set(n),
                     ("validate.csv",))
                 for n in AUDIT_CYCLIC_N]
        jobs += [Job(f"cyclic-plan-n{n}", ("cyclic-plan",) + _cyclic_set(n), ("cyclic_plan.csv",))
                 for n in AUDIT_PLAN_N]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(jobs)
    return jobs


WORKLOADS = ("surface", "premium", "audit")


# ---------------------------------------------------------------------------
# Comparison.

class Mismatch(Exception):
    """An output differs from its reference beyond tolerance."""


class Deviation:
    """Largest absolute deviation seen among compared floats."""

    def __init__(self) -> None:
        self.max_abs = 0.0

    def close(self, got: float, ref: float, where: str) -> None:
        dev = abs(got - ref)
        if math.isnan(dev):
            dev = math.inf
        self.max_abs = max(self.max_abs, dev)
        if dev > FLOAT_TOL:
            raise Mismatch(f"{where}: {got!r} vs reference {ref!r} (|diff|={dev:.3g})")


def compare_csv(got_text: str, ref_text: str, dev: Deviation, name: str) -> None:
    got = list(csv.reader(io.StringIO(got_text)))
    ref = list(csv.reader(io.StringIO(ref_text)))
    if len(got) != len(ref) or not got or got[0] != ref[0]:
        raise Mismatch(f"{name}: {len(got)} rows / header {got[:1]} vs reference "
                       f"{len(ref)} rows / header {ref[:1]}")
    tolerant = [col in FLOAT_COLUMNS for col in ref[0]]
    for lineno, (g_row, r_row) in enumerate(zip(got[1:], ref[1:]), start=2):
        if len(g_row) != len(r_row):
            raise Mismatch(f"{name}:{lineno}: {g_row} vs reference {r_row}")
        for col, g, r, tol in zip(ref[0], g_row, r_row, tolerant):
            if tol and r != "NA" and g != "NA":
                try:
                    value = float(g)
                except ValueError:
                    raise Mismatch(f"{name}:{lineno}:{col}: {g!r} is not a number") from None
                dev.close(value, float(r), f"{name}:{lineno}:{col}")
            elif g != r:
                raise Mismatch(f"{name}:{lineno}:{col}: {g!r} vs reference {r!r}")


def compare_json(got, ref, dev: Deviation, where: str) -> None:
    if isinstance(ref, dict) and isinstance(got, dict):
        if got.keys() != ref.keys():
            raise Mismatch(f"{where}: keys {sorted(got)} vs reference {sorted(ref)}")
        for key in ref:
            compare_json(got[key], ref[key], dev, f"{where}.{key}")
    elif isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            raise Mismatch(f"{where}: length {len(got)} vs reference {len(ref)}")
        for i, (g, r) in enumerate(zip(got, ref)):
            compare_json(g, r, dev, f"{where}[{i}]")
    elif (isinstance(ref, float) and isinstance(got, (int, float))
          and not isinstance(got, bool)):
        dev.close(float(got), ref, where)
    elif got != ref or type(got) is not type(ref):
        raise Mismatch(f"{where}: {got!r} vs reference {ref!r}")


class ReferenceCheck:
    """Checks job outputs; reference files are read once and kept."""

    def __init__(self, reference_dir: Path = REFERENCE_DIR) -> None:
        self.reference_dir = reference_dir
        self._texts: dict[Path, str] = {}
        self._mc_analytic: dict[tuple[str, ...], float] | None = None

    def _reference(self, path: Path) -> str:
        if path not in self._texts:
            self._texts[path] = path.read_text(encoding="utf-8")
        return self._texts[path]

    def check(self, job: Job, exit_status: int, out_dir: Path, dev: Deviation) -> None:
        """Raise Mismatch unless the job's exit status and outputs are right."""
        if job.montecarlo:
            self.check_montecarlo(exit_status, out_dir, dev)
            return
        if exit_status != 0:
            raise Mismatch(f"{job.id}: exit status {exit_status}, expected 0")
        for name in job.outputs:
            path = out_dir / name
            if not path.is_file():
                raise Mismatch(f"{job.id}: {name} was not written")
            got = path.read_text(encoding="utf-8")
            ref = self._reference(self.reference_dir / job.id / name)
            if name.endswith(".csv"):
                compare_csv(got, ref, dev, f"{job.id}/{name}")
            else:
                compare_json(json.loads(got), json.loads(ref), dev, f"{job.id}/{name}")

    def check_montecarlo(self, exit_status: int, out_dir: Path, dev: Deviation) -> None:
        """Analytic column against the reference of every cell the sampler can
        pick; |z| within MC_Z_LIMIT; exit status consistent with max |z|."""
        if self._mc_analytic is None:
            rows = csv.DictReader(io.StringIO(
                self._reference(self.reference_dir / "montecarlo-analytic.csv")))
            self._mc_analytic = {(r["kind"], r["x_a"], r["T"], r["T_prime"]): float(r["analytic"])
                                 for r in rows if r["analytic"] != "NA"}
        path = out_dir / "montecarlo.csv"
        if not path.is_file():
            raise Mismatch(f"montecarlo: montecarlo.csv was not written (exit {exit_status})")
        rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))
        if not rows:
            raise Mismatch("montecarlo: empty table")
        worst = 0.0
        for r in rows:
            key = (r["kind"], r["x_a"], r["T"], r["T_prime"])
            if key not in self._mc_analytic:
                raise Mismatch(f"montecarlo: cell {key} has no reference")
            dev.close(float(r["analytic"]), self._mc_analytic[key], f"montecarlo {key} analytic")
            z = abs(float(r["z"]))
            if not z <= MC_Z_LIMIT:
                raise Mismatch(f"montecarlo {key}: |z| = {z:.3g} > {MC_Z_LIMIT}")
            worst = max(worst, z)
        expected = 0 if worst <= MC_Z_CLI else 1
        if exit_status != expected:
            raise Mismatch(f"montecarlo: exit status {exit_status} with max |z| {worst:.3g}, "
                           f"expected {expected}")
