"""Regenerate the committed reference outputs in ``perfbench/reference/``.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right: the benchmark
fails every job whose outputs drift from these files.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import jobs

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from swapsim import cli, htlcgame, quickswapgame  # noqa: E402


def _montecarlo_cells() -> list[list]:
    """Every cell ``cmd_montecarlo`` can draw, with its analytic rate."""
    p = cli._resolve_params("montecarlo", None, [])
    base, quick = cli._swap_params(p), cli._quick_params(p)
    rows = []
    for tenths in range(15, 25):          # x_a = round(uniform(1.5, 2.4), 1)
        x_a = tenths / 10
        for T in range(4):                # T, T' = integers(0, 4)
            for Tp in range(4):
                sr = htlcgame.success_rate(base.with_x_a(x_a), float(T), float(Tp))
                rows.append(["htlc", x_a, float(T), float(Tp), sr])
    for tenths in range(12, 27):          # x_a = round(uniform(1.2, 2.6), 1)
        x_a = tenths / 10
        rows.append(["quickswap", x_a, 0.0, 0.0, quickswapgame.success_rate(quick.with_x_a(x_a))])
    return rows


def main() -> int:
    ref = jobs.REFERENCE_DIR
    shutil.rmtree(ref, ignore_errors=True)
    ref.mkdir(parents=True)
    seen = set()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in jobs.WORKLOADS:
            for job in jobs.workload_jobs(workload, seed=0):
                if job.montecarlo or job.id in seen:
                    continue
                seen.add(job.id)
                out = Path(tmp) / job.id
                status = cli.main(list(job.argv) + ["--out", str(out)])
                if status != 0:
                    print(f"error: {job.id} exited {status}", file=sys.stderr)
                    return 1
                (ref / job.id).mkdir()
                for name in job.outputs:
                    shutil.copyfile(out / name, ref / job.id / name)
    cfg = cli.RunConfig("montecarlo", {}, ref)
    cli._write_table(cfg, "montecarlo-analytic", ["kind", "x_a", "T", "T_prime", "analytic"],
                     _montecarlo_cells())
    print(f"wrote references for {len(seen)} jobs and the Monte Carlo cells to {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
