"""Command-line surface for the swap simulator.

Subcommands
-----------
- ``htlc-surface``: success-rate grid over (x_a, T, T') for the plain
  hashlock swap (long-format table + manifest).
- ``quickswap-sr``: per-x_a success rate of the premium-backed swap plus the
  participation-range comparison against the plain swap.
- ``validate``: exhaustive strategy-grid property runs (or the cyclic
  single-griefer sweep); exit status encodes whether the protocol's claimed
  properties hold.
- ``montecarlo``: analytic-vs-simulated success-rate cross-check.
- ``cyclic-plan``: generate and audit an n-party cyclic swap plan.

Every run writes a ``manifest.json`` echoing the fully resolved parameter
set; reruns with identical config and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cyclic as cyclic_mod
from . import htlcgame, quickswapgame
from .pricemodel import GbmParams
from .protocol import (
    StrategyProfile,
    build_htlc_instance,
    build_quickswap_instance,
    check_properties,
    mc_success_rate_htlc,
    mc_success_rate_quickswap,
    strategy_grid,
)

__all__ = ["main", "RunConfig"]


# ---------------------------------------------------------------------------
# Parameter plumbing.

_BASE_DEFAULTS: dict = {
    "x_a": 2.0, "x_yb_t1": 2.0, "t_a": 48.0, "t_b": 24.0,
    "tau_a": 3.0, "tau_b": 3.0, "t_eps": 1.0, "eps": 1.0,
    "sp_a": 0.3, "sp_b": 0.3, "r_a": 0.005, "r_b": 0.005,
    "f_a": 0.0, "f_b": 0.0, "theta_1": 0.5, "theta_2": 0.5,
    "mu": 0.002, "sigma": 0.1,
    "uniform_delay_discounting": False, "t1_stop_value": "principal",
}
_QUICK_DEFAULTS: dict = {"D": 12.0, "Delta": 2.0, "rho": 0.001}
_GRID_DEFAULTS: dict = {
    "xa_min": 1.0, "xa_max": 3.0, "xa_step": 0.1,
    "t_min": 0.0, "t_max": 20.0, "tp_min": 0.0, "tp_max": 21.0, "delay_step": 1.0,
}
_MC_DEFAULTS: dict = {"paths": 100_000, "cells": 5}
_CYCLIC_DEFAULTS: dict = {
    "n": 3, "amounts": (), "taus": (), "locktimes": (),
    "D": 12.0, "Delta": 2.0, "rho": 0.001, "t_eps": 1.0,
}

_ALLOWED_KEYS: dict[str, set] = {
    "htlc-surface": set(_BASE_DEFAULTS) | set(_GRID_DEFAULTS),
    "quickswap-sr": set(_BASE_DEFAULTS) | set(_QUICK_DEFAULTS) | set(_GRID_DEFAULTS),
    "validate": set(_BASE_DEFAULTS) | set(_QUICK_DEFAULTS) | set(_CYCLIC_DEFAULTS) | {"kind"},
    "montecarlo": set(_BASE_DEFAULTS) | set(_QUICK_DEFAULTS) | set(_MC_DEFAULTS),
    "cyclic-plan": set(_CYCLIC_DEFAULTS),
}


@dataclass
class RunConfig:
    """Resolved invocation: subcommand plus every knob it consumes."""

    subcommand: str
    params: dict
    out_dir: Path
    seed: int = 0
    format: str = "csv"
    normalization: str = "conditional"
    outputs: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


class ConfigError(ValueError):
    pass


def _parse_value(text: str):
    """Flat key-value coercion: bool, int, float, comma-list, or string."""
    s = text.strip()
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    if "," in s:
        return tuple(float(part) for part in s.split(",") if part.strip())
    for cast in (int, float):
        try:
            return cast(s)
        except ValueError:
            continue
    return s


def _read_params_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    out: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        out[key.strip()] = _parse_value(value)
    return out


def _resolve_params(subcommand: str, file_path: str | None, sets: list[str]) -> dict:
    defaults: dict = {}
    for chunk in (_BASE_DEFAULTS, _QUICK_DEFAULTS, _GRID_DEFAULTS,
                  _MC_DEFAULTS, _CYCLIC_DEFAULTS, {"kind": "quickswap"}):
        for k, v in chunk.items():
            if k in _ALLOWED_KEYS[subcommand]:
                defaults.setdefault(k, v)
    overrides: dict = {}
    if file_path:
        overrides.update(_read_params_file(file_path))
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = _parse_value(value)
    unknown = sorted(set(overrides) - _ALLOWED_KEYS[subcommand])
    if unknown:
        raise ConfigError(f"unknown parameter(s) for {subcommand}: {', '.join(unknown)}")
    defaults.update(overrides)
    return defaults


def _swap_params(p: dict) -> htlcgame.SwapParams:
    return htlcgame.SwapParams(
        x_a=float(p["x_a"]), x_yb_t1=float(p["x_yb_t1"]),
        t_a=float(p["t_a"]), t_b=float(p["t_b"]),
        tau_a=float(p["tau_a"]), tau_b=float(p["tau_b"]),
        t_eps=float(p["t_eps"]), eps=float(p["eps"]),
        sp_a=float(p["sp_a"]), sp_b=float(p["sp_b"]),
        r_a=float(p["r_a"]), r_b=float(p["r_b"]),
        f_a=float(p["f_a"]), f_b=float(p["f_b"]),
        theta_1=float(p["theta_1"]), theta_2=float(p["theta_2"]),
        gbm=GbmParams(mu=float(p["mu"]), sigma=float(p["sigma"])),
        uniform_delay_discounting=bool(p["uniform_delay_discounting"]),
        t1_stop_value=str(p["t1_stop_value"]),
    )


def _quick_params(p: dict) -> quickswapgame.QuickSwapParams:
    return quickswapgame.QuickSwapParams(
        base=_swap_params(p), D=float(p["D"]), Delta=float(p["Delta"]), rho=float(p["rho"]),
    )


def _whole(p: dict, key: str) -> int:
    value = p[key]
    if type(value) not in (int, float) or not float(value).is_integer():
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _cyclic_spec(p: dict) -> cyclic_mod.CyclicSpec:
    n = _whole(p, "n")
    amounts = tuple(p["amounts"]) or tuple(2.0 for _ in range(n))
    taus = tuple(p["taus"]) or tuple(3.0 for _ in range(n))
    locktimes = tuple(p["locktimes"]) or tuple(48.0 - 6.0 * i for i in range(n))
    return cyclic_mod.CyclicSpec(
        n=n, amounts=amounts, taus=taus, locktimes=locktimes,
        D=float(p["D"]), Delta=float(p["Delta"]), rho=float(p["rho"]),
        t_eps=float(p["t_eps"]),
    )


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ConfigError(f"grid axis needs finite bounds with min <= max, got [{lo}, {hi}]")
    if not step > 0:
        raise ConfigError(f"grid step must be > 0, got {step}")
    count = int(round((hi - lo) / step)) + 1
    return np.round(lo + step * np.arange(count), 10)


# ---------------------------------------------------------------------------
# Serialization.

def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NA"
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _jsonable(value):
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return None if math.isnan(v) else v
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Path):
        return str(value)
    return value


def _write_table(cfg: RunConfig, name: str, header: list[str], rows: list[list]) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.format == "csv":
        path = cfg.out_dir / f"{name}.csv"

        def cell(v) -> str:
            text = _fmt(v)
            if "," in text or '"' in text:
                return '"' + text.replace('"', '""') + '"'
            return text

        lines = [",".join(header)]
        lines += [",".join(cell(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    else:
        path = cfg.out_dir / f"{name}.json"
        payload = [dict(zip(header, (_jsonable(v) for v in row))) for row in rows]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8", newline="\n")
    cfg.outputs.append(path.name)


def _write_manifest(cfg: RunConfig) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subcommand": cfg.subcommand,
        "seed": cfg.seed,
        "format": cfg.format,
        "normalization": cfg.normalization,
        "params": {k: _jsonable(v) for k, v in sorted(cfg.params.items())},
        "outputs": sorted(cfg.outputs),
        "summary": {k: _jsonable(v) for k, v in sorted(cfg.summary.items())},
    }
    path = cfg.out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_htlc_surface(cfg: RunConfig) -> int:
    p = cfg.params
    base = _swap_params(p)
    xa = _axis(p["xa_min"], p["xa_max"], p["xa_step"])
    ts = _axis(p["t_min"], min(p["t_max"], base.claim_delay_window), p["delay_step"])
    tps = _axis(p["tp_min"], min(p["tp_max"], base.lock_delay_window), p["delay_step"])
    grid = htlcgame.sr_surface(base, xa, ts, tps)
    rows = []
    for i, x_a in enumerate(xa):
        for j, T in enumerate(ts):
            for k, Tp in enumerate(tps):
                na = bool(grid.na_mask[i, j, k])
                raw = None if na else float(grid.raw[i, j, k])
                cond = None if na else float(grid.conditional[i, j, k])
                rows.append([float(x_a), float(T), float(Tp), raw, cond, not na])
    _write_table(cfg, "htlc_surface",
                 ["x_a", "T", "T_prime", "sr_raw", "sr_conditional", "participation_flag"],
                 rows)
    col = grid.conditional if cfg.normalization == "conditional" else grid.raw
    finite = col[~np.isnan(col)]
    cfg.summary = {
        "cells": int(col.size),
        "na_cells": int(np.isnan(col).sum()),
        "max_sr": float(finite.max()) if finite.size else None,
    }
    _write_manifest(cfg)
    return 0


def cmd_quickswap_sr(cfg: RunConfig) -> int:
    p = cfg.params
    q = _quick_params(p)
    xa = _axis(p["xa_min"], p["xa_max"], p["xa_step"])
    norm = q.base.theta_1 * q.base.theta_2
    # The report already holds the premium SR per x_a; reuse it rather than
    # solving each band again.
    report = quickswapgame.compare_participation(q.base, q, xa)
    rows = []
    for x_a, sr in zip(xa, report.quick_sr):
        sr = float(sr)
        rows.append([float(x_a), sr, sr / norm if norm > 0 else 0.0,
                     quickswapgame.claim_threshold_t4(q.with_x_a(float(x_a)))])
    _write_table(cfg, "quickswap_sr",
                 ["x_a", "sr_raw", "sr_conditional", "x_t4_star"], rows)

    report_payload = {
        "htlc_range_zero_delay": _jsonable(report.htlc_range_zero_delay),
        "htlc_range_worst_delay": _jsonable(report.htlc_range_worst_delay),
        "quick_range": _jsonable(report.quick_range),
        "quick_contains_htlc": report.quick_contains_htlc,
        "quick_strictly_contains_worst": report.quick_strictly_contains_worst,
    }
    path = cfg.out_dir / "participation.json"
    path.write_text(json.dumps(report_payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")
    cfg.outputs.append(path.name)
    cfg.summary = dict(report_payload)
    _write_manifest(cfg)
    return 0


def _property_rows(report) -> list[list]:
    return [
        [r.profile, r.outcome, r.correctness, r.safety, r.liveness, len(r.witnesses)]
        for r in report.rows
    ]


_PROPERTY_HEADER = ["profile", "outcome", "correctness", "safety", "liveness", "witnesses"]


def cmd_validate(cfg: RunConfig) -> int:
    kind = cfg.params["kind"]
    if kind == "quickswap":
        report = check_properties(build_quickswap_instance(_quick_params(cfg.params)))
        ok = (not report.safety_violations) and report.liveness_ok and report.correctness_ok
        cfg.summary = {
            "kind": kind, "rows": len(report.rows),
            "safety_violations": len(report.safety_violations),
            "liveness_ok": report.liveness_ok, "passed": ok,
        }
        _write_table(cfg, "validate", _PROPERTY_HEADER, _property_rows(report))
    elif kind == "htlc":
        rho = float(cfg.params["rho"])
        report = check_properties(build_htlc_instance(_swap_params(cfg.params), rho=rho))
        violations = report.safety_violations
        # The plain swap pays no premium, so it is *expected* to fail safety on
        # grief profiles exactly when a lockup costs the victim something
        # (rho > 0); the check passes when violations appear iff rho > 0 and
        # are confined to grief profiles.
        confined = all("grief" in r.profile for r in violations)
        ok = bool(violations) == (rho > 0) and confined and report.liveness_ok and report.correctness_ok
        cfg.summary = {
            "kind": kind, "rows": len(report.rows),
            "safety_violations": len(violations),
            "violations_confined_to_grief": confined,
            "liveness_ok": report.liveness_ok, "passed": ok,
        }
        _write_table(cfg, "validate", _PROPERTY_HEADER, _property_rows(report))
    elif kind == "cyclic":
        spec = _cyclic_spec(cfg.params)
        plan = cyclic_mod.generate(spec)
        problems = cyclic_mod.validate_plan(plan)
        rows, ok = [], not problems
        runs = [("all-compliant", {})]
        runs += [(f"P{g}-{mode}", {g: mode})
                 for g in range(spec.n) for mode in ("grief-lock", "grief-claim")]
        for label, strategies in runs:
            v = cyclic_mod.run_cyclic(plan, strategies)
            rows.append([label, v.outcome, v.correctness, v.safety, v.liveness,
                         len(v.witnesses)])
            ok = ok and v.safety and v.liveness and v.correctness
        _write_table(cfg, "validate", _PROPERTY_HEADER, rows)
        cfg.summary = {"kind": kind, "rows": len(rows),
                       "plan_problems": len(problems), "passed": ok}
    else:
        raise ConfigError(f"kind must be htlc, quickswap, or cyclic, got {kind!r}")
    _write_manifest(cfg)
    return 0 if cfg.summary["passed"] else 1


def cmd_montecarlo(cfg: RunConfig) -> int:
    p = cfg.params
    paths = _whole(p, "paths")
    if paths < 1_000:
        raise ConfigError(f"paths must be >= 1000, got {paths}")
    cells = _whole(p, "cells")
    if cells < 1:
        raise ConfigError(f"cells must be >= 1, got {cells}")
    rng = np.random.default_rng(cfg.seed)
    base = _swap_params(p)
    quick = _quick_params(p)
    rows = []
    worst = 0.0

    picked = 0
    while picked < cells:  # plain-swap cells, skipping non-participating ones
        x_a = float(np.round(rng.uniform(1.5, 2.4), 1))
        T = float(rng.integers(0, 4))
        Tp = float(rng.integers(0, 4))
        g = base.with_x_a(x_a)
        analytic = htlcgame.success_rate(g, T, Tp)
        if analytic is None:
            continue
        freq, se = mc_success_rate_htlc(g, T, Tp, paths, int(rng.integers(2**31)))
        z = (freq - analytic) / se if se > 0 else 0.0
        rows.append(["htlc", x_a, T, Tp, analytic, freq, se, z])
        worst = max(worst, abs(z))
        picked += 1

    for _ in range(cells):
        x_a = float(np.round(rng.uniform(1.2, 2.6), 1))
        g = quick.with_x_a(x_a)
        analytic = quickswapgame.success_rate(g)
        freq, se = mc_success_rate_quickswap(g, paths, int(rng.integers(2**31)))
        z = (freq - analytic) / se if se > 0 else 0.0
        rows.append(["quickswap", x_a, 0.0, 0.0, analytic, freq, se, z])
        worst = max(worst, abs(z))

    _write_table(cfg, "montecarlo",
                 ["kind", "x_a", "T", "T_prime", "analytic", "empirical", "se", "z"],
                 rows)
    cfg.summary = {"paths": paths, "cells": len(rows),
                   "max_abs_z": worst, "all_within_3se": worst <= 3.0}
    _write_manifest(cfg)
    return 0 if worst <= 3.0 else 1


def cmd_cyclic_plan(cfg: RunConfig) -> int:
    spec = _cyclic_spec(cfg.params)
    plan = cyclic_mod.generate(spec)
    problems = cyclic_mod.validate_plan(plan)
    rows = [
        [idx, a.party, a.chain, a.amount, a.kind, a.start_time, a.timeout,
         a.timeout_recipient, a.hashlock_claimant, "|".join(a.hashlocks),
         a.early_refund_hash or "NA"]
        for idx, a in enumerate(plan.actions)
    ]
    _write_table(cfg, "cyclic_plan",
                 ["index", "party", "chain", "amount", "kind", "start_time",
                  "timeout", "timeout_recipient", "hashlock_claimant",
                  "hashlocks", "early_refund_hash"],
                 rows)
    cfg.summary = {"n": spec.n, "actions": len(plan.actions),
                   "problems": problems, "valid": not problems}
    _write_manifest(cfg)
    return 0 if not problems else 1


# ---------------------------------------------------------------------------
# Entry point.

_COMMANDS = {
    "htlc-surface": cmd_htlc_surface,
    "quickswap-sr": cmd_quickswap_sr,
    "validate": cmd_validate,
    "montecarlo": cmd_montecarlo,
    "cyclic-plan": cmd_cyclic_plan,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapsim",
        description="Atomic-swap game solvers, protocol simulator, and validators.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        s = sub.add_parser(name)
        s.add_argument("--params", help="flat key=value parameter file")
        s.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="inline parameter override (repeatable)")
        s.add_argument("--out", default=".", help="output directory")
        s.add_argument("--seed", type=int, default=0)
        s.add_argument("--format", choices=("csv", "json"), default="csv")
        s.add_argument("--normalization", choices=("raw", "conditional"),
                       default="conditional")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be a non-negative integer", file=sys.stderr)
        return 2
    try:
        params = _resolve_params(args.subcommand, args.params, args.set)
        cfg = RunConfig(
            subcommand=args.subcommand,
            params=params,
            out_dir=Path(args.out),
            seed=args.seed,
            format=args.format,
            normalization=args.normalization,
        )
        return _COMMANDS[args.subcommand](cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
