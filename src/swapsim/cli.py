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
from itertools import islice
from pathlib import Path

import numpy as np

from . import cyclic as cyclic_mod
from . import htlcgame, quickswapgame
from .numerics import QuadratureDepthError
from .pricemodel import GbmParams
from .protocol import (
    build_htlc_instance,
    build_quickswap_instance,
    check_properties,
    mc_success_rate_htlc,
    mc_success_rate_quickswap,
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
    "uniform_delay_discounting": False,
}
_QUICK_DEFAULTS: dict = {"D": 12.0, "rho": 0.001}  # the game's: only its lock plan reads Delta
_XA_GRID_DEFAULTS: dict = {"xa_min": 1.0, "xa_max": 3.0, "xa_step": 0.1}
_DELAY_GRID_DEFAULTS: dict = {
    "t_min": 0.0, "t_max": 20.0, "tp_min": 0.0, "tp_max": 21.0, "delay_step": 1.0,
}
_MC_DEFAULTS: dict = {"paths": 100_000, "cells": 5}
# The oracles draw both types of every path of a cell at once, about 10 B a
# path, and prices only for the paths where both are interested: 4e6 paths
# peaked at 77 MB at the default types on a 2-CPU x86 host.
_MAX_MC_PATHS = 4_000_000
# Most cells montecarlo may draw of each game; a cell's draws are freed before
# the next.  At the limit, on the same host, the default 100,000 paths ran
# 2.9 s and peaked at 40 MB, and 4e6 paths ran 110 s and peaked at 77.5 MB.
_MAX_MC_CELLS = 1_000
# The cells ``montecarlo`` can draw: HTLC x_a from _MC_XA and Quick Swap x_a
# from _MC_QS_XA, both rounded to 0.1; HTLC T and T' whole numbers below
# _MC_DELAYS.
_MC_XA = (1.5, 2.4)
_MC_QS_XA = (1.2, 2.6)
_MC_DELAYS = 4
# Decimals z is written to.  z = (freq - analytic) / se is ill-conditioned in
# the analytic rate: at 1e5 paths a 1-ulp move of a rate moves z by about
# 4e-14, and the rates are gated to 1e-9 only, which moves z by up to 1e-6.
# The table, max_abs_z, all_within_3se and the exit status all use the
# written z.
_Z_DECIMALS = 6
_CYCLIC_DEFAULTS: dict = {
    "n": 3, "amounts": (), "taus": (), "locktimes": (),
    "D": 12.0, "Delta": 2.0, "rho": 0.001, "t_eps": 1.0,
}
# Most parties a cyclic spec may have.  ``validate kind=cyclic`` runs 2n + 1
# traces of O(n) events each: about 4.4 s at this limit on a 2-CPU x86 host
# (Intel Xeon, Python 3.11.7).
# Checked before the default per-party tuples are built.
_MAX_CYCLIC_N = 256

# Each validate kind takes its plan's inputs, ``kind``, and sigma (set by the audit benchmark; ROADMAP
# item 18).  Its grid judges traces at a constant price, undiscounted, with fixed-hour delays: plans take
# _VALIDATE_GAME and other game defaults, whose keys a price-driven profile (items 6, 16, 25) brings back.
_VALIDATE_GAME: dict = {"mu": 0.0, "r_a": 0.0, "r_b": 0.0, "eps": 0.0}
_PLAN_DEFAULTS = {k: _BASE_DEFAULTS[k] for k in "x_a x_yb_t1 t_a t_b tau_a tau_b t_eps sigma".split()}
_VALIDATE_PARAMS: dict[str, dict] = {
    "htlc": {**_PLAN_DEFAULTS, "rho": _QUICK_DEFAULTS["rho"], "kind": "htlc"},
    "quickswap": {**_PLAN_DEFAULTS, **_QUICK_DEFAULTS, "Delta": 2.0, "kind": "quickswap"},
    "cyclic": {**_CYCLIC_DEFAULTS, "kind": "cyclic"},
}
# The solvers take no x_a: their x_a axis or cell draws set it.
_SOLVER_DEFAULTS: dict = {k: v for k, v in _BASE_DEFAULTS.items() if k != "x_a"}
# Every key a subcommand accepts, with its default; a value given for a key is
# parsed as the type of that key's default (see _parse).  A subcommand takes
# only the keys its run reads: quickswap-sr's participation report builds its
# own delay grid, and no action of a cyclic plan depends on t_eps (validate
# kind=cyclic's traces do).
_PARAMS: dict[str, dict] = {
    "htlc-surface": {**_SOLVER_DEFAULTS, **_XA_GRID_DEFAULTS, **_DELAY_GRID_DEFAULTS},
    "quickswap-sr": {**_SOLVER_DEFAULTS, **_QUICK_DEFAULTS, **_XA_GRID_DEFAULTS},
    "validate": _VALIDATE_PARAMS["quickswap"],
    "montecarlo": {**_SOLVER_DEFAULTS, **_QUICK_DEFAULTS, **_MC_DEFAULTS},
    "cyclic-plan": {k: v for k, v in _CYCLIC_DEFAULTS.items() if k != "t_eps"},
}
# Largest grid htlc-surface or quickswap-sr may ask for, in cells.  Bands are
# solved in lockstep blocks of at most 4,096 rows, and tables are written a
# block of rows at a time, so the limit is loose.  On a 2-CPU x86 host (median
# of 3 runs), quickswap-sr at the limit (20,000 x_a) ran 5.4 s and peaked at
# 55.5 MB, and the limit refuses htlc-surface grids that run well:
# xa_step=0.01 (92,862 cells) took 0.3 s and 40 MB in CSV and 0.9 s and 56 MB
# in JSON, and xa_step=0.002 (462,462 cells) took 1.7 s and 59 MB in CSV.
_MAX_GRID_CELLS = 20_000


@dataclass
class RunConfig:
    """Resolved invocation: subcommand plus every knob it consumes."""

    subcommand: str
    params: dict
    out_dir: Path
    seed: int | None = None  # montecarlo's --seed; no other subcommand draws
    format: str = "csv"
    outputs: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


class ConfigError(ValueError):
    pass


def _number(s: str) -> int | float:
    """An int literal stays an int, so the manifest echoes it as given."""
    try:
        value = int(s)
    except ValueError:
        return float(s)
    float(value)  # OverflowError for an int no float can hold
    return value


def _whole(s: str) -> int:
    value = _number(s)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(s)
    return int(value)


# Default's type -> (what a value must be, parser of its stripped text).
_RULES = {
    bool: ("true or false", lambda s: {"true": True, "false": False}[s.lower()]),
    int: ("a whole number", _whole),
    float: ("a number", _number),
    tuple: ("a comma list of numbers", lambda s: tuple(float(x) for x in s.split(",") if x.strip())),
    str: ("text", str),
}


def _parse(key: str, text: str, default):
    what, parse = _RULES[type(default)]
    s = text.strip()
    try:
        return parse(s)
    except (KeyError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {what}, got '{s}'") from None


def _read_params_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment.  Values stay text."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        out[key.strip()] = value
    return out


def _resolve_params(subcommand: str, file_path: str | None, sets: list[str]) -> dict:
    defaults = _PARAMS[subcommand]
    texts = _read_params_file(file_path) if file_path else {}
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        texts[key.strip()] = value
    if subcommand == "validate":  # the kind picks the key set
        kind = texts.get("kind", defaults["kind"]).strip()
        if kind not in _VALIDATE_PARAMS:
            raise ConfigError(f"kind must be htlc, quickswap, or cyclic, got {kind!r}")
        defaults, subcommand = _VALIDATE_PARAMS[kind], f"validate kind={kind}"
    unknown = sorted(set(texts) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown parameter(s) for {subcommand}: {', '.join(unknown)}")
    return {**defaults, **{k: _parse(k, text, defaults[k]) for k, text in texts.items()}}


def _swap_params(p: dict) -> htlcgame.SwapParams:
    """The swap of ``p``; a key it does not hold (x_a) takes its default."""
    fields = {k: p.get(k, v) for k, v in _BASE_DEFAULTS.items() if k not in ("mu", "sigma")}
    return htlcgame.SwapParams(**fields, gbm=GbmParams(mu=p["mu"], sigma=p["sigma"]))


def _quick_params(p: dict) -> quickswapgame.QuickSwapParams:
    return quickswapgame.QuickSwapParams(
        base=_swap_params(p), **{k: p[k] for k in ("D", "Delta", "rho") if k in p})


def _check_horizons(base: htlcgame.SwapParams, tp_min: float = 0.0) -> None:
    """Refuse, before any band solve, a success rate with a zero horizon: A
    decides tau_b hours after B's lock and B locks tau_a + T' hours after the
    start.  Over no hours the price law is a point, and the integrand steps
    at A's claim threshold and at B's band edges, where quadrature cannot
    converge."""
    if base.tau_b == 0:
        raise ConfigError("tau_b must be > 0: the success rate needs a claim horizon")
    if base.tau_a + tp_min == 0:
        name = "tau_a" if tp_min == 0 else "tau_a + tp_min"
        raise ConfigError(f"{name} must be > 0: the success rate needs a lock horizon")


def _cyclic_spec(p: dict) -> cyclic_mod.CyclicSpec:
    n = p["n"]
    if n > _MAX_CYCLIC_N:
        raise ConfigError(f"n must be <= {_MAX_CYCLIC_N}, got {n}")
    return cyclic_mod.CyclicSpec(
        n=n, amounts=p["amounts"] or (2.0,) * n, taus=p["taus"] or (3.0,) * n,
        locktimes=p["locktimes"] or tuple(48.0 - 6.0 * i for i in range(n)),
        D=p["D"], Delta=p["Delta"], rho=p["rho"], t_eps=p.get("t_eps", _CYCLIC_DEFAULTS["t_eps"]),
    )


def _grid(*axes: tuple[float, float, float]) -> list[np.ndarray]:
    """One array per ``(min, max, step)`` axis, refusing grids above _MAX_GRID_CELLS.
    An axis holds ``min + k * step`` up to ``max`` (within 1e-9 steps), never past it,
    rounded to 10 decimals, or to 9 digits below the step's leading digit where
    that is finer, so an axis keeps its points at any scale."""
    counts, digits = [], []
    for lo, hi, step in axes:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigError(f"grid axis needs finite bounds with min <= max, got [{lo}, {hi}]")
        if not (step > 0 and math.isfinite(step)):
            raise ConfigError(f"grid step must be > 0 and finite, got {step}")
        span = (hi - lo) / step
        counts.append(math.floor(span + 1e-9) + 1 if math.isfinite(span) else math.inf)
        digits.append(max(10, 9 - math.floor(math.log10(step))))
    cells = math.prod(counts)
    if cells > _MAX_GRID_CELLS:
        raise ConfigError(f"grid of {cells} cells is above the limit of {_MAX_GRID_CELLS}")
    return [np.array([round(lo + step * k, d) for k in range(count)])
            for (lo, _, step), count, d in zip(axes, counts, digits)]


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
    return value


def _csv_cells(col) -> list[str]:
    if isinstance(col, np.ndarray) and col.dtype == bool:
        return ["1" if v else "0" for v in col.tolist()]
    if isinstance(col, np.ndarray):
        # Format each distinct bit pattern once (so -0.0 and 0.0 stay apart):
        # a grid's axis columns repeat a few values hundreds of times.
        bits = np.ascontiguousarray(col, dtype=float).view(np.int64)
        uniq, inverse = np.unique(bits, return_inverse=True)
        texts = ["NA" if math.isnan(v) else format(v, ".12g") for v in uniq.view(float).tolist()]
        return [texts[i] for i in inverse.tolist()]
    texts = [_fmt(v) for v in col]
    return ['"' + t.replace('"', '""') + '"' if "," in t or '"' in t else t for t in texts]


def _json_cells(col) -> list:
    if isinstance(col, np.ndarray) and col.dtype == bool:
        return col.tolist()
    if isinstance(col, np.ndarray):
        return [None if math.isnan(v) else v for v in col.tolist()]
    return [_jsonable(v) for v in col]


def _write_json(cfg: RunConfig, name: str, payload) -> None:
    """Write ``payload`` to ``name`` in the output directory as sorted, indented JSON."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8", newline="\n")


def _write_columns(cfg: RunConfig, name: str, columns: dict) -> None:
    """Write one table, given as header -> column.

    A column is a float ndarray (NaN written as NA, or null in JSON), a bool
    ndarray, or a list of cells of any type ``_fmt``/``_jsonable`` take.
    """
    header = list(columns)
    if cfg.format == "csv":
        name += ".csv"
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        # The bytes of one join of every line, written 1,024 lines at a time
        # so that the text of the table is never held; each block formats
        # the distinct bit patterns of its part of a column once.
        n_rows = min(map(len, columns.values()), default=0)
        with open(cfg.out_dir / name, "w", encoding="utf-8", newline="\n") as out:
            out.write(",".join(header) + "\n")
            for first in range(0, n_rows, 1024):
                cells = [_csv_cells(col[first:first + 1024]) for col in columns.values()]
                out.write("\n".join(map(",".join, zip(*cells))) + "\n")
    else:
        name += ".json"
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        # The bytes of _write_json(rows), written 256 row objects at a time
        # without the brackets of each chunk's list, so that neither the rows
        # nor the text of the whole table is held.
        rows = zip(*map(_json_cells, columns.values()))
        with open(cfg.out_dir / name, "w", encoding="utf-8", newline="\n") as out:
            sep = "["
            while chunk := [dict(zip(header, row)) for row in islice(rows, 256)]:
                out.write(sep + json.dumps(chunk, indent=2, sort_keys=True)[1:-2])
                sep = ","
            out.write("[]\n" if sep == "[" else "\n]\n")
    cfg.outputs.append(name)


def _write_table(cfg: RunConfig, name: str, header: list[str], rows: list[list]) -> None:
    """Write one table given as a header and a list of rows of its length."""
    columns = map(list, zip(*rows)) if rows else ([] for _ in header)
    _write_columns(cfg, name, dict(zip(header, columns)))


def _write_manifest(cfg: RunConfig) -> None:
    _write_json(cfg, "manifest.json", {
        "subcommand": cfg.subcommand,
        **({} if cfg.seed is None else {"seed": cfg.seed}),
        "format": cfg.format,
        "params": {k: _jsonable(v) for k, v in sorted(cfg.params.items())},
        "outputs": sorted(cfg.outputs),
        "summary": {k: _jsonable(v) for k, v in sorted(cfg.summary.items())},
    })


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_htlc_surface(cfg: RunConfig) -> int:
    p = cfg.params
    base = _swap_params(p)
    _check_horizons(base, p["tp_min"])
    xa, ts, tps = _grid((p["xa_min"], p["xa_max"], p["xa_step"]),
                        (p["t_min"], min(p["t_max"], base.claim_delay_window), p["delay_step"]),
                        (p["tp_min"], min(p["tp_max"], base.lock_delay_window), p["delay_step"]))
    grid = htlcgame.sr_surface(base, xa, ts, tps)
    # Cells in (x_a, T, T') row-major order; sr_raw and sr_conditional are
    # NaN exactly where participation fails.
    _write_columns(cfg, "htlc_surface", {
        "x_a": np.repeat(xa, len(ts) * len(tps)),
        "T": np.tile(np.repeat(ts, len(tps)), len(xa)),
        "T_prime": np.tile(tps, len(xa) * len(ts)),
        "sr_raw": grid.raw.ravel(),
        "sr_conditional": grid.conditional.ravel(),
        "participation_flag": ~grid.na_mask.ravel(),
    })
    col = grid.conditional
    finite = col[~np.isnan(col)]
    cfg.summary = {
        "cells": int(col.size),
        "na_cells": int(np.isnan(col).sum()),
        "max_sr": float(finite.max()) if finite.size else None,
        "T_max": ts[-1], "T_prime_max": tps[-1],  # the last written: each axis is clipped to its window
    }
    _write_manifest(cfg)
    return 0


def cmd_quickswap_sr(cfg: RunConfig) -> int:
    p = cfg.params
    q = _quick_params(p)
    _check_horizons(q.base)
    (xa,) = _grid((p["xa_min"], p["xa_max"], p["xa_step"]))
    norm = q.base.theta_1 * q.base.theta_2
    # The report already holds the premium SR per x_a; reuse it rather than
    # solving each band again.
    report = quickswapgame.compare_participation(q.base, q, xa)
    _write_columns(cfg, "quickswap_sr", {
        "x_a": xa,
        "sr_raw": report.quick_sr,
        "sr_conditional": report.quick_sr / norm if norm > 0 else np.zeros(len(xa)),
        "x_t4_star": quickswapgame.claim_threshold_t4(q, x_a=xa),
    })

    report_payload = {
        "htlc_range_zero_delay": _jsonable(report.htlc_range_zero_delay),
        "htlc_range_worst_delay": _jsonable(report.htlc_range_worst_delay),
        "quick_range": _jsonable(report.quick_range),
        "quick_contains_htlc": report.quick_contains_htlc,
        "quick_strictly_contains_worst": report.quick_strictly_contains_worst,
    }
    _write_json(cfg, "participation.json", report_payload)
    cfg.outputs.append("participation.json")
    cfg.summary = dict(report_payload)
    _write_manifest(cfg)
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    p, kind = cfg.params, cfg.params["kind"]
    if kind != "cyclic":
        game = {**p, **_VALIDATE_GAME}
        instance = (build_quickswap_instance(_quick_params(game)) if kind == "quickswap"
                    else build_htlc_instance(_swap_params(game), rho=p["rho"]))
        report = check_properties(instance)
        violations = report.safety_violations
        cfg.summary = {"kind": kind, "rows": len(report.rows),
                       "safety_violations": len(violations), "liveness_ok": report.liveness_ok}
        ok = not violations
        if kind == "htlc":
            # The plain swap pays no premium, so it is *expected* to fail safety
            # on grief profiles exactly when a lockup costs the victim something
            # (rho > 0); the check passes when violations appear iff rho > 0 and
            # are confined to grief profiles.
            confined = all("grief" in r.profile for r in violations)
            cfg.summary["violations_confined_to_grief"] = confined
            ok = bool(violations) == (p["rho"] > 0) and confined
        cfg.summary["passed"] = ok and report.liveness_ok and report.correctness_ok
        rows = [[r.profile, r.outcome, r.correctness, r.safety, r.liveness, len(r.witnesses)]
                for r in report.rows]
    else:
        spec = _cyclic_spec(p)
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
        cfg.summary = {"kind": kind, "rows": len(rows),
                       "plan_problems": len(problems), "passed": ok}
    _write_table(cfg, "validate",
                 ["profile", "outcome", "correctness", "safety", "liveness", "witnesses"], rows)
    _write_manifest(cfg)
    return 0 if cfg.summary["passed"] else 1


def _z_score(freq: float, analytic: float, paths: int) -> float:
    # The standard error is the binomial one at the analytic rate, not at
    # ``freq``: no success at a rare cell is a likely draw, not a huge z.
    var = analytic * (1.0 - analytic)
    if var > 0:
        return (freq - analytic) / math.sqrt(var / paths)
    return 0.0 if freq == analytic else math.copysign(math.inf, freq - analytic)


def _written_z(freq: float, analytic: float, paths: int) -> float:
    """z as written: rounded to _Z_DECIMALS, with no negative zero."""
    return round(_z_score(freq, analytic, paths), _Z_DECIMALS) + 0.0


def _mc_xa(bounds: tuple[float, float]) -> np.ndarray:
    """Every value ``round(uniform(*bounds), 1)`` can take."""
    lo, hi = bounds
    return np.round(np.linspace(lo, hi, round((hi - lo) / 0.1) + 1), 1)


def cmd_montecarlo(cfg: RunConfig) -> int:
    p = cfg.params
    if cfg.seed < 0:
        raise ConfigError("--seed must be a non-negative integer")
    paths = p["paths"]
    if not 1_000 <= paths <= _MAX_MC_PATHS:
        raise ConfigError(f"paths must be in [1000, {_MAX_MC_PATHS}], got {paths}")
    cells = p["cells"]
    if not 1 <= cells <= _MAX_MC_CELLS:
        raise ConfigError(f"cells must be >= 1 and <= {_MAX_MC_CELLS}, got {cells}")
    rng = np.random.default_rng(cfg.seed)
    base = _swap_params(p)
    quick = _quick_params(p)
    _check_horizons(base)
    # Both windows must hold every delay the draw can produce, so whether a
    # config is accepted does not depend on the seed.
    htlcgame._check_delay("claim delay T", _MC_DELAYS - 1, base.claim_delay_window)
    htlcgame._check_delay("lock delay T'", _MC_DELAYS - 1, base.lock_delay_window)
    # The bands (they depend on x_a and T only) and the analytic SR of every
    # drawable cell are solved once per job, before the first draw: the
    # bands in one lockstep call and the rates as one surface table.
    xa = _mc_xa(_MC_XA)
    ts = np.arange(float(_MC_DELAYS))
    bands = htlcgame.continuation_band_t2(base, ts, x_a=xa)
    surface = htlcgame.sr_surface(base, xa, ts, ts, bands)
    if surface.na_mask.all():
        raise ConfigError(
            f"A never starts the HTLC swap at any of the {surface.na_mask.size} cells montecarlo "
            f"draws (x_a {_MC_XA[0]}..{_MC_XA[1]}, T and T' 0..{_MC_DELAYS - 1})")
    row_of = {x_a: i for i, x_a in enumerate(xa.tolist())}
    rows = []
    picked = 0
    while picked < cells:  # plain-swap cells, skipping non-participating ones
        x_a = float(np.round(rng.uniform(*_MC_XA), 1))
        T = int(rng.integers(0, _MC_DELAYS))
        Tp = int(rng.integers(0, _MC_DELAYS))
        i = row_of[x_a]
        if surface.na_mask[i, T, Tp]:
            continue
        analytic = float(surface.raw[i, T, Tp])
        freq, se = mc_success_rate_htlc(base.with_x_a(x_a), float(T), float(Tp), paths,
                                        int(rng.integers(2**31)), bands[i][T])
        rows.append(["htlc", x_a, float(T), float(Tp), analytic, freq, se,
                     _written_z(freq, analytic, paths)])
        picked += 1

    xa = _mc_xa(_MC_QS_XA)
    quick_bands = quickswapgame.continuation_band_t3(quick, x_a=xa)
    quick_srs = quickswapgame.success_rate(quick, quick_bands, x_a=xa)
    row_of = {x_a: i for i, x_a in enumerate(xa.tolist())}
    for _ in range(cells):
        x_a = float(np.round(rng.uniform(*_MC_QS_XA), 1))
        i = row_of[x_a]
        analytic = float(quick_srs[i])
        freq, se = mc_success_rate_quickswap(quick.with_x_a(x_a), paths, int(rng.integers(2**31)),
                                             quick_bands[i])
        rows.append(["quickswap", x_a, 0.0, 0.0, analytic, freq, se,
                     _written_z(freq, analytic, paths)])

    worst = max(abs(row[-1]) for row in rows)
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


def _build_parser(names=tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The CLI parser with the subparsers of ``names`` (all by default).

    Built with fewer, it lists every subcommand as the metavar of the
    subcommand argument, so that an error after the subcommand prints the
    full parser's usage line.  The full parser needs no metavar, and must
    have none: an error about the subcommand itself would name it."""
    parser = argparse.ArgumentParser(
        prog="swapsim",
        description="Atomic-swap game solvers, protocol simulator, and validators.",
    )
    metavar = None if set(names) == set(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    # Every subcommand takes the same options; only montecarlo, which draws, takes --seed.
    for name in names:
        s = sub.add_parser(name)
        s.add_argument("--params", help="flat key=value parameter file")
        s.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="inline parameter override (repeatable)")
        s.add_argument("--out", default=".", help="output directory")
        if name == "montecarlo":
            s.add_argument("--seed", type=int, default=0)
        s.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A call builds only its subcommand's parser; the top-level help, and an
    # unknown or missing subcommand, get every subparser.
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    args = _build_parser(names).parse_args(argv)
    try:
        params = _resolve_params(args.subcommand, args.params, args.set)
        cfg = RunConfig(
            subcommand=args.subcommand,
            params=params,
            out_dir=Path(args.out),
            seed=getattr(args, "seed", None),
            format=args.format,
        )
        return _COMMANDS[args.subcommand](cfg)
    except (ConfigError, ValueError, OSError, QuadratureDepthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
