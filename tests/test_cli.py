import dataclasses
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from swapsim import cli, cyclic, htlcgame, quickswapgame
from swapsim.cli import main
from swapsim.numerics import QuadratureDepthError


def run_cli(*args: str) -> int:
    return main(list(args))


def test_htlc_surface_csv_schema_and_na_literal(tmp_path):
    out = tmp_path / "run"
    code = run_cli("htlc-surface", "--out", str(out),
                   "--set", "xa_step=1.0", "--set", "t_max=2", "--set", "tp_max=2")
    assert code == 0
    lines = (out / "htlc_surface.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x_a,T,T_prime,sr_raw,sr_conditional,participation_flag"
    assert len(lines) == 1 + 3 * 3 * 3
    # x_a = 1 never participates: serialized as the NA literal with flag 0.
    na_row = next(l for l in lines[1:] if l.startswith("1,0,0,"))
    assert na_row == "1,0,0,NA,NA,0"
    # The baseline cell carries numbers and flag 1.
    ok_row = next(l for l in lines[1:] if l.startswith("2,0,0,"))
    assert ok_row.endswith(",1") and "NA" not in ok_row


def test_htlc_surface_json_uses_null(tmp_path):
    out = tmp_path / "run"
    code = run_cli("htlc-surface", "--out", str(out), "--format", "json",
                   "--set", "xa_step=2.0", "--set", "t_max=0", "--set", "tp_max=0")
    assert code == 0
    rows = json.loads((out / "htlc_surface.json").read_text())
    by_xa = {r["x_a"]: r for r in rows}
    assert by_xa[1.0]["sr_raw"] is None
    assert by_xa[1.0]["participation_flag"] is False
    assert by_xa[3.0]["sr_raw"] is None


def test_manifest_echoes_resolved_params(tmp_path):
    out = tmp_path / "run"
    assert run_cli("htlc-surface", "--out", str(out),
                   "--set", "sigma=0.2", "--set", "xa_step=1.0",
                   "--set", "t_max=0", "--set", "tp_max=0") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "seed" not in manifest  # only montecarlo draws
    assert manifest["params"]["sigma"] == 0.2
    assert manifest["params"]["t_a"] == 48.0  # defaults echoed too
    assert "htlc_surface.csv" in manifest["outputs"]
    assert run_cli("montecarlo", "--out", str(out), "--seed", "5",
                   "--set", "paths=1000", "--set", "cells=1") == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 5


def test_rerun_is_byte_identical(tmp_path):
    runs = [
        ("montecarlo", "--seed", "11", "--set", "paths=2000", "--set", "cells=2"),
        ("htlc-surface", "--set", "xa_step=0.5", "--set", "t_max=4", "--set", "tp_max=4",
         "--set", "delay_step=2"),
        ("quickswap-sr", "--set", "xa_step=0.5"),
        ("validate", "--set", "kind=cyclic", "--set", "n=3", "--set", "Delta=1.0"),
        ("cyclic-plan", "--set", "n=4", "--set", "Delta=1.0"),
    ]
    for i, args in enumerate(runs):
        out1, out2 = tmp_path / f"{i}a", tmp_path / f"{i}b"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert "manifest.json" in names and len(names) > 1
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (args[0], name)


def test_unknown_key_rejected(tmp_path):
    assert run_cli("htlc-surface", "--out", str(tmp_path), "--set", "bogus=1") == 2


def test_params_file_round_trip(tmp_path):
    cfg = tmp_path / "params.txt"
    cfg.write_text("sigma = 0.2   # volatile regime\nxa_step = 1.0\nt_max=0\ntp_max=0\n")
    out = tmp_path / "run"
    assert run_cli("htlc-surface", "--params", str(cfg), "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["sigma"] == 0.2


@pytest.mark.skipif(os.name != "posix", reason="the C locale is a POSIX locale")
def test_params_file_is_read_as_utf8_under_any_locale(tmp_path):
    # Under the C locale without UTF-8 mode, the locale's encoding is ASCII.
    cfg = tmp_path / "params.txt"
    cfg.write_text("# régime calme\nxa_step = 1.0\nt_max = 0\ntp_max = 0\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "swapsim.cli", "htlc-surface",
                           "--params", str(cfg), "--out", str(tmp_path / "run")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args, says", [
    (("htlc-surface", "--set", "xa_step=0"), "step must be > 0"),
    (("htlc-surface", "--set", "delay_step=-1"), "step must be > 0"),
    (("htlc-surface", "--set", "xa_min=3", "--set", "xa_max=1"), "min <= max"),
    (("validate", "--set", "kind=htlc", "--set", "tau_a=nan"), "tau_a must be finite"),
    (("validate", "--set", "kind=cyclic", "--set", "t_eps=-5"), "t_eps >= 0"),
    (("cyclic-plan", "--set", "n=2.7"), "n must be a whole number"),
    (("montecarlo", "--set", "cells=0"), "cells must be >= 1"),
    (("htlc-surface", "--set", "x_yb_t1=1,2"), "x_yb_t1 must be a number, got '1,2'"),
    (("htlc-surface", "--set", "xa_step=1,2"), "xa_step must be a number"),
    (("validate", "--set", "kind=cyclic", "--set", "amounts=2"), "amounts must have one entry"),
    (("cyclic-plan", "--set", "amounts=abc"), "amounts must be a comma list of numbers"),
    (("htlc-surface", "--set", "uniform_delay_discounting=no"),
     "uniform_delay_discounting must be true or false, got 'no'"),
    (("htlc-surface", "--set", "x_yb_t1=true"), "x_yb_t1 must be a number, got 'true'"),
    (("htlc-surface", "--set", "x_yb_t1=1" + "0" * 400), "x_yb_t1 must be a number"),
    (("htlc-surface", "--set", "delay_step=inf"), "step must be > 0 and finite"),
    # One x_a cell past the limit; the grid is refused before any solve.
    (("htlc-surface", "--set", "xa_step=0.0001", "--set", "t_max=0", "--set", "tp_max=0"),
     "grid of 20001 cells is above the limit of 20000"),
    (("montecarlo", "--set", "paths=4000001"), "paths must be in [1000, 4000000], got 4000001"),
    # No claim delay fits the window: refused before any draw.
    (("montecarlo", "--set", "t_b=4", "--set", "tau_b=1", "--set", "tau_a=1", "--set", "eps=4",
      "--set", "D=2.5"), "outside [0, -1]"),
    (("cyclic-plan", "--set", "n=257"), "n must be <= 256, got 257"),
    (("validate", "--set", "kind=cyclic", "--set", "n=257"), "n must be <= 256, got 257"),
    (("htlc-surface", "--set", "t1_stop_value=principal"),
     "unknown parameter(s) for htlc-surface: t1_stop_value"),
    # One rule for the premium stagger: Delta >= 0 in the two-party and the
    # cyclic plan.  The game solvers read no Delta, so they take none.
    (("quickswap-sr", "--set", "Delta=-2"), "unknown parameter(s) for quickswap-sr: Delta"),
    (("validate", "--set", "kind=quickswap", "--set", "Delta=-2"), "Delta and rho must be >= 0"),
    (("montecarlo", "--set", "Delta=-2"), "unknown parameter(s) for montecarlo: Delta"),
    (("cyclic-plan", "--set", "Delta=-2"), "Delta, rho, t_eps >= 0"),
    # A price of 0 used to end validate in a ZeroDivisionError with exit 1.
    (("validate", "--set", "kind=htlc", "--set", "x_yb_t1=0"), "x_yb_t1 must be > 0"),
    (("validate", "--set", "kind=quickswap", "--set", "x_yb_t1=0"), "x_yb_t1 must be > 0"),
    (("montecarlo", "--set", "x_yb_t1=0"), "x_yb_t1 must be > 0"),
    # A lock of 0 coins used to end validate with the ledger's "output
    # amount must be > 0", which names no parameter.
    (("validate", "--set", "kind=quickswap", "--set", "rho=0"), "rho must be > 0"),
    (("validate", "--set", "kind=htlc", "--set", "x_a=0"), "x_a must be > 0"),
    (("validate", "--set", "kind=quickswap", "--set", "x_a=0"), "x_a must be > 0"),
    # One rule for a plan's premiums: the cyclic plan refuses rho = 0 as the
    # two-party builders do, so that neither writes nor runs zero premiums.
    (("validate", "--set", "kind=cyclic", "--set", "rho=0"),
     "rho must be > 0, or the plan locks 0 coins"),
    (("cyclic-plan", "--set", "rho=0"), "rho must be > 0, or the plan locks 0 coins"),
    # Rates whose discount or growth factors leave the float range used to
    # end in an OverflowError, a RuntimeWarning, an error naming no
    # parameter, or (validate, which never reads them) exit 0.  validate takes
    # none: its plans fix the rates at 0.
    (("htlc-surface", "--set", "mu=30"), "mu must be within +-1.13747 per hour"),
    (("quickswap-sr", "--set", "mu=30"), "mu must be within +-1.13747 per hour"),
    (("montecarlo", "--set", "mu=30"), "mu must be within +-1.13747 per hour"),
    (("htlc-surface", "--set", "r_b=-30"), "r_b must be within +-1.13747 per hour"),
    (("htlc-surface", "--set", "mu=20"), "mu must be within"),
    (("htlc-surface", "--set", "r_a=1e300"), "r_a must be within"),
    (("validate", "--set", "kind=htlc", "--set", "mu=30"), "unknown parameter(s) for validate kind=htlc: mu"),
    (("validate", "--set", "kind=quickswap", "--set", "t_a=480", "--set", "r_a=0.2"),
     "unknown parameter(s) for validate kind=quickswap: r_a"),
    # Each validate kind takes only the keys its builder reads.
    (("validate", "--set", "kind=cyclic", "--set", "sigma=-5", "--set", "theta_1=7"),
     "unknown parameter(s) for validate kind=cyclic: sigma, theta_1"),
    (("validate", "--set", "kind=cyclic", "--set", "sigma=-5"),
     "unknown parameter(s) for validate kind=cyclic: sigma"),
    (("validate", "--set", "kind=htlc", "--set", "n=-3", "--set", "D=-1"),
     "unknown parameter(s) for validate kind=htlc: D, n"),
    (("validate", "--set", "kind=htlc", "--set", "n=-3"), "unknown parameter(s) for validate kind=htlc: n"),
    (("validate", "--set", "locktimes=40,30"), "unknown parameter(s) for validate kind=quickswap: locktimes"),
    (("validate", "--set", "kind= swap "), "kind must be htlc, quickswap, or cyclic, got 'swap'"),
    # Each subcommand takes only the keys that change one of its outputs.
    (("htlc-surface", "--set", "x_a=5"), "unknown parameter(s) for htlc-surface: x_a"),
    (("quickswap-sr", "--set", "delay_step=nan"), "unknown parameter(s) for quickswap-sr: delay_step"),
    (("quickswap-sr", "--set", "delay_step=nan", "--set", "t_max=-inf"),
     "unknown parameter(s) for quickswap-sr: delay_step, t_max"),
    (("quickswap-sr", "--set", "x_a=5", "--set", "t_min=1", "--set", "tp_min=1", "--set", "tp_max=3"),
     "unknown parameter(s) for quickswap-sr: t_min, tp_max, tp_min, x_a"),
    (("montecarlo", "--set", "x_a=5"), "unknown parameter(s) for montecarlo: x_a"),
    (("cyclic-plan", "--set", "t_eps=1"), "unknown parameter(s) for cyclic-plan: t_eps"),
    # B's premium times out at D + Delta, which the lock plan checks.
    (("validate", "--set", "D=23"), "premium timeouts ill-formed: need tau_a + 2*tau_b < D + Delta < t_b"),
    (("montecarlo", "--set", "cells=1001"), "cells must be >= 1 and <= 1000, got 1001"),
])
def test_malformed_inputs_exit_2_with_an_error_line(tmp_path, capsys, args, says):
    assert run_cli(*args, "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and says in err


@pytest.mark.parametrize("args", [
    ("htlc-surface", "--set", "xa_step=0.5", "--set", "delay_step=1.5"),
    ("quickswap-sr", "--set", "xa_step=0.25"),
    ("montecarlo", "--set", "paths=1000"),
    ("validate", "--set", "kind=htlc"),
    ("validate", "--set", "kind=quickswap"),
], ids=lambda args: "-".join(args[:1] + args[2:3]))
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["growth", "decay"])
def test_largest_accepted_rates_run_clean(tmp_path, capsys, args, sign):
    # mu = +-top and r_a = r_b = -+top over the defaults' 78 hours: every
    # factor of either game's table grows (or decays) as fast as the bound
    # lets it.  The suite turns warnings into errors, so an overflow fails.
    hours = 48.0 + 24.0 + 3.0 + 3.0
    top = htlcgame._MAX_RATE_HOURS / hours  # then the largest rate SwapParams accepts
    while math.nextafter(top, math.inf) * hours <= htlcgame._MAX_RATE_HOURS:
        top = math.nextafter(top, math.inf)
    while top * hours > htlcgame._MAX_RATE_HOURS:
        top = math.nextafter(top, 0.0)
    rates = [f"mu={sign * top!r}", f"r_a={-sign * top!r}", f"r_b={-sign * top!r}"]
    code = run_cli(*args, *(a for r in rates for a in ("--set", r)), "--out", str(tmp_path / "top"))
    err = capsys.readouterr().err
    if args[0] == "validate":  # its plans fix every rate at 0, so it takes none
        assert code == 2 and err == f"error: unknown parameter(s) for validate {args[2]}: mu, r_a, r_b\n"
        return
    # Decaying rates leave montecarlo no cell where A starts: an error line.
    assert code in (0, 1) or (code == 2 and err.startswith("error: ") and err.count("\n") == 1), err
    above = f"mu={math.nextafter(top, math.inf)!r}"
    assert run_cli(*args, "--set", above, "--out", str(tmp_path / "above")) == 2
    assert "mu must be within" in capsys.readouterr().err


def test_each_validate_kind_accepts_the_fields_it_builds():
    def names(cls, *drop):
        return {f.name for f in dataclasses.fields(cls)} - set(drop)

    swap = names(htlcgame.SwapParams, "gbm") | {"mu", "sigma"}
    quick = names(quickswapgame.QuickSwapParams, "base")
    # A two-party kind takes its plan's inputs and sigma (set by the benchmark's
    # audit jobs); its plans fix the rates and eps and leave the other game
    # fields at their defaults.
    plan = {"x_a", "x_yb_t1", "t_a", "t_b", "tau_a", "tau_b", "t_eps", "sigma"}
    assert set(cli._VALIDATE_GAME) == {"mu", "r_a", "r_b", "eps"} and set(cli._VALIDATE_GAME) < swap - plan
    want = {"htlc": plan | {"rho"}, "quickswap": plan | quick, "cyclic": names(cyclic.CyclicSpec)}
    assert {kind: set(keys) - {"kind"} for kind, keys in cli._VALIDATE_PARAMS.items()} == want
    # So does every other subcommand.  The solvers take every field but x_a,
    # which their x_a axis or cell draws set, and Delta, which only the lock
    # plan reads, and the keys of that axis or draw; no action of a cyclic
    # plan depends on t_eps.
    xa_axis = {"xa_min", "xa_max", "xa_step"}
    game = quick - {"Delta"}
    want = {
        "htlc-surface": swap - {"x_a"} | xa_axis | {"t_min", "t_max", "tp_min", "tp_max", "delay_step"},
        "quickswap-sr": swap - {"x_a"} | game | xa_axis,
        "validate": set(cli._VALIDATE_PARAMS["quickswap"]),
        "montecarlo": swap - {"x_a"} | game | {"paths", "cells"},
        "cyclic-plan": names(cyclic.CyclicSpec, "t_eps"),
    }
    assert {name: set(keys) for name, keys in cli._PARAMS.items()} == want
    assert [len(cli._PARAMS[name]) for name in ("htlc-surface", "quickswap-sr", "montecarlo", "cyclic-plan")] \
        == [26, 23, 22, 7]
    assert [len(keys) for keys in cli._VALIDATE_PARAMS.values()] == [10, 12, 9]


# The keys that move no output but manifest.json, with the reason each stays.
_VERDICTS_ONLY = ("the table writes each trace's verdicts, which depend only on the kind "
                  "and the profile (ROADMAP item 23)")
_PLAN_KEYS = ("x_a", "x_yb_t1", "t_a", "t_b", "tau_a", "tau_b", "t_eps", "rho")
_AUDIT_ONLY = "read by no plan; the benchmark's audit jobs set it (ROADMAP item 18)"
_INERT_KEYS = {
    "htlc-surface": {},
    "quickswap-sr": dict.fromkeys(
        ("t_b", "uniform_delay_discounting"),
        "read only by the HTLC half of participation.json, whose x_a ranges are "
        "coarser than the move (ROADMAP item 5)"),
    "montecarlo": {},
    "cyclic-plan": {},
    "validate kind=htlc": {**dict.fromkeys(_PLAN_KEYS, _VERDICTS_ONLY), "sigma": _AUDIT_ONLY},
    "validate kind=quickswap": {**dict.fromkeys((*_PLAN_KEYS, "Delta"), _VERDICTS_ONLY),
                                "sigma": _AUDIT_ONLY},
    "validate kind=cyclic": dict.fromkeys(
        ("amounts", "taus", "locktimes", "D", "Delta", "rho", "t_eps"), _VERDICTS_ONLY),
}
# Each subcommand and validate kind on a small grid or draw.
_SENSITIVITY_RUNS = {
    "htlc-surface": ("htlc-surface", "--set", "xa_step=0.5", "--set", "delay_step=4"),
    "quickswap-sr": ("quickswap-sr", "--set", "xa_step=0.5"),
    "montecarlo": ("montecarlo", "--set", "paths=1000", "--set", "cells=2"),
    "cyclic-plan": ("cyclic-plan",),
    "validate kind=htlc": ("validate", "--set", "kind=htlc"),
    "validate kind=quickswap": ("validate", "--set", "kind=quickswap"),
    "validate kind=cyclic": ("validate", "--set", "kind=cyclic"),
}


def _perturbed(p: dict, key: str) -> str:
    """The text of one move of ``key`` from its value in ``p``: x1.1, 0 to
    0.01, a whole number up one, a flag flipped, a list x1.1 entry by entry.
    htlc-surface's t_max and tp_max go down a step (it clips a larger one to
    the delay window) and xa_max up a step."""
    value = p[key]
    if key in ("t_max", "tp_max"):
        return repr(value - p["delay_step"])
    if key == "xa_max":
        return repr(value + p["xa_step"])
    if isinstance(value, bool):
        return str(not value)
    if isinstance(value, int):
        return str(value + 1)
    if isinstance(value, tuple):
        return ",".join(repr(1.1 * v) for v in getattr(cli._cyclic_spec(p), key))
    return repr(1.1 * value if value else 0.01)


def _output_digests(args, out: Path) -> dict:
    assert run_cli(*args, "--out", str(out)) in (0, 1), args
    return {path.name: hashlib.md5(path.read_bytes()).hexdigest()
            for path in out.iterdir() if path.name != "manifest.json"}


@pytest.mark.parametrize("name", list(_SENSITIVITY_RUNS))
def test_every_accepted_key_moves_an_output_or_is_listed(tmp_path, name):
    args = _SENSITIVITY_RUNS[name]
    p = cli._resolve_params(args[0], None, list(args[2::2]))
    base = _output_digests(args, tmp_path / "base")
    inert = {key for key in p if key != "kind"
             and _output_digests(args + ("--set", f"{key}={_perturbed(p, key)}"), tmp_path / key) == base}
    assert inert == set(_INERT_KEYS[name])


@pytest.mark.parametrize("kind", list(cli._VALIDATE_PARAMS))
def test_validate_keys_at_their_edges_end_in_a_verdict_or_an_error_line(tmp_path, capsys, kind):
    # Each value key of the kind at 0, -1, 1e-300 and 1e300 (a tuple key as a
    # one-entry list) ends in a verdict, or in one error line with no traceback.
    keys = [k for k in cli._VALIDATE_PARAMS[kind] if k != "kind"]
    for key in keys:
        for value in ("0", "-1", "1e-300", "1e300"):
            code = run_cli("validate", "--set", f"kind={kind}", "--set", f"{key}={value}",
                           "--out", str(tmp_path / f"{key}{value}"))
            err = capsys.readouterr().err
            assert code in (0, 1) or (code == 2 and err.startswith("error: ") and err.count("\n") == 1), \
                (key, value, code, err)


@pytest.mark.parametrize("kind, t_a, digest", [
    ("htlc", "20000", "d5dc04cc4a7055fe4c92ad3462bdfb05d3627ca1dc9d229d92501d4f1f0f1aaa"),
    ("quickswap", "20000", "dd94819abea9324988a0e0ecdecf0fab30a86be31fbad23063e0a77c48326fb1"),
    ("htlc", "28", "370a1c1c65c77108f01f6049bb60071ee3e42d4b0c889a24de80d61ab82d0818"),
])
def test_long_locktime_plans_validate(tmp_path, kind, t_a, digest):
    # No game value refuses a plan: at t_a = 20,000 h the default rates were
    # out of the game's bounds, and t_a = 28 = tau_a + t_b + t_eps left the
    # game's delay windows no room for eps; both exited 2.  At 20,000 h the
    # table is the default one, and at 28 h the one it had at eps = 0.
    assert run_cli("validate", "--set", f"kind={kind}", "--set", f"t_a={t_a}", "--out", str(tmp_path)) == 0
    assert _digest(tmp_path / "validate.csv") == digest


def test_htlc_surface_manifest_names_its_last_delays(tmp_path):
    # t_max and tp_max are clipped to the claim and lock delay windows (20 and
    # 21 h at the defaults), so a larger value writes the default table; the
    # manifest says which T and T' were the last written.
    runs = {"default": (), "wide": ("--set", "t_max=100", "--set", "tp_max=500"),
            "short": ("--set", "t_max=7", "--set", "tp_max=100", "--set", "delay_step=3")}
    summaries = {}
    for name, extra in runs.items():
        out = tmp_path / name
        assert run_cli("htlc-surface", "--set", "xa_step=1", *extra, "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        summaries[name] = (manifest["summary"]["T_max"], manifest["summary"]["T_prime_max"])
    assert (tmp_path / "wide" / "htlc_surface.csv").read_bytes() == \
        (tmp_path / "default" / "htlc_surface.csv").read_bytes()
    assert summaries == {"default": (20.0, 21.0), "wide": (20.0, 21.0), "short": (6.0, 21.0)}


def test_only_montecarlo_takes_a_seed(tmp_path, capsys):
    for name in ("htlc-surface", "quickswap-sr", "validate", "cyclic-plan"):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(name, "--seed", "7", "--out", str(tmp_path / name))
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    args = _SENSITIVITY_RUNS["montecarlo"]
    assert _output_digests(args + ("--seed", "7"), tmp_path / "7") != _output_digests(args, tmp_path / "0")


def test_a_free_htlc_lockup_still_validates(tmp_path):
    # The plain swap locks no premium, so rho = 0 leaves every lock funded:
    # nothing is owed to a griefed party and no profile violates safety.
    out = tmp_path / "run"
    assert run_cli("validate", "--set", "kind=htlc", "--set", "rho=0", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["safety_violations"] == 0 and manifest["summary"]["rows"] == 121


@pytest.mark.parametrize("args, code", [
    (("htlc-surface", "--set", "f_a=5"), 0),
    (("montecarlo", "--set", "f_a=5", "--set", "paths=1000"), 2),  # A never starts
    (("quickswap-sr", "--set", "xa_min=0"), 0),
])
def test_a_claim_threshold_at_or_below_zero_warns_nothing(tmp_path, args, code):
    # A's claim threshold is <= 0 at these configs.  The price kernels took
    # its log, which warned ("invalid value", "divide by zero"); under the
    # suite's warnings-as-errors the run then failed.
    assert run_cli(*args, "--out", str(tmp_path / "run")) == code


@pytest.mark.parametrize("args, says", [
    (("htlc-surface", "--set", "tau_b=0"), "tau_b must be > 0"),
    (("htlc-surface", "--set", "tau_b=0", "--set", "t_min=1"), "tau_b must be > 0"),
    (("quickswap-sr", "--set", "tau_b=0"), "tau_b must be > 0"),
    (("montecarlo", "--set", "tau_b=0"), "tau_b must be > 0"),
    (("htlc-surface", "--set", "tau_a=0"), "tau_a must be > 0"),
    (("quickswap-sr", "--set", "tau_a=0"), "tau_a must be > 0"),
    (("montecarlo", "--set", "tau_a=0"), "tau_a must be > 0"),
])
def test_zero_horizons_exit_2_before_any_band_solve(tmp_path, capsys, monkeypatch, args, says):
    # Over a zero horizon the success-rate integrand is a step, on which
    # quadrature cannot converge; these runs used to end in a traceback.
    def solve(*args, **kwargs):
        raise AssertionError("band solved")

    monkeypatch.setattr(htlcgame, "continuation_band_t2", solve)
    monkeypatch.setattr(quickswapgame, "continuation_band_t3", solve)
    assert run_cli(*args, "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err


def test_zero_lock_delay_runs_when_the_lock_horizon_is_positive(tmp_path):
    # tau_a = 0 leaves a lock horizon of T' >= tp_min > 0.
    assert run_cli("htlc-surface", "--out", str(tmp_path), "--set", "tau_a=0", "--set", "tp_min=1",
                   "--set", "xa_step=0.5", "--set", "t_max=2", "--set", "tp_max=3") == 0
    lines = (tmp_path / "htlc_surface.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 3 * 3


def test_grid_limit_counts_the_cells_of_every_axis(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_GRID_CELLS", 8)
    small = ("--set", "xa_min=2", "--set", "xa_max=2.5", "--set", "xa_step=0.5",
             "--set", "t_max=1", "--set", "tp_max=1")
    assert run_cli("htlc-surface", "--out", str(tmp_path / "a"), *small) == 0
    assert run_cli("htlc-surface", "--out", str(tmp_path / "b"), *small, "--set", "tp_max=2") == 2
    assert run_cli("quickswap-sr", "--out", str(tmp_path / "c"), "--set", "xa_step=0.25") == 2


def test_grid_axes_end_at_or_below_their_max(tmp_path):
    # A step that does not divide its axis's span stops short of max.
    assert run_cli("quickswap-sr", "--out", str(tmp_path / "q"), "--set", "xa_step=0.3") == 0
    rows = (tmp_path / "q" / "quickswap_sr.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [1.0, 1.3, 1.6, 1.9, 2.2, 2.5, 2.8]
    assert run_cli("htlc-surface", "--out", str(tmp_path / "h"), "--set", "delay_step=3") == 0
    rows = [r.split(",") for r in (tmp_path / "h" / "htlc_surface.csv").read_text().splitlines()[1:]]
    assert sorted({float(r[1]) for r in rows}) == [0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0]
    assert sorted({float(r[2]) for r in rows}) == [3.0 * k for k in range(8)]
    # Spans a float hair off a whole number still end on max.
    assert [len(axis) for axis in cli._grid((1.0, 3.0, 0.1), (0.0, 0.3, 0.1), (0.0, 20.0, 1.0))] == [21, 4, 21]


def test_grid_axes_keep_their_points_at_small_steps(tmp_path):
    # Every axis was rounded to 10 decimals, so a 1e-12 axis read 0, 0, 0.
    assert cli._grid((1e-12, 3e-12, 1e-12))[0].tolist() == [1e-12, 2e-12, 3e-12]
    assert cli._grid((2e-200, 2.2e-200, 1e-201))[0].tolist() == [2e-200, 2.1e-200, 2.2e-200]
    small = ("--set", "x_yb_t1=2e-12", "--set", "xa_min=1e-12", "--set", "xa_max=3e-12",
             "--set", "xa_step=1e-12", "--set", "t_max=0", "--set", "tp_max=0")
    assert run_cli("htlc-surface", "--out", str(tmp_path), *small) == 0
    rows = (tmp_path / "htlc_surface.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["1e-12", "2e-12", "3e-12"]


@pytest.mark.parametrize("subcommand", ["htlc-surface", "quickswap-sr"])
def test_quadrature_that_fails_to_converge_is_an_error_line(tmp_path, capsys, monkeypatch, subcommand):
    # The quadrature's depth error is one error line, not a traceback.
    def fails(f, bracket, spec):
        raise QuadratureDepthError("quadrature failed to converge on [0.0, 1.0] at depth 24")

    monkeypatch.setattr(htlcgame, "integrate", fails)
    assert run_cli(subcommand, "--out", str(tmp_path), "--set", "xa_step=1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: quadrature failed to converge") and err.count("\n") == 1


def _rates_at_scale(tmp_path, subcommand: str, k: float) -> list[tuple[str, str]]:
    """The (sr_raw, participation) columns of ``subcommand`` at x_a = x_yb_t1
    = 2k (and, of htlc-surface, T and T' up to 3)."""
    out = tmp_path / f"{subcommand}-{k:g}"
    scale = ("--set", f"x_yb_t1={2 * k!r}", "--set", f"xa_min={2 * k!r}", "--set", f"xa_max={2 * k!r}",
             "--set", f"xa_step={k!r}")
    if subcommand == "htlc-surface":
        scale += ("--set", "t_max=3", "--set", "tp_max=3")
    assert run_cli(subcommand, "--out", str(out), *scale) == 0
    name = "htlc_surface.csv" if subcommand == "htlc-surface" else "quickswap_sr.csv"
    lines = (out / name).read_text().splitlines()
    column = lines[0].split(",").index("sr_raw")
    return [line.split(",")[column] for line in lines[1:]]


@pytest.mark.parametrize("subcommand", ["htlc-surface", "quickswap-sr"])
@pytest.mark.parametrize("k", [1e-170, 1e160])
def test_extreme_price_scales_give_the_rates_of_scale_one(tmp_path, subcommand, k):
    # The root node's integrand was the price scale squared: at 2e160 it
    # overflowed and the quadrature failed to converge, and at 2e-170 it
    # underflowed, so A never started.  Both run clean now, with the rates
    # of scale 1.
    want = _rates_at_scale(tmp_path, subcommand, 1.0)
    got = _rates_at_scale(tmp_path, subcommand, k)
    assert len(got) == len(want) and "NA" not in want[:1]
    assert [v == "NA" for v in got] == [v == "NA" for v in want]
    for g, w in zip(got, want):
        if w != "NA":
            assert float(g) == pytest.approx(float(w), abs=1e-9)


def test_z_score_uses_the_analytic_standard_error():
    assert cli._z_score(0.26, 0.25, 10_000) == pytest.approx(0.01 / math.sqrt(0.1875 / 10_000))
    assert cli._z_score(0.0, 0.0, 1_000) == 0.0
    assert cli._z_score(0.001, 0.0, 1_000) == math.inf
    assert cli._z_score(0.999, 1.0, 1_000) == -math.inf


def test_montecarlo_judges_the_z_it_writes(tmp_path, monkeypatch):
    # A z that rounds to 3 at the written precision passes, as the table reads.
    monkeypatch.setattr(cli, "_z_score", lambda freq, analytic, paths: 3.0000004)
    out = tmp_path / "mc"
    assert run_cli("montecarlo", "--out", str(out), "--set", "paths=1000", "--set", "cells=1") == 0
    rows = (out / "montecarlo.csv").read_text().split()[1:]
    assert {row.rsplit(",", 1)[1] for row in rows} == {"3"}
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["max_abs_z"] == 3.0 and summary["all_within_3se"] is True
    monkeypatch.setattr(cli, "_z_score", lambda freq, analytic, paths: -3.0000006)
    assert run_cli("montecarlo", "--out", str(out), "--set", "paths=1000", "--set", "cells=1") == 1


def test_montecarlo_rare_cell_without_successes_is_not_a_failure(tmp_path):
    # The Quick Swap cell x_a = 1.4 has rate 1.98e-4: no success in 1,000
    # paths is a likely draw, and used to read as z = -6259.7.
    out = tmp_path / "mc"
    assert run_cli("montecarlo", "--out", str(out), "--seed", "0",
                   "--set", "sigma=0.03", "--set", "paths=1000") == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["all_within_3se"] is True and summary["max_abs_z"] < 3.0


def test_params_file_and_set_give_the_same_manifest(tmp_path):
    settings = ["sigma=0.2", "xa_step=1", "t_max=0", "tp_max=0", "uniform_delay_discounting=true"]
    cfg = tmp_path / "params.txt"
    cfg.write_text("".join(f"{s.replace('=', ' = ')}  # note\n" for s in settings))
    assert run_cli("htlc-surface", "--params", str(cfg), "--out", str(tmp_path / "file")) == 0
    sets = [arg for s in settings for arg in ("--set", s)]
    assert run_cli("htlc-surface", *sets, "--out", str(tmp_path / "set")) == 0
    manifests = [(tmp_path / d / "manifest.json").read_bytes() for d in ("file", "set")]
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[0])["params"]["xa_step"] == 1


@pytest.mark.parametrize("setting", ["theta_2=0"])
def test_montecarlo_exits_2_when_no_drawable_cell_participates(tmp_path, capsys, setting):
    # A never starts at any of the 160 HTLC cells the draw can produce; the
    # command used to redraw forever.
    start = time.perf_counter()
    code = run_cli("montecarlo", "--out", str(tmp_path), "--set", setting,
                   "--set", "paths=1000", "--set", "cells=1")
    assert code == 2 and time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "any of the 160 cells" in err


def test_montecarlo_rejects_tiny_path_counts(tmp_path):
    assert run_cli("montecarlo", "--out", str(tmp_path), "--set", "paths=0") == 2
    assert run_cli("montecarlo", "--out", str(tmp_path), "--set", "paths=999") == 2


@pytest.mark.parametrize("args", [
    ("montecarlo", "--set", "paths=5e6", "--set", "cells=1"),
    ("cyclic-plan", "--set", "n=2000000"),
    ("validate", "--set", "kind=cyclic", "--set", "n=2000000"),
    ("montecarlo", "--set", f"cells={cli._MAX_MC_CELLS + 1}"),
])
def test_size_limits_refuse_before_allocating(tmp_path, capsys, args):
    # Refused while the traced peak stays under 1 MB: the oracles hold at
    # most about 17 B a path, montecarlo a row per cell and the default
    # cyclic tuples about 100 B a party.
    tracemalloc.start()
    try:
        code = run_cli(*args, "--out", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and capsys.readouterr().err.startswith("error: ")
    assert peak < 1_000_000


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "71247fd3e7a8e4763c0862b5d5679eb3fd36a7fd6f911c038f13ab2d89473ac4"),
    ("json", "889b968a15b9b4aa63e3a8bcfd982d2c29f0e6e681c010aef53a2acae3a76bdc"),
])
def test_default_surface_bytes_are_pinned(tmp_path, fmt, digest):
    assert run_cli("htlc-surface", "--out", str(tmp_path), "--format", fmt) == 0
    assert _digest(tmp_path / f"htlc_surface.{fmt}") == digest


def test_default_quickswap_sr_bytes_are_pinned(tmp_path):
    assert run_cli("quickswap-sr", "--out", str(tmp_path)) == 0
    assert _digest(tmp_path / "quickswap_sr.csv") == \
        "4655472e093b04c32bde21698b70d859b59b360dd7b56936fafcbb6706d3f321"
    assert _digest(tmp_path / "participation.json") == \
        "f93acc64ec56075c7bc45a79cd22a848941445f6a54aebe3fcd80c0beef00486"


@pytest.mark.parametrize("args, table, table_digest, manifest_digest", [
    (("validate", "--set", "kind=htlc"), "validate.csv",
     "d5dc04cc4a7055fe4c92ad3462bdfb05d3627ca1dc9d229d92501d4f1f0f1aaa",
     "465fbc90feed6b6a57cbc36aa1e9fe148ebb44782028d9a8c2a6a188cdeadf29"),
    (("validate", "--set", "kind=quickswap"), "validate.csv",
     "dd94819abea9324988a0e0ecdecf0fab30a86be31fbad23063e0a77c48326fb1",
     "38607d12bb532d869de64b16591a5a06f54e29c66a841af6302b0c068d75c821"),
    (("validate", "--set", "kind=cyclic"), "validate.csv",
     "57bd4180574e4c3c5715600f6cd8ffb20e662e381f92adf4925e6f1a669248c5",
     "c65bb8d47e2fbda50a84fd992ee04031d27d9506cd8fba3ef80557638597e852"),
    (("cyclic-plan", "--set", "n=4"), "cyclic_plan.csv",
     "14b5c2d0e14370561b0e589327e3b5d314ca7ddb30aad191c783a853764cb50e",
     "0d929a14445796f4b58f3bff0915d976213781bfd7a3918e7d723e9c0f57e653"),
])
def test_default_validate_and_plan_bytes_are_pinned(tmp_path, args, table, table_digest,
                                                    manifest_digest):
    assert run_cli(*args, "--out", str(tmp_path)) == 0
    assert _digest(tmp_path / table) == table_digest
    assert _digest(tmp_path / "manifest.json") == manifest_digest


def test_table_writer_edge_cases(tmp_path):
    nan = float("nan")
    columns = {
        "f": np.array([nan, -0.0, 0.0, 2e12, 1 / 3, 2e12]),
        "b": np.array([True, False, True, False, True, False]),
        "cell": [None, nan, 2_000_000_000_000, 2e12, "A=delay(lock,6h) B=compliant", 'say "hi"'],
        "any": [True, np.bool_(False), 1, -0.0, np.float64(0.5), np.int64(7)],
    }
    cfg = cli.RunConfig("test", {}, tmp_path)
    cli._write_columns(cfg, "t", columns)
    assert (tmp_path / "t.csv").read_text() == (
        "f,b,cell,any\n"
        "NA,1,NA,1\n"
        "-0,0,NA,0\n"
        "0,1,2000000000000,1\n"
        "2e+12,0,2e+12,-0\n"
        '0.333333333333,1,"A=delay(lock,6h) B=compliant",0.5\n'
        '2e+12,0,"say ""hi""",7\n')
    cfg.format = "json"
    cli._write_columns(cfg, "t", columns)
    rows = json.loads((tmp_path / "t.json").read_text())
    assert [list(r.values()) for r in rows] == [  # keys sorted: any, b, cell, f
        [True, True, None, None],
        [False, False, None, -0.0],
        [1, True, 2_000_000_000_000, 0.0],
        [-0.0, False, 2e12, 2e12],
        [0.5, True, "A=delay(lock,6h) B=compliant", 1 / 3],
        [7, False, 'say "hi"', 2e12],
    ]
    assert '"cell": 2000000000000,' in (tmp_path / "t.json").read_text()
    assert math.copysign(1.0, rows[1]["f"]) == -1.0
    cli._write_columns(cfg, "empty", {"x": np.array([]), "y": []})
    assert (tmp_path / "empty.json").read_text() == "[]\n"
    cfg.format = "csv"
    cli._write_columns(cfg, "empty", {"x": np.array([]), "y": []})
    assert (tmp_path / "empty.csv").read_text() == "x,y\n"
    assert cfg.outputs == ["t.csv", "t.json", "empty.json", "empty.csv"]


def test_json_table_streams_its_rows(tmp_path):
    # 10,000 rows are written 256 row objects at a time, with the bytes of one
    # json.dumps of the whole list: the traced peak stays below 3x the file.
    n = 10_000
    columns = {
        "x_a": np.round(1.0 + 0.0001 * np.arange(n), 10),
        "T": np.tile(np.arange(20.0), n // 20),
        "sr_raw": np.where(np.arange(n) % 7 == 0, np.nan, np.linspace(0.0, 0.25, n)),
        "participation_flag": np.arange(n) % 7 != 0,
        "kind": ["htlc", "quickswap"] * (n // 2),
    }
    cfg = cli.RunConfig("test", {}, tmp_path, format="json")
    tracemalloc.start()
    try:
        cli._write_columns(cfg, "t", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "t.json").read_text(encoding="utf-8")
    assert peak < 3 * len(text)
    rows = [dict(zip(columns, row)) for row in zip(*map(cli._json_cells, columns.values()))]
    assert text == json.dumps(rows, indent=2, sort_keys=True) + "\n"


def test_csv_table_streams_its_rows(tmp_path):
    # 10,000 rows are written in blocks of lines, with the bytes of one join
    # of every line: the traced peak stays below 3x the file, where holding
    # every line took over 7x.
    n = 10_000
    columns = {
        "x_a": np.round(1.0 + 0.0001 * np.arange(n), 10),
        "T": np.tile(np.arange(20.0), n // 20),
        "sr_raw": np.where(np.arange(n) % 7 == 0, np.nan, np.linspace(0.0, 0.25, n)),
        "participation_flag": np.arange(n) % 7 != 0,
        "kind": ["htlc", "quickswap,1"] * (n // 2),
    }
    cfg = cli.RunConfig("test", {}, tmp_path)
    tracemalloc.start()
    try:
        cli._write_columns(cfg, "t", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "t.csv").read_text(encoding="utf-8")
    assert peak < 3 * len(text)
    lines = [",".join(columns)] + [",".join(row) for row in zip(*map(cli._csv_cells, columns.values()))]
    assert text == "\n".join(lines) + "\n"
    assert text.count("\n") == n + 1 and '"quickswap,1"' in text


def test_row_table_writer_matches_column_writer(tmp_path):
    header = ["kind", "x", "flag", "label"]
    rows = [["htlc", 1.5, True, None], ["quickswap", -0.0, False, "a,b"]]
    cfg = cli.RunConfig("test", {}, tmp_path / "rows")
    cli._write_table(cfg, "t", header, rows)
    cli._write_table(cfg, "empty", header, [])
    cfg_cols = cli.RunConfig("test", {}, tmp_path / "cols")
    cli._write_columns(cfg_cols, "t", {h: [r[i] for r in rows] for i, h in enumerate(header)})
    assert (tmp_path / "rows" / "t.csv").read_bytes() == (tmp_path / "cols" / "t.csv").read_bytes()
    assert (tmp_path / "rows" / "t.csv").read_text() == (
        "kind,x,flag,label\nhtlc,1.5,1,NA\nquickswap,-0,0,\"a,b\"\n")
    assert (tmp_path / "rows" / "empty.csv").read_text() == "kind,x,flag,label\n"


def test_reference_script_rewrites_montecarlo_cells(tmp_path, monkeypatch):
    # perfbench/make_reference.py reruns every job of every workload and
    # writes its Monte Carlo table through _write_table(cfg, name, header,
    # rows).  Every file it writes must pass the benchmark's own reference
    # check against the committed one, and the Monte Carlo table must match
    # byte for byte.
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    jobs = importlib.import_module("jobs")
    make_reference = importlib.import_module("make_reference")
    ref, committed = tmp_path / "ref", bench / "reference"
    monkeypatch.setattr(jobs, "REFERENCE_DIR", ref)
    assert make_reference.main() == 0
    names = sorted(path.relative_to(committed) for path in committed.rglob("*") if path.is_file())
    assert names == sorted(path.relative_to(ref) for path in ref.rglob("*") if path.is_file())
    dev = jobs.Deviation()
    for name in names:
        got, want = ((d / name).read_text(encoding="utf-8") for d in (ref, committed))
        if name.suffix == ".csv":
            jobs.compare_csv(got, want, dev, str(name))
        else:
            jobs.compare_json(json.loads(got), json.loads(want), dev, str(name))
    assert dev.max_abs <= jobs.FLOAT_TOL
    name = "montecarlo-analytic.csv"
    assert (ref / name).read_bytes() == (committed / name).read_bytes()


@pytest.mark.parametrize("seed, digest", [
    # The seeded draws: a new draw order moves only empirical, se and z.
    (0, "1ba923838abf414edd86d077b2ae7b814fd50d9edb27903dcee32412abba6258"),
    (5, "2cbde8e9011ad1f3fbae8687b0d52d88637247b932dbd3f972f09f31a1b25353"),
])
def test_montecarlo_solves_every_band_in_one_call_per_game(tmp_path, monkeypatch, seed, digest):
    calls = []
    for module, name in ((htlcgame, "continuation_band_t2"), (quickswapgame, "continuation_band_t3")):
        def counted(*args, _solve=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert run_cli("montecarlo", "--out", str(tmp_path), "--seed", str(seed)) == 0
    assert calls == ["continuation_band_t2", "continuation_band_t3"]
    assert _digest(tmp_path / "montecarlo.csv") == digest


def test_montecarlo_band_table_holds_every_drawable_cell(tmp_path, monkeypatch):
    rows = []
    solve = htlcgame.continuation_band_t2

    def counted(p, T, x_a=None):
        rows.append(np.size(x_a) * np.size(T))
        return solve(p, T, x_a)

    monkeypatch.setattr(htlcgame, "continuation_band_t2", counted)
    assert run_cli("montecarlo", "--out", str(tmp_path), "--set", "paths=1000", "--set", "cells=2") == 0
    # x_a 1.5..2.4 by T 0..3 in one call, and no band solved per draw.
    assert rows == [40]


def test_montecarlo_solves_its_analytic_rates_as_one_table_per_game(tmp_path, monkeypatch):
    calls = []
    for module, name in ((htlcgame, "sr_surface"), (htlcgame, "success_rate"),
                         (quickswapgame, "success_rate")):
        def counted(*args, _solve=getattr(module, name), _name=f"{module.__name__}.{name}", **kwargs):
            result = _solve(*args, **kwargs)
            calls.append((_name, np.shape(result.raw if hasattr(result, "raw") else result)))
            return result
        monkeypatch.setattr(module, name, counted)
    assert run_cli("montecarlo", "--out", str(tmp_path), "--set", "paths=1000", "--set", "cells=3") == 0
    # Every drawable cell before the first draw: 10 x_a by T by T' for the
    # HTLC, 15 x_a for Quick Swap, and no rate solved per draw.
    assert calls == [("swapsim.htlcgame.sr_surface", (10, 4, 4)), ("swapsim.quickswapgame.success_rate", (15,))]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("settings, says", [
    (("t_a=29.5",), "lock delay T'=3 outside [0, 2.5]"),
    (("t_b=4.5", "tau_b=1", "tau_a=1", "eps=1", "D=2.5"), "claim delay T=3 outside [0, 2.5]"),
])
def test_montecarlo_refuses_a_window_narrower_than_its_draws(tmp_path, capsys, settings, says, seed):
    # Both windows must hold every delay the draw can produce (0..3).  These
    # configs used to run or exit 2 depending on whether the seed drew a
    # delay of 3.
    sets = [arg for setting in settings for arg in ("--set", setting)]
    assert run_cli("montecarlo", "--out", str(tmp_path), "--seed", str(seed), *sets) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err


def test_validate_quickswap_passes(tmp_path):
    out = tmp_path / "v"
    assert run_cli("validate", "--out", str(out), "--set", "kind=quickswap") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["safety_violations"] == 0
    assert manifest["summary"]["passed"] is True


def test_validate_htlc_passes_with_expected_violations(tmp_path):
    out = tmp_path / "v"
    assert run_cli("validate", "--out", str(out), "--set", "kind=htlc") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["safety_violations"] > 0
    assert manifest["summary"]["violations_confined_to_grief"] is True
    import csv

    with (out / "validate.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert any(r["safety"] == "0" and "grief" in r["profile"] for r in rows)
    assert all(r["safety"] == "1" for r in rows if "grief" not in r["profile"])


def test_validate_htlc_honours_rho(tmp_path):
    import csv

    out = tmp_path / "v"
    # With rho = 0 griefing costs nothing, so the expected violations vanish.
    assert run_cli("validate", "--out", str(out), "--set", "kind=htlc", "--set", "rho=0") == 0
    with (out / "validate.csv").open() as fh:
        assert all(r["safety"] == "1" for r in csv.DictReader(fh))
    assert json.loads((out / "manifest.json").read_text())["summary"]["safety_violations"] == 0


@pytest.mark.parametrize("rho", ["0", "0.05"])
def test_validate_htlc_expects_violations_iff_rho_positive(tmp_path, rho):
    out = tmp_path / "v"
    assert run_cli("validate", "--out", str(out), "--set", "kind=htlc", "--set", f"rho={rho}") == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["passed"] is True
    assert (summary["safety_violations"] > 0) == (float(rho) > 0)


def test_validate_cyclic_sweep(tmp_path):
    out = tmp_path / "v"
    assert run_cli("validate", "--out", str(out), "--set", "kind=cyclic",
                   "--set", "n=3", "--set", "Delta=1.0") == 0


def test_cyclic_plan_emits_actions(tmp_path):
    out = tmp_path / "p"
    assert run_cli("cyclic-plan", "--out", str(out), "--set", "n=4",
                   "--set", "Delta=1.0") == 0
    lines = (out / "cyclic_plan.csv").read_text().splitlines()
    assert len(lines) == 1 + 8  # header + 2 locks per party
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["valid"] is True


def test_cyclic_plan_rejects_bad_timing(tmp_path):
    code = run_cli("cyclic-plan", "--out", str(tmp_path), "--set", "n=3",
                   "--set", "locktimes=48,52,36")
    assert code == 2  # locktimes not strictly decreasing


def test_quickswap_sr_has_both_columns_and_report(tmp_path):
    out = tmp_path / "q"
    assert run_cli("quickswap-sr", "--out", str(out), "--set", "xa_step=0.5") == 0
    lines = (out / "quickswap_sr.csv").read_text().splitlines()
    assert lines[0] == "x_a,sr_raw,sr_conditional,x_t4_star"
    report = json.loads((out / "participation.json").read_text())
    assert report["quick_contains_htlc"] is True


def test_quickswap_threshold_invariant_across_rho(tmp_path):
    stars = []
    for i, rho in enumerate(("0.0005", "0.002")):
        out = tmp_path / f"r{i}"
        assert run_cli("quickswap-sr", "--out", str(out), "--set", f"rho={rho}",
                       "--set", "xa_step=2.0") == 0
        lines = (out / "quickswap_sr.csv").read_text().splitlines()
        stars.append([l.split(",")[3] for l in lines[1:]])
    assert stars[0] == stars[1]


def test_module_entry_point_prints_no_runpy_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "swapsim.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "found in sys.modules" not in proc.stderr


def test_montecarlo_solves_its_htlc_root_nodes_in_one_call(tmp_path, monkeypatch):
    roots = []
    solve = htlcgame.payoff_t1_with_band

    def counted(p, T, Tp, bands, x_a=None):
        roots.append((np.size(x_a), len(T), len(Tp)))
        return solve(p, T, Tp, bands, x_a)

    monkeypatch.setattr(htlcgame, "payoff_t1_with_band", counted)
    assert run_cli("montecarlo", "--out", str(tmp_path), "--set", "paths=1000", "--set", "cells=3") == 0
    # Every x_a of the up-front table, not one call per x_a.
    assert roots == [(10, 4, 4)]


@pytest.mark.parametrize("subcommand", ["htlc-surface", "quickswap-sr"])
def test_a_negative_x_a_axis_exits_2(tmp_path, capsys, subcommand):
    # The x_a axis is checked as an array, with the error of one SwapParams.
    assert run_cli(subcommand, "--out", str(tmp_path / "run"), "--set", "xa_min=-1") == 2
    assert capsys.readouterr().err == "error: x_a must be >= 0\n"


def _parser_with_options_per_subcommand():
    """The CLI parser as it was declared before its subcommands shared one
    set of options: each subcommand adding its own four, and montecarlo
    --seed."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="swapsim",
        description="Atomic-swap game solvers, protocol simulator, and validators.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in cli._COMMANDS:
        s = sub.add_parser(name)
        s.add_argument("--params", help="flat key=value parameter file")
        s.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="inline parameter override (repeatable)")
        s.add_argument("--out", default=".", help="output directory")
        if name == "montecarlo":
            s.add_argument("--seed", type=int, default=0)
        s.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def test_help_texts_and_option_defaults_are_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in [["--help"]] + [[name, "--help"] for name in cli._COMMANDS]:
        texts = []
        for parser in (cli._build_parser(), _parser_with_options_per_subcommand()):
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args(argv)
            assert exit_info.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1], argv
        if argv != ["--help"]:
            assert f"usage: swapsim {argv[0]} [-h] [--params PARAMS] [--set KEY=VALUE]" in texts[0]
            assert "inline parameter override (repeatable)" in texts[0]
    defaults = {"params": None, "set": [], "out": ".", "format": "csv"}
    parser = cli._build_parser()
    for name in cli._COMMANDS:
        seed = {"seed": 0} if name == "montecarlo" else {}
        assert vars(parser.parse_args([name])) == {"subcommand": name, **defaults, **seed}
    # The subcommands share one --set action: a list given to one parse is
    # not the default of the next.
    assert parser.parse_args(["validate", "--set", "n=3"]).set == ["n=3"]
    assert parser.parse_args(["cyclic-plan"]).set == []


def test_the_normalization_option_is_gone(capsys):
    # Both SR columns are always written; the option only picked the column
    # of htlc-surface's max_sr summary.
    with pytest.raises(SystemExit) as exit_info:
        run_cli("htlc-surface", "--normalization", "raw")
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --normalization raw" in capsys.readouterr().err


def _parse_outcome(parser, argv, capsys):
    """(namespace, stdout, stderr, exit code) of one parse; the namespace is
    None when argparse exits."""
    try:
        namespace, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    out, err = capsys.readouterr()
    return namespace, out, err, code


@pytest.mark.parametrize("name", list(cli._COMMANDS))
@pytest.mark.parametrize("rest", [
    ["--set", "n=3", "--set", "x_a=2", "--out", "run", "--seed", "7", "--format", "json"],
    ["--help"],
    ["--bogus"],
    ["--out", "run", "--normalization", "raw"],
    ["--format", "xml"],
    ["--seed", "x"],
    ["--seed"],
    ["validate"],
])
def test_one_subparser_parses_as_the_full_parser(monkeypatch, capsys, name, rest):
    # main builds only the invoked subcommand's parser; its namespace, output
    # and exit status must be the full parser's, usage line included: an
    # unknown argument after the subcommand is reported by the top-level
    # parser, which lists every subcommand.
    monkeypatch.setenv("COLUMNS", "80")
    argv = [name] + rest
    one = _parse_outcome(cli._build_parser([name]), argv, capsys)
    assert one == _parse_outcome(cli._build_parser(), argv, capsys)
    if one[3] == 2 and rest[0] not in ("--format", "--seed"):  # reported by the top level
        assert "swapsim [-h]" in one[2] and "{" + ",".join(cli._COMMANDS) + "} ..." in one[2]


def test_main_builds_only_the_invoked_subparser(monkeypatch, tmp_path, capsys):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda *names: built.append(list(*names)) or build(*names))
    assert main(["cyclic-plan", "--out", str(tmp_path)]) == 0
    # An installed console script calls main() with no argv: sys.argv is read.
    monkeypatch.setattr(sys, "argv", ["swapsim", "validate", "--bogus"])
    with pytest.raises(SystemExit):
        main()
    assert "{" + ",".join(cli._COMMANDS) + "} ...\nswapsim: error:" in capsys.readouterr().err
    for argv in (["--help"], [], ["bogus"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == [["cyclic-plan"], ["validate"]] + [list(cli._COMMANDS)] * 3
