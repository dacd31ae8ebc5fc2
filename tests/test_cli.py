import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from swapsim.cli import main


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
    assert run_cli("htlc-surface", "--out", str(out), "--seed", "5",
                   "--set", "sigma=0.2", "--set", "xa_step=1.0",
                   "--set", "t_max=0", "--set", "tp_max=0") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["params"]["sigma"] == 0.2
    assert manifest["params"]["t_a"] == 48.0  # defaults echoed too
    assert "htlc_surface.csv" in manifest["outputs"]


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


@pytest.mark.parametrize("args, says", [
    (("htlc-surface", "--set", "xa_step=0"), "step must be > 0"),
    (("htlc-surface", "--set", "delay_step=-1"), "step must be > 0"),
    (("htlc-surface", "--set", "xa_min=3", "--set", "xa_max=1"), "min <= max"),
    (("validate", "--set", "kind=htlc", "--set", "tau_a=nan"), "tau_a must be finite"),
    (("validate", "--set", "kind=cyclic", "--set", "t_eps=-5"), "t_eps >= 0"),
    (("cyclic-plan", "--set", "n=2.7"), "n must be a whole number"),
    (("montecarlo", "--set", "cells=0"), "cells must be >= 1"),
])
def test_malformed_inputs_exit_2_with_an_error_line(tmp_path, capsys, args, says):
    assert run_cli(*args, "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err


def test_montecarlo_rejects_tiny_path_counts(tmp_path):
    assert run_cli("montecarlo", "--out", str(tmp_path), "--set", "paths=0") == 2
    assert run_cli("montecarlo", "--out", str(tmp_path), "--set", "paths=999") == 2


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
