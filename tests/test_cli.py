"""Command-line harness: smoke paths, exit codes, determinism, resume."""

from __future__ import annotations

import json
import shutil

import pytest

from reccoord.cli import main
from reccoord.scenario import SyntheticConfig, dump_scenario, generate_synthetic

GEN = "members=4,wb=0.5,ev=0.25,hp=0.25,bss=0.25,pv=16"


def _run(args):
    return main(["run", *args])


def test_smoke_run_writes_the_report(tmp_path):
    code = _run(["--generate", GEN, "--seed", "7", "--modes", "solofix,ecfix",
                 "--days", "1", "--dt", "1.0", "--out", str(tmp_path)])
    assert code == 0
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert header == "metric,SoloFix,ECFix"
    assert (tmp_path / "scenario.json").exists()
    assert (tmp_path / "benefits.csv").exists()
    assert (tmp_path / "schedules.csv").exists()


def test_gap_rows_emitted_when_both_schemes_run(tmp_path):
    code = _run(["--generate", GEN, "--seed", "7", "--modes",
                 "solofix,ecflex,ecflexit", "--key", "equal", "--days", "1",
                 "--dt", "1.0", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "summary.csv").read_text()
    assert "raw_deviation" in text
    assert "savings_gap" in text


def test_unknown_key_name_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        _run(["--generate", GEN, "--modes", "ecflexit", "--key", "fifo",
              "--out", str(tmp_path)])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_decentral_mode_without_key_is_a_usage_error(tmp_path, capsys):
    code = _run(["--generate", GEN, "--modes", "ecflexit", "--out", str(tmp_path)])
    assert code == 2
    assert "require --key" in capsys.readouterr().err


def test_unknown_mode_is_a_usage_error(tmp_path, capsys):
    code = _run(["--generate", GEN, "--modes", "ecmagic", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown mode" in capsys.readouterr().err


def test_days_beyond_horizon_rejected(tmp_path, capsys):
    code = _run(["--generate", GEN, "--seed", "1", "--modes", "solofix",
                 "--days", "3", "--dt", "1.0", "--out", str(tmp_path)])
    # the generator builds exactly --days days, so ask for more via a file
    assert code == 0
    scenario = tmp_path / "scenario.json"
    code = _run(["--scenario", str(scenario), "--modes", "solofix", "--days", "9",
                 "--out", str(tmp_path / "other")])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


def test_infeasible_day_exits_1_naming_mode_and_day(tmp_path, capsys):
    """A type-valid scenario whose vehicle can never reach its departure
    target: the run must fail with a diagnostic, not a stack trace."""
    import numpy as np

    from helpers import make_member, make_scenario, simple_ev

    ev = simple_ev(4, power_ref=np.zeros(4), plugged=[1, 0, 0, 0],
                   departure=[1, 0, 0, 0], soc_ref=[0.9, 0, 0, 0], soc_init=0.1)
    s = make_scenario([make_member("u1", 4, ev=ev)], steps=4)
    path = tmp_path / "impossible.json"
    path.write_bytes(dump_scenario(s))

    code = _run(["--scenario", str(path), "--modes", "ecflex", "--out",
                 str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "ECFlex" in err and "day 0" in err


def test_invalid_scenario_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code = _run(["--scenario", str(bad), "--modes", "solofix", "--out",
                 str(tmp_path / "out")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_runs_are_deterministic_across_directories(tmp_path):
    args = ["--generate", GEN, "--seed", "5", "--modes", "solofix,ecflexit",
            "--key", "cascade", "--days", "1", "--dt", "1.0", "--trace"]
    assert _run([*args, "--out", str(tmp_path / "one")]) == 0
    assert _run([*args, "--out", str(tmp_path / "two")]) == 0
    for name in ("summary.csv", "benefits.csv", "schedules.csv", "trace.jsonl",
                 "scenario.json"):
        assert (tmp_path / "one" / name).read_bytes() \
            == (tmp_path / "two" / name).read_bytes(), name


def test_interrupted_runs_resume_from_the_checkpoint(tmp_path):
    scenario = generate_synthetic(SyntheticConfig(
        members=3, seed=2, steps_per_day=24, dt_hours=1.0, num_days=2,
        pv_total_kwp=12.0))
    path = tmp_path / "scenario.json"
    path.write_bytes(dump_scenario(scenario))

    args = ["--scenario", str(path), "--modes", "ecflex", "--days", "2"]
    out_full = tmp_path / "full"
    assert _run([*args, "--out", str(out_full)]) == 0

    # simulate an interrupted run: keep only day 0 of the checkpoint
    out_resume = tmp_path / "resume"
    assert _run([*args, "--out", str(out_resume)]) == 0
    (out_resume / "summary.csv").unlink()
    (out_resume / "checkpoint" / "ECFlex_0001.json").unlink()
    assert _run([*args, "--out", str(out_resume)]) == 0

    for name in ("summary.csv", "schedules.csv", "benefits.csv"):
        assert (out_full / name).read_bytes() == (out_resume / name).read_bytes(), name


def test_checkpoint_invalidated_when_settings_change(tmp_path):
    out = tmp_path / "out"
    args = ["--generate", GEN, "--seed", "5", "--days", "1", "--dt", "1.0",
            "--out", str(out)]
    assert _run([*args, "--modes", "ecflexit", "--key", "equal"]) == 0
    meta = out / "checkpoint" / "meta.json"
    fingerprint_equal = json.loads(meta.read_text())["fingerprint"]

    # a different key must invalidate the cache, not silently reuse it
    assert _run([*args, "--modes", "ecflexit", "--key", "cascade"]) == 0
    fingerprint_cascade = json.loads(meta.read_text())["fingerprint"]
    assert fingerprint_cascade != fingerprint_equal

    # and the cascade run's summary matches a fresh cascade run elsewhere
    fresh = tmp_path / "fresh"
    assert _run(["--generate", GEN, "--seed", "5", "--days", "1", "--dt", "1.0",
                 "--out", str(fresh), "--modes", "ecflexit", "--key", "cascade"]) == 0
    assert (out / "summary.csv").read_bytes() == (fresh / "summary.csv").read_bytes()


def test_truncated_checkpoint_is_recomputed(tmp_path, caplog):
    args = ["--generate", GEN, "--seed", "5", "--modes", "ecflex,ecflexit",
            "--key", "equal", "--days", "1", "--dt", "1.0", "--trace"]
    assert _run([*args, "--out", str(tmp_path / "full")]) == 0

    resume = tmp_path / "resume"
    assert _run([*args, "--out", str(resume)]) == 0
    checkpoint = resume / "checkpoint" / "ECFlexIt_0000.json"
    intact = checkpoint.read_bytes()
    checkpoint.write_bytes(intact[: len(intact) // 2])
    with caplog.at_level("WARNING", logger="reccoord.cli"):
        assert _run([*args, "--out", str(resume)]) == 0
    assert "ECFlexIt day 0: unreadable checkpoint" in caplog.text
    assert checkpoint.read_bytes() == intact
    assert not list((resume / "checkpoint").glob("*.tmp"))
    for name in ("summary.csv", "benefits.csv", "schedules.csv", "trace.jsonl"):
        assert (tmp_path / "full" / name).read_bytes() == (resume / name).read_bytes(), name


def test_lp_backends_write_identical_reports(tmp_path, monkeypatch):
    args = ["--generate", "members=6", "--seed", "7", "--modes",
            "solofix,soloflex,ecfix,ecflex,ecflexit,ecflexitprimed", "--key", "equal",
            "--trace"]
    for backend in ("highs", "linprog"):
        monkeypatch.setenv("RECCOORD_SOLVER", backend)
        assert _run([*args, "--out", str(tmp_path / backend)]) == 0
    for name in ("summary.csv", "benefits.csv", "schedules.csv", "trace.jsonl"):
        assert (tmp_path / "highs" / name).read_bytes() \
            == (tmp_path / "linprog" / name).read_bytes(), name
