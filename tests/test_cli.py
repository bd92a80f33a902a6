"""Command-line harness: smoke paths, exit codes, determinism, resume."""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shutil
from collections import Counter
from pathlib import Path

import pytest
import scipy

from reccoord import central, cli, decentral, lpcore, reporting
from reccoord import scenario as scenario_module
from reccoord.cli import main
from reccoord.lpcore import TOL_OPT
from reccoord.scenario import (Scenario, SyntheticConfig, dump_scenario, generate_synthetic,
                               load_scenario)
from helpers import run_python, scipy_without_highs, solve_with_linprog

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


@pytest.mark.parametrize("flags", [["--key", "fifo"],
                                   ["--key", "equal", "--allow-curtailment"]],
                         ids=["key-fifo", "allow-curtailment"])
def test_unknown_key_name_is_a_usage_error(tmp_path, capsys, flags):
    """argparse rejects a choice it does not know and a flag it does not have."""
    with pytest.raises(SystemExit) as err:
        _run(["--generate", GEN, "--modes", "ecflexit", *flags, "--out", str(tmp_path)])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_the_readme_lists_every_run_flag():
    """The README's ``Flags:`` paragraph names exactly the options of ``run``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("\nFlags: "):].split("\n\n")[0]
    parser = cli.build_parser()
    run = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices["run"]
    flags = {s for a in run._actions for s in a.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", paragraph)) == flags


def test_decentral_mode_without_key_is_a_usage_error(tmp_path, capsys):
    code = _run(["--generate", GEN, "--modes", "ecflexit", "--out", str(tmp_path)])
    assert code == 2
    assert "require --key" in capsys.readouterr().err


def test_unknown_mode_is_a_usage_error(tmp_path, capsys):
    code = _run(["--generate", GEN, "--modes", "ecmagic", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown mode" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--generate", "members=0"],
    ["--generate", "members=3,wb=2"],
    ["--generate", "members=3", "--days", "0"],
    ["--generate", "members=3", "--dt", "0"],
    ["--generate", "members=3", "--seed", "-1"],
    ["--generate", "members=3,pv=inf"],
    ["--generate", "members=3,pv=nan"],
    ["--generate", "members=3,pv=-5"],
    ["--generate", "members=3", "--dt", "1e-300"],
], ids=["no-members", "rate-above-one", "zero-days", "zero-dt", "negative-seed",
        "infinite-pv", "nan-pv", "negative-pv", "tiny-dt"])
def test_bad_generator_input_is_a_usage_error(tmp_path, capsys, args):
    code = _run([*args, "--modes", "solofix", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_out_naming_a_file_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    code = _run(["--generate", "members=2", "--modes", "solofix", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", ["scenario.json", "summary.csv"])
def test_out_holding_a_directory_in_place_of_an_output_file_is_a_usage_error(
        tmp_path, capsys, name):
    (tmp_path / name).mkdir()
    code = _run(["--generate", "members=2", "--modes", "solofix", "--days", "1",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("name", ["SoloFix_0000.json", "SoloFix_0000.json.tmp"])
def test_a_directory_in_place_of_a_checkpoint_file_is_a_usage_error(tmp_path, capsys, name):
    """The checkpoint of a run is read where it was, or written through its
    ``.tmp`` twin; a directory at either path stops the run naming it."""
    args = ["--generate", "members=2", "--seed", "1", "--dt", "1.0", "--modes", "solofix",
            "--out", str(tmp_path)]
    assert _run(args) == 0
    (tmp_path / "checkpoint" / "SoloFix_0000.json").unlink()
    path = tmp_path / "checkpoint" / name
    path.mkdir()
    capsys.readouterr()
    assert _run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("flag", [["--seed", "99"], ["--dt", "1.0"]])
def test_generator_flags_with_a_scenario_file_are_usage_errors(tmp_path, capsys, flag):
    bundled = Path(cli.__file__).parent / "data" / "community20.json"
    code = _run(["--scenario", str(bundled), *flag, "--modes", "solofix", "--days", "1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {flag[0]} only applies to --generate; ")
    assert not any(tmp_path.iterdir())


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
    # the mode run and the day, each named once
    assert err.startswith("error: ECFlex day 0: infeasible: ")
    assert err.count("ECFlex") == 1 and err.count("day") == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: day 2's LP is infeasible "
                                        "from the state day 1 carries (exits 1)")
@pytest.mark.parametrize("modes", [["ecflex"], ["ecflexitprimed", "--key", "equal"]],
                         ids=["ecflex", "ecflexitprimed"])
def test_ecflex_survives_the_states_it_carries_into_day_2(tmp_path, modes):
    """The smallest runs that fail on a carried state sitting on a tolerance
    edge: ECFlex's own day LP, and ECFlexItPrimed's SoloFlex priming."""
    assert _run(["--generate", "members=6", "--seed", "7", "--dt", "1.0", "--days", "3",
                 "--modes", *modes, "--out", str(tmp_path)]) == 0


def test_a_rejected_lp_names_mode_and_day(tmp_path, capsys):
    """A finite but extreme thermal coefficient gives an LP coefficient HiGHS
    rejects; the run ends with a diagnostic naming the mode, the day and the
    LP, not a stack trace."""
    import numpy as np

    from helpers import make_member, make_scenario, simple_wb

    wb = simple_wb(24, power_ref=np.zeros(24), coeff=1e308)
    path = tmp_path / "huge.json"
    path.write_bytes(dump_scenario(make_scenario([make_member("u1", 24, wb=wb)], steps=24)))
    code = _run(["--scenario", str(path), "--modes", "solofix", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: SoloFix day 0: HiGHS rejected the day LP\n"


def test_a_solver_that_cannot_load_fails_only_the_solving_run(tmp_path):
    """Without a loadable HiGHS extension, help still works and a run fails
    at its first solve with exit 1, naming the mode, the day, SciPy's
    ``_highspy`` directory and SciPy's version, not with a stack trace."""
    where = scipy_without_highs(tmp_path / "site")
    done = run_python(f"""
        import contextlib
        import io
        import sys
        sys.path.insert(0, {str(tmp_path / "site")!r})
        from reccoord.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main(["--help"])
            except SystemExit as exc:
                assert exc.code == 0, exc.code
        sys.exit(main(["run", "--generate", {GEN!r}, "--seed", "7", "--modes", "solofix",
                       "--days", "1", "--dt", "1.0", "--out", {str(tmp_path / "out")!r}]))
    """)
    assert (done.returncode, done.stderr) == (
        1, f"error: SoloFix day 0: cannot load the HiGHS solver: no HiGHS extension module "
           f"_core in {where} (scipy {scipy.__version__})\n")


@pytest.mark.parametrize("i,slot,field,fields", [
    (0, "ev", "capacity_kwh", "efficiency, capacity_kwh, arrival, soc_arrival"),
    (1, "bss", "capacity_kwh", "efficiency, capacity_kwh"),
    (1, "bss", "efficiency", "efficiency, capacity_kwh"),
], ids=["ev-capacity", "bss-capacity", "bss-efficiency"])
def test_an_overflowing_lp_coefficient_is_an_input_error(tmp_path, capsys, i, slot, field,
                                                         fields):
    """Fields inside their domains whose state gain overflows are reported
    at the device, naming the fields the coefficient comes from."""
    assert _run(["--generate", "members=4", "--seed", "1", "--modes", "solofix",
                 "--out", str(tmp_path / "gen")]) == 0
    capsys.readouterr()
    path = tmp_path / "gen" / "scenario.json"
    doc = json.loads(path.read_text())
    doc["members"][i][slot][field] = 1e-310
    path.write_text(json.dumps(doc))
    code = _run(["--scenario", str(path), "--modes", "solofix,soloflex,ecflex",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario: ")
    assert f"members[{i}].{slot}: non-finite LP " in err and f"coefficient from {fields}" in err


def test_a_non_finite_device_scalar_is_an_input_error(tmp_path, capsys):
    assert _run(["--generate", "members=4", "--seed", "1", "--modes", "solofix",
                 "--out", str(tmp_path / "gen")]) == 0
    path = tmp_path / "gen" / "scenario.json"
    doc = json.loads(path.read_text())
    i, member = next((i, m) for i, m in enumerate(doc["members"]) if m["wb"] is not None)
    member["wb"]["max_power_kw"] = float("inf")
    path.write_text(json.dumps(doc))
    code = _run(["--scenario", str(path), "--modes", "solofix", "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"members[{i}].wb.max_power_kw: non-finite value" in capsys.readouterr().err


def test_a_failing_priming_day_names_the_user_mode(tmp_path, capsys):
    """ECFlexItPrimed fails in its internal SoloFlex priming solve; the error
    names the mode the user ran and the day, not only the planner."""
    import numpy as np

    from helpers import make_member, make_scenario, simple_ev

    ev = simple_ev(4, power_ref=np.zeros(4), plugged=[1, 0, 0, 0],
                   departure=[1, 0, 0, 0], soc_ref=[0.9, 0, 0, 0], soc_init=0.1)
    path = tmp_path / "impossible.json"
    path.write_bytes(dump_scenario(make_scenario([make_member("u1", 4, ev=ev)], steps=4)))
    code = _run(["--scenario", str(path), "--modes", "ecflexitprimed", "--key", "equal",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ECFlexItPrimed day 0: SoloFlex infeasible: ")
    assert err.count("ECFlexItPrimed") == 1 and err.count("day") == 1


def test_a_failing_member_subproblem_names_mode_and_day(tmp_path, capsys, monkeypatch):
    def infeasible(self, up_limit, down_limit):
        raise decentral.DecentralError(f"member {self.member.id} subproblem infeasible")

    monkeypatch.setattr(decentral.MemberAgent, "_solve", infeasible)
    code = _run(["--generate", GEN, "--seed", "5", "--dt", "1.0", "--modes",
                 "solofix,ecflexit", "--key", "equal", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ECFlexIt day 0: member ") and err.count("\n") == 1


def test_the_iteration_cap_names_mode_and_day_once(tmp_path, capsys):
    bundled = Path(cli.__file__).parent / "data" / "community20.json"
    code = _run(["--scenario", str(bundled), "--modes", "ecflexit", "--key", "equal",
                 "--days", "1", "--max-iters", "1", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: ECFlexIt day 0: iteration cap exceeded after 1 iterations\n"
    assert err.count("ECFlexIt") == 1 and err.count("day") == 1


def test_invalid_scenario_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code = _run(["--scenario", str(bad), "--modes", "solofix", "--out",
                 str(tmp_path / "out")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_malformed_scenario_field_exits_2_naming_it(tmp_path, capsys):
    doc = json.loads(dump_scenario(generate_synthetic(SyntheticConfig(
        members=2, seed=1, bss_rate=1.0, dt_hours=1.0))))
    doc["members"][1]["bss"]["capacity_kwh"] = "big"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = _run(["--scenario", str(path), "--modes", "solofix", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err \
        == "error: members[1] (id=u02).bss.capacity_kwh: expected float, got 'big'\n"


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["members"][0].update(id=None), "members[0].id: expected a string, got None"),
    (lambda doc: doc.update(members=[]), "invalid scenario: members: needs at least one member"),
], ids=["id-null", "no-member"])
def test_a_non_string_id_or_no_member_exits_2_naming_it(tmp_path, capsys, edit, message):
    doc = json.loads(dump_scenario(generate_synthetic(SyntheticConfig(
        members=1, seed=1, dt_hours=1.0))))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = _run(["--scenario", str(path), "--modes", "solofix", "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


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
        members=3, seed=2, dt_hours=1.0, num_days=2,
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


REPORTS = ("summary.csv", "benefits.csv", "schedules.csv", "trace.jsonl")


def _two_day_file(tmp_path: Path) -> Path:
    path = tmp_path / "scenario.json"
    path.write_bytes(dump_scenario(generate_synthetic(SyntheticConfig(
        members=6, seed=7, dt_hours=1.0, num_days=2))))
    return path


def _count_solves(monkeypatch) -> list[tuple[str, int]]:
    """The (mode, day) of every ``cli._solve_day`` call from now on."""
    solves, solve_day = [], cli._solve_day

    def counting(solved, mode_name, *args):
        solves.append((mode_name, solved.day))
        return solve_day(solved, mode_name, *args)

    monkeypatch.setattr(cli, "_solve_day", counting)
    return solves


def test_a_longer_run_reuses_the_days_a_shorter_one_stored(tmp_path, monkeypatch):
    """Day d's result depends on days 0..d only, so ``--days`` is not part of
    the checkpoint's fingerprint: extending a run solves only the new days."""
    args = ["--scenario", str(_two_day_file(tmp_path)), "--modes", "solofix,ecfix"]
    assert _run([*args, "--days", "2", "--out", str(tmp_path / "fresh")]) == 0
    out = tmp_path / "out"
    assert _run([*args, "--days", "1", "--out", str(out)]) == 0
    solves = _count_solves(monkeypatch)
    assert _run([*args, "--days", "2", "--out", str(out)]) == 0
    assert solves == [("ECFix", 1), ("SoloFix", 1)]
    for name in REPORTS:
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


def test_a_complete_resume_parses_no_scenario(tmp_path, monkeypatch):
    """The fingerprint hashes the document's bytes and every checkpoint's
    digest binds the file to it, so a resume of every (mode, day) neither
    parses nor validates the scenario."""
    args = ["--scenario", str(_two_day_file(tmp_path)), "--modes", "solofix,ecfix,ecflexit",
            "--key", "equal", "--trace", "--days", "2", "--out", str(tmp_path / "out")]
    assert _run(args) == 0
    cold = {name: (tmp_path / "out" / name).read_bytes() for name in REPORTS}

    def no_parse(*_):
        raise AssertionError("a complete resume parsed the scenario")

    monkeypatch.setattr(cli, "load_scenario", no_parse)
    monkeypatch.setattr(scenario_module, "validate_scenario", no_parse)
    assert _run(args) == 0
    for name in REPORTS:
        assert (tmp_path / "out" / name).read_bytes() == cold[name], name


def test_a_resume_parses_the_scenario_once_at_the_first_day_it_solves(tmp_path, monkeypatch):
    """With one checkpoint file of day 1 edited, the days before it are read
    from the checkpoint unparsed; the document is parsed once, at that file,
    and only its (mode, day) is solved again."""
    args = ["--scenario", str(_two_day_file(tmp_path)), "--modes", "solofix,ecfix",
            "--days", "2", "--out", str(tmp_path / "out")]
    assert _run(args) == 0
    cold = {name: (tmp_path / "out" / name).read_bytes() for name in REPORTS}
    path = tmp_path / "out" / "checkpoint" / "SoloFix_0001.json"
    path.write_bytes(path.read_bytes().replace(b'"day":1', b'"day":0'))

    events = []
    load, decode = cli.load_scenario, reporting.schedule_from_dict

    def parsing(data):
        events.append("parse")
        return load(data)

    def decoding(doc):
        events.append(("read", doc["mode"], doc["day"]))
        return decode(doc)

    monkeypatch.setattr(cli, "load_scenario", parsing)
    monkeypatch.setattr(reporting, "schedule_from_dict", decoding)
    solves = _count_solves(monkeypatch)
    assert _run(args) == 0
    assert events == [("read", "ECFix", 0), ("read", "SoloFix", 0), ("read", "ECFix", 1),
                      "parse"]
    assert solves == [("SoloFix", 1)]
    for name in REPORTS:
        assert (tmp_path / "out" / name).read_bytes() == cold[name], name


@pytest.mark.parametrize("edit, days, message", [
    (lambda doc: "{", "1", "not valid JSON: "),
    (lambda doc: json.dumps({**doc, "members": []}), "1",
     "invalid scenario: members: needs at least one member\n"),
    (json.dumps, "9", "--days 9 exceeds the scenario horizon of 3 day(s)\n"),
], ids=["not-json", "no-member", "days-beyond-horizon"])
def test_a_scenario_error_into_a_fresh_out_writes_nothing(tmp_path, capsys, edit, days, message):
    """The scenario is parsed before the first result is stored, so a document
    that fails its parse exits 2 without making ``--out``."""
    doc = json.loads(dump_scenario(generate_synthetic(SyntheticConfig(
        members=2, seed=1, dt_hours=1.0, num_days=3))))
    path = tmp_path / "scenario.json"
    path.write_text(edit(doc))
    out = tmp_path / "out"
    assert _run(["--scenario", str(path), "--modes", "solofix", "--days", days,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("name", [*REPORTS, "scenario.json"])
def test_a_rerun_replaces_its_files_instead_of_writing_through_them(tmp_path, name):
    """A re-run unlinks each file it rewrites and renames a new one into its
    place, so another link to the old file keeps the old bytes."""
    args = ["--generate", "members=2", "--seed", "1", "--dt", "1.0", "--modes", "ecflexit",
            "--key", "equal", "--trace", "--out", str(tmp_path / "out")]
    assert _run(args) == 0
    written = (tmp_path / "out" / name).read_bytes()
    kept = tmp_path / "kept"
    kept.hardlink_to(tmp_path / "out" / name)
    kept.write_text("stale")
    assert _run(args) == 0
    assert kept.read_text() == "stale"
    assert (tmp_path / "out" / name).read_bytes() == written
    assert not list((tmp_path / "out").glob("*.tmp"))


@pytest.mark.parametrize("target", ["report", "checkpoint"])
def test_a_write_that_fails_leaves_no_temp_file(tmp_path, monkeypatch, capsys, target):
    """A disk that fills up while a report or a checkpoint is written ends
    the run with exit 2, removes the temp file and keeps the old file.  The
    old ``schedules.csv`` has one byte flipped, so the run must render it."""
    args = ["--generate", "members=2", "--seed", "1", "--dt", "1.0", "--modes", "solofix",
            "--out", str(tmp_path)]
    assert _run(args) == 0
    written = bytearray((tmp_path / "schedules.csv").read_bytes())
    written[-2] ^= 1
    (tmp_path / "schedules.csv").write_bytes(written)

    def full_disk(*_):
        raise OSError(28, "No space left on device")

    if target == "report":
        monkeypatch.setattr(reporting, "_write_schedule_rows", full_disk)
    else:
        (tmp_path / "checkpoint" / "SoloFix_0000.json").unlink()
        write_bytes = Path.write_bytes

        def half_written(path, data):
            if path.parent.name != "checkpoint":
                return write_bytes(path, data)
            write_bytes(path, data[: len(data) // 2])
            full_disk()

        monkeypatch.setattr(Path, "write_bytes", half_written)
    capsys.readouterr()
    assert _run(args) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.tmp"))
    assert (tmp_path / "schedules.csv").read_bytes() == written


def _schedules_args(path: Path, out: Path, modes: str = "solofix,ecfix,ecflexit",
                    days: str = "2") -> list[str]:
    return ["--scenario", str(path), "--modes", modes, "--key", "equal", "--days", days,
            "--out", str(out)]


def _count_renders(monkeypatch) -> list[tuple[str, int]]:
    """The (mode, day) of every ``schedules.csv`` day rendered from now on."""
    renders, write_rows = [], reporting._write_schedule_rows

    def counting(handle, mode, sched):
        renders.append((mode, sched.day))
        return write_rows(handle, mode, sched)

    monkeypatch.setattr(reporting, "_write_schedule_rows", counting)
    return renders


def _no_render(monkeypatch) -> None:
    def fail(*_):
        raise AssertionError("schedules.csv was rendered")

    monkeypatch.setattr(reporting, "_write_schedule_rows", fail)


def _stat(path: Path) -> tuple[int, int]:
    st = path.stat()
    return st.st_ino, st.st_mtime_ns


def test_a_complete_resume_leaves_schedules_csv_in_place(tmp_path, monkeypatch):
    """The rows are a function of the checkpoints, so a resume that holds the
    same checkpoints renders no row and leaves the file as it is."""
    args = _schedules_args(_two_day_file(tmp_path), tmp_path / "out")
    assert _run(args) == 0
    cold = {name: (tmp_path / "out" / name).read_bytes() for name in REPORTS}
    before = _stat(tmp_path / "out" / "schedules.csv")
    _no_render(monkeypatch)
    assert _run(args) == 0
    assert _stat(tmp_path / "out" / "schedules.csv") == before
    for name in REPORTS:
        assert (tmp_path / "out" / name).read_bytes() == cold[name], name


def test_toggling_trace_leaves_schedules_csv_in_place(tmp_path, monkeypatch):
    path = _two_day_file(tmp_path)
    assert _run([*_schedules_args(path, tmp_path / "traced"), "--trace"]) == 0
    out = tmp_path / "out"
    assert _run(_schedules_args(path, out)) == 0
    assert (out / "trace.jsonl").read_bytes() == b""
    before = _stat(out / "schedules.csv")
    _no_render(monkeypatch)
    assert _run([*_schedules_args(path, out), "--trace"]) == 0
    assert _stat(out / "schedules.csv") == before
    for name in REPORTS:
        assert (out / name).read_bytes() == (tmp_path / "traced" / name).read_bytes(), name


def _flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(data)


def _edit_meta(change):
    def edit(out: Path, args: list[str]) -> None:
        meta = out / "checkpoint" / "meta.json"
        meta.write_text(change(json.loads(meta.read_text())))
    return edit


def _recompute_a_changed_day(out: Path, args: list[str]) -> None:
    """Store an edited SoloFix day 1 as a valid checkpoint and render it,
    then delete that checkpoint so the next run computes the day again."""
    meta = json.loads((out / "checkpoint" / "meta.json").read_text())
    checkpoint = cli._Checkpoint(out, meta["fingerprint"])
    sched, traces = checkpoint.load("SoloFix", 1)
    sched.members[0].series["pinj"][3] += 1.0
    checkpoint.store("SoloFix", 1, sched, traces)
    assert _run(args) == 0
    (out / "checkpoint" / "SoloFix_0001.json").unlink()


@pytest.mark.parametrize("edit, days, modes", [
    (lambda out, _: _flip_byte(out / "schedules.csv"), "2", None),
    (lambda out, _: (out / "schedules.csv").unlink(), "2", None),
    (_edit_meta(lambda meta: "{"), "2", None),
    (_edit_meta(lambda meta: json.dumps({**meta, "schedules": [meta["schedules"]]})),
     "2", None),
    (_edit_meta(lambda meta: json.dumps({**meta, "schedules": meta["schedules"]["sha256"]})),
     "2", None),
    (_edit_meta(lambda meta: json.dumps({**meta, "schedules": {**meta["schedules"],
                                                                 "sha256": 0}})), "2", None),
    (lambda *_: None, "2", "ecflexit,ecfix,solofix"),
    (lambda *_: None, "1", None),
    (_recompute_a_changed_day, "2", None),
], ids=["flipped-byte", "deleted", "meta-not-json", "record-a-list",
        "record-a-string", "sha256-not-a-string", "modes-reversed", "one-more-day",
        "recomputed-day"])
def test_schedules_csv_is_rendered_again_when_its_record_does_not_hold(
        tmp_path, monkeypatch, edit, days, modes):
    """A changed file, a record that is missing or not one, and other rows
    (another mode order, one more day, a day recomputed to other numbers)
    each make the run render ``schedules.csv`` to a cold run's bytes and
    store its record; the run after renders nothing."""
    path, out = _two_day_file(tmp_path), tmp_path / "out"
    first = _schedules_args(path, out, days=days)
    second = _schedules_args(path, out, **({"modes": modes} if modes else {}))
    assert _run(first) == 0
    edit(out, first)
    renders = _count_renders(monkeypatch)
    assert _run(second) == 0
    assert renders
    assert _run([*second[:-1], str(tmp_path / "cold")]) == 0
    for name in REPORTS:
        assert (out / name).read_bytes() == (tmp_path / "cold" / name).read_bytes(), name
    record = json.loads((out / "checkpoint" / "meta.json").read_text())["schedules"]
    assert record["sha256"] == hashlib.sha256((out / "schedules.csv").read_bytes()).hexdigest()
    renders.clear()
    assert _run(second) == 0
    assert renders == []


def test_a_meta_json_without_the_record_renders_once_and_solves_nothing(tmp_path, monkeypatch):
    """A checkpoint written before ``meta.json`` held the record is reused as
    it is; only ``schedules.csv`` is rendered, once, and ``meta.json`` gains
    the record after the fingerprint."""
    args = _schedules_args(_two_day_file(tmp_path), tmp_path / "out")
    assert _run(args) == 0
    checkpoints = {p.name: p.read_bytes() for p in (tmp_path / "out" / "checkpoint").iterdir()}
    meta = json.loads(checkpoints.pop("meta.json"))
    assert list(meta) == ["fingerprint", "schedules"]
    assert list(meta["schedules"]) == ["source", "sha256"]
    (tmp_path / "out" / "checkpoint" / "meta.json").write_text(
        json.dumps({"fingerprint": meta["fingerprint"]}))
    solves, renders = _count_solves(monkeypatch), _count_renders(monkeypatch)
    assert _run(args) == 0
    assert solves == []
    assert renders == [(mode, day) for mode in ("SoloFix", "ECFix", "ECFlexIt")
                       for day in (0, 1)]
    assert json.loads((tmp_path / "out" / "checkpoint" / "meta.json").read_text()) == meta
    renders.clear()
    assert _run(args) == 0
    assert renders == []
    for name, data in checkpoints.items():
        assert (tmp_path / "out" / "checkpoint" / name).read_bytes() == data, name


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


def test_checkpoint_of_another_format_is_recomputed(tmp_path, monkeypatch):
    args = ["--generate", GEN, "--seed", "5", "--modes", "ecfix", "--days", "1",
            "--dt", "1.0"]
    assert _run([*args, "--out", str(tmp_path / "fresh")]) == 0

    def no_solve(*_):
        raise AssertionError("a checkpointed day was solved again")

    # a checkpoint written under an older format
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "CHECKPOINT_FORMAT", cli.CHECKPOINT_FORMAT - 1)
    assert _run([*args, "--out", str(out)]) == 0
    checkpoint = out / "checkpoint" / "ECFix_0000.json"
    older = checkpoint.read_bytes()
    monkeypatch.setattr(cli, "_solve_day", no_solve)
    assert _run([*args, "--out", str(out)]) == 0  # same format: reused

    monkeypatch.undo()
    assert _run([*args, "--out", str(out)]) == 0
    assert checkpoint.read_bytes() != older
    for name in ("summary.csv", "benefits.csv", "schedules.csv"):
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


#: Why a checkpoint file that is not the one written for its run, mode and day
#: is recomputed.
NOT_WRITTEN_HERE = "its bytes are not those written for this run, mode and day"


def test_truncated_checkpoint_is_recomputed(tmp_path, caplog):
    args = ["--generate", GEN, "--seed", "5", "--modes", "ecflex,ecfix,ecflexit",
            "--key", "equal", "--days", "1", "--dt", "1.0", "--trace"]
    assert _run([*args, "--out", str(tmp_path / "full")]) == 0

    resume = tmp_path / "resume"
    assert _run([*args, "--out", str(resume)]) == 0
    checkpoint = resume / "checkpoint" / "ECFlexIt_0000.json"
    intact = checkpoint.read_bytes()
    # compact JSON: an edit below changes the bytes of what it edits only
    assert json.dumps(json.loads(intact), separators=(",", ":")).encode() == intact
    checkpoint.write_bytes(intact[: len(intact) // 2])
    with caplog.at_level("WARNING", logger="reccoord.cli"):
        assert _run([*args, "--out", str(resume)]) == 0
    assert f"ECFlexIt day 0: unreadable checkpoint ECFlexIt_0000.json ({NOT_WRITTEN_HERE})" \
        in caplog.text
    assert checkpoint.read_bytes() == intact
    assert not list((resume / "checkpoint").glob("*.tmp"))
    for name in ("summary.csv", "benefits.csv", "schedules.csv", "trace.jsonl"):
        assert (tmp_path / "full" / name).read_bytes() == (resume / name).read_bytes(), name

    # the same mode and day of a run with another key
    other_run = tmp_path / "cascade"
    assert _run([*[a if a != "equal" else "cascade" for a in args], "--out", str(other_run)]) == 0

    # unusable metadata, and checkpoints edited, cut or copied
    def edit(mode, change):
        def corrupt():
            path = resume / "checkpoint" / f"{mode}_0000.json"
            doc = json.loads(path.read_text())
            change(doc)
            path.write_text(json.dumps(doc, separators=(",", ":")))
        return corrupt

    def edit_schedule(mode, change):
        return edit(mode, lambda doc: change(doc["schedule"]["members"]))

    def copy(source, mode):  # ``source`` copied byte for byte over ``mode``'s day 0
        return lambda: shutil.copyfile(source, resume / "checkpoint" / f"{mode}_0000.json")

    # every member's ``key[tag]`` cut to its first ``chars`` base64 characters;
    # 32 characters are 24 bytes, 3 whole float64s
    def cut(members, key, tag, chars=32):
        assert any(tag in m[key] for m in members)
        for m in members:
            if tag in m[key]:
                m[key][tag] = m[key][tag][:chars]

    def drop(members, key, tag):  # the first member holding ``key[tag]`` loses it
        next(m for m in members if tag in m[key])[key].pop(tag)

    def add(members, key, tag):  # the first member without ``key[tag]`` gains it
        m = next(m for m in members if tag not in m[key])
        m[key][tag] = m["series"]["pinj"]

    # the first member's ``key``, or its ``key[tag]``, becomes ``value``
    def replace(members, key, value, tag=None):
        m = members[0]
        if tag is None:
            m[key] = value
        else:
            m[key][tag] = value

    # the first member's ``key[tag]`` with its 10th base64 character changed: the
    # top bits of its first value's exponent, and the same number of bytes
    def recode(members, key, tag):
        text = members[0][key][tag]
        members[0][key][tag] = text[:9] + ("B" if text[9] != "B" else "C") + text[10:]

    def lines(change):  # ``change`` applied to the list of trace lines
        return lambda doc: doc.update(traces=change(doc["traces"]))

    meta = resume / "checkpoint" / "meta.json"
    corruptions = [  # (case, mode whose checkpoint is reported, corruption)
        ("meta not UTF-8", None, lambda: meta.write_bytes(b"\xff\xfe")),
        ("meta not an object", None, lambda: meta.write_text("[1]")),
        ("member dropped", "ECFlex", edit_schedule("ECFlex", lambda ms: ms.pop(1))),
        ("members reordered", "ECFlexIt", edit_schedule("ECFlexIt", lambda ms: ms.reverse())),
        ("series cut", "ECFlex", edit_schedule("ECFlex", lambda ms: cut(ms, "series", "pinj"))),
        ("ref cut", "ECFlexIt", edit_schedule("ECFlexIt", lambda ms: cut(ms, "refs", "wb"))),
        ("device series dropped", "ECFlex",
         edit_schedule("ECFlex", lambda ms: drop(ms, "series", "php"))),
        ("pinj dropped", "ECFlexIt", edit_schedule("ECFlexIt", lambda ms: drop(ms, "series", "pinj"))),
        ("device ref dropped", "ECFlex", edit_schedule("ECFlex", lambda ms: drop(ms, "refs", "wb"))),
        ("device ref added", "ECFlexIt", edit_schedule("ECFlexIt", lambda ms: add(ms, "refs", "ev"))),
        ("unknown ref slot", "ECFlexIt",
         edit_schedule("ECFlexIt", lambda ms: add(ms, "refs", "bss"))),
        ("device series added", "ECFlex",
         edit_schedule("ECFlex", lambda ms: add(ms, "series", "pev"))),
        ("refs a JSON array", "ECFlexIt",
         edit_schedule("ECFlexIt", lambda ms: replace(ms, "refs", [1]))),
        ("series a JSON array", "ECFlex",
         edit_schedule("ECFlex", lambda ms: replace(ms, "series", [1]))),
        ("series a list of floats", "ECFlex",
         edit_schedule("ECFlex", lambda ms: replace(ms, "series", [0.0] * 24, "pinj"))),
        ("ref not a string", "ECFlexIt",
         edit_schedule("ECFlexIt", lambda ms: replace(ms, "refs", 5, "wb"))),
        ("series not base64", "ECFlex",
         edit_schedule("ECFlex", lambda ms: replace(ms, "series", "AAAA!AAA", "pinj"))),
        ("series not whole float64s", "ECFlexIt",
         edit_schedule("ECFlexIt", lambda ms: cut(ms, "series", "pinj", chars=28))),
        ("traces not a list", "ECFlexIt", edit("ECFlexIt", lambda doc: doc.update(traces=5))),
        ("trace not a line", "ECFlexIt", edit("ECFlexIt", lambda doc: doc.update(traces=[1]))),
        ("trace line broken in two", "ECFlexIt",
         edit("ECFlexIt", lines(lambda ts: [json.dumps(json.loads(ts[0]), indent=1),
                                            *ts[1:]]))),
        ("trace line not JSON", "ECFlexIt",
         edit("ECFlexIt", lines(lambda ts: [ts[0][: len(ts[0]) // 2], *ts[1:]]))),
        ("trace line not an object", "ECFlexIt",
         edit("ECFlexIt", lines(lambda ts: ["[1]", *ts[1:]]))),
        ("trace line of another round", "ECFlexIt",
         edit("ECFlexIt", lines(lambda ts: [ts[0], *ts]))),
        ("trace in a centralized mode", "ECFlex",
         edit("ECFlex", lambda doc: doc.update(traces=['{"day":0,"iteration":1}']))),
        ("schedule of another day", "ECFlex",
         edit("ECFlex", lambda doc: doc["schedule"].update(day=5))),
        ("schedule of another mode", "ECFlexIt",
         edit("ECFlexIt", lambda doc: doc["schedule"].update(mode="ECFlex"))),
        ("schedule of another step", "ECFlex",
         edit("ECFlex", lambda doc: doc["schedule"].update(dt_hours=0.25))),
        ("day not an integer", "ECFlexIt",
         edit("ECFlexIt", lambda doc: doc["schedule"].update(day=0.0))),
        ("bill null", "ECFlex", edit_schedule("ECFlex", lambda ms: replace(ms, "bill", None))),
        ("community bill a string", "ECFlexIt",
         edit("ECFlexIt", lambda doc: doc["schedule"].update(community_bill_eur="x"))),
        ("bill total an integer", "ECFlex",
         edit_schedule("ECFlex", lambda ms: ms[0]["bill"].update(total_eur=1))),
        ("revenue null", "ECFlexIt",
         edit_schedule("ECFlexIt", lambda ms: replace(ms, "flex_revenue_eur", None))),
        ("community bill another float", "ECFlex",
         edit("ECFlex", lambda doc: doc["schedule"].update(
             community_bill_eur=doc["schedule"]["community_bill_eur"] + 1.0))),
        ("series character changed", "ECFlexIt",
         edit_schedule("ECFlexIt", lambda ms: recode(ms, "series", "pinj"))),
        ("checkpoint of another mode", "ECFix",
         copy(resume / "checkpoint" / "ECFlex_0000.json", "ECFix")),
        ("checkpoint of another run", "ECFlexIt",
         copy(other_run / "checkpoint" / "ECFlexIt_0000.json", "ECFlexIt")),
    ]
    for case, mode, corrupt in corruptions:
        corrupt()
        caplog.clear()
        with caplog.at_level("WARNING", logger="reccoord.cli"):
            assert _run([*args, "--out", str(resume)]) == 0, case
        if mode is not None:
            assert f"{mode} day 0: unreadable checkpoint {mode}_0000.json ({NOT_WRITTEN_HERE})" \
                in caplog.text, case
        for name in ("summary.csv", "benefits.csv", "schedules.csv", "trace.jsonl"):
            assert (tmp_path / "full" / name).read_bytes() == (resume / name).read_bytes(), \
                (case, name)


#: The series tags a member's schedule holds for each device it owns.
DEVICE_TAGS = {"bss": {"pcha", "pdis", "socb"}, "ev": {"pev", "sev", "jev"},
               "wb": {"pwb", "twb", "jwb"}, "hp": {"php", "thp", "jhp"}}


def test_series_tags_are_those_of_solved_schedules():
    """Every mode writes the series of the member's devices and the references
    of its flexible devices, each tag one of :data:`~reccoord.central.SERIES`."""
    scenario = generate_synthetic(SyntheticConfig(members=8, seed=3, wb_rate=0.5, ev_rate=0.5,
                                                  hp_rate=0.5, bss_rate=0.5, pv_total_kwp=30.0,
                                                  dt_hours=1.0))
    schedules = [central.solve_centralized(central.SolvedDay(scenario, 0), mode)
                 for mode in central.PlannerMode]
    schedules += [decentral.run_ecflexit(central.SolvedDay(scenario, 0), key="equal",
                                         primed=primed)[0]
                  for primed in (False, True)]
    assert len({sched.mode for sched in schedules}) == 6
    owned = set()
    for sched in schedules:
        for member, m in zip(scenario.members, sched.members):
            tags = {"iret", "eret", "icom", "ecom", "pinj", "ppv"}.union(
                *(device for slot, device in DEVICE_TAGS.items()
                  if getattr(member, slot) is not None))
            assert set(m.series) == tags, (sched.mode, m.member_id)
            assert tags <= set(central.SERIES)
            assert list(m.refs) \
                == [name for name in ("ev", "wb", "hp") if getattr(member, name) is not None]
            owned.add(frozenset(m.series))
    assert len(owned) >= 6  # the device mix differs between members


def test_lp_backends_write_identical_reports(tmp_path, monkeypatch):
    """Every mode solved cold writes the bytes of the ``linprog`` reference.

    ECFlex re-runs warm from its pinned basis, and each coordination member
    from its own previous run of the day, so by design their vertices are not
    the cold ones.  ECFlex must reach the cold optimum, and each warm member
    solve is held to its cold optimum in ``test_decentral``; their schedules
    must verify clean.
    """
    args = ["--generate", "members=6", "--seed", "7", "--key", "equal", "--trace"]
    cold = ["--modes", "solofix,soloflex,ecfix"]
    warm = ["ECFlexIt", "ECFlexItPrimed"]
    assert _run([*args, *cold, "--out", str(tmp_path / "highs")]) == 0
    assert _run([*args, "--modes", ",".join(warm), "--out", str(tmp_path / "warm")]) == 0
    scenario = load_scenario((tmp_path / "highs" / "scenario.json").read_bytes())
    day = central.SolvedDay(scenario, 0)
    ecflex = central.solve_centralized(day, central.PlannerMode.EC_FLEX)
    monkeypatch.setattr(central, "solve_lp", solve_with_linprog)
    assert _run([*args, *cold, "--out", str(tmp_path / "linprog")]) == 0
    for name in ("summary.csv", "benefits.csv", "schedules.csv", "trace.jsonl"):
        assert (tmp_path / "highs" / name).read_bytes() \
            == (tmp_path / "linprog" / name).read_bytes(), name

    cold_ecflex = solve_with_linprog(
        central._DayModel(day, central.PlannerMode.EC_FLEX, None, None).problem)
    assert ecflex.objective_value == pytest.approx(cold_ecflex.objective, rel=TOL_OPT)
    assert central.verify_day_schedule(day.scenario, ecflex) == []
    for mode in warm:
        doc = json.loads((tmp_path / "warm" / "checkpoint" / f"{mode}_0000.json").read_text())
        sched = reporting.schedule_from_dict(doc["schedule"])
        assert central.verify_day_schedule(day.scenario, sched) == [], mode


@pytest.mark.parametrize("community", [["--seed", "7", "--days", "1"],
                                       ["--seed", "3", "--days", "3", "--dt", "1.0"]],
                         ids=["golden-day", "three-hourly-days"])
def test_each_mode_alone_writes_its_rows_of_the_six_mode_run(tmp_path, community):
    """The modes of a day share their day LPs; no mode's schedules may depend
    on which other modes were run."""
    args = ["--generate", "members=6", "--key", "equal", *community]
    modes = ("SoloFix", "SoloFlex", "ECFix", "ECFlex", "ECFlexIt", "ECFlexItPrimed")
    assert _run([*args, "--modes", ",".join(modes), "--out", str(tmp_path / "all")]) == 0
    together = (tmp_path / "all" / "schedules.csv").read_text().splitlines()
    for mode in modes:
        assert _run([*args, "--modes", mode, "--out", str(tmp_path / mode)]) == 0
        alone = (tmp_path / mode / "schedules.csv").read_text().splitlines()
        rows = [line for line in alone if line.startswith(f"{mode},")]
        assert rows and len(rows) == len(alone) - 1, mode  # all but the header
        assert rows == [line for line in together if line.startswith(f"{mode},")], mode


def test_a_day_solves_each_distinct_day_lp_once(tmp_path, monkeypatch):
    """On the first day every mode starts from the scenario's states: ECFlex's
    pinned phase gives ECFix, ECFlexIt reuses that ECFix and ECFlexItPrimed's
    priming reuses SoloFlex, so 4 day models and 5 HiGHS runs serve 7 solves.
    On the next day each mode starts from its own states, and nothing of the
    first day is reused: 7 models, 8 runs (ECFlex runs twice)."""
    builds, runs, day_of = Counter(), Counter(), []

    init = central._DayModel.__init__

    def counting_init(self, solved, *args):
        builds[solved.day] += 1
        day_of.append(solved.day)
        init(self, solved, *args)

    def counting_run(model, warm=False):
        runs[day_of[-1] if day_lp else None] += 1
        run(model, warm)

    def solve_lp(problem, warm=False):
        nonlocal day_lp
        day_lp = problem.name == "day"
        try:
            return lpcore.solve_lp(problem, warm)
        finally:
            day_lp = False

    day_lp, run = False, lpcore._run
    monkeypatch.setattr(central._DayModel, "__init__", counting_init)
    monkeypatch.setattr(lpcore, "_run", counting_run)
    monkeypatch.setattr(central, "solve_lp", solve_lp)
    assert _run(["--generate", "members=6", "--seed", "7", "--dt", "1.0", "--days", "2",
                 "--modes", "solofix,soloflex,ecfix,ecflex,ecflexit,ecflexitprimed",
                 "--key", "equal", "--out", str(tmp_path)]) == 0
    assert dict(builds) == {0: 4, 1: 7}
    assert runs[0] == 5 and runs[1] == 8


def test_a_run_slices_each_day_once(tmp_path, monkeypatch):
    """Every solve of a day works on one slice of it, made on the day's first
    mode the checkpoint does not hold: one slice per day, none on a full resume."""
    slices = []
    for_day = Scenario.for_day

    def counting(self, day):
        slices.append(day)
        return for_day(self, day)

    monkeypatch.setattr(Scenario, "for_day", counting)
    args = ["--generate", "members=6", "--seed", "7", "--days", "2", "--key", "equal",
            "--modes", "solofix,soloflex,ecfix,ecflex,ecflexit,ecflexitprimed",
            "--out", str(tmp_path)]
    assert _run(args) == 0
    assert slices == [0, 1]
    slices.clear()
    assert _run(args) == 0
    assert slices == []


#: sha256 of the report files of :data:`GOLDEN_ARGS`, recorded with scipy 1.17.1
#: (HiGHS 1.12.0).
GOLDEN_ARGS = ["--generate", "members=6", "--seed", "7", "--modes",
               "solofix,soloflex,ecfix,ecflex,ecflexit,ecflexitprimed", "--key", "equal",
               "--trace", "--days", "1"]
GOLDEN_SHA256 = {
    "summary.csv": "0ac0400f56b1e1e3c3a8964d099919c3b093d4c78fc104c2eadb5fc803bbdc39",
    "benefits.csv": "7529af7d0bde0d9b17ac11c97fdb3715304151858a27d1ba8ea51df1d35d959f",
    "schedules.csv": "942784b3618a80bc97fd464818cfd3709416dc65c0d6f84d839df24ee01bc23a",
    "trace.jsonl": "a57dfbdc841c79bdd2406c213d50a0441990a840b0605470669bcab781c1da5c",
}
#: sha256 of the report files of :data:`GOLDEN_ARGS` over two days under the
#: other two repartition keys, recorded under the same solver.
GOLDEN_KEY_SHA256 = {
    "prorate": {
        "summary.csv": "f1be2cb58517d800993616ff53e8e15823734d77800addc68927ef8d97a064a7",
        "benefits.csv": "6999ab689634bca65d96e17b417013743232b0fb008631c77c16d1389a1d8b01",
        "schedules.csv": "0d13d00bc1eb7d4a225e264a697ee5f352f38758a7fd030041584dcd9c6ec72d",
        "trace.jsonl": "c7d9b1eecf5c419b2dd86b470204e830e8e9d80ba27e5194703c9b938a130334",
    },
    "cascade": {
        "summary.csv": "aabed8240e6cbfab2b0c36feb5e18e09a468768cfca8cf791f533c749fb93961",
        "benefits.csv": "a876dc91810c8f4f9ac1609b385c694cc930757e1e3120de856b8aedb9c40ffa",
        "schedules.csv": "4ec30d4635105412cc27d798b8d6d2db7b53d28c951d46a43831d655d92e2718",
        "trace.jsonl": "a15d9a7b9f5f4360846b7c09cb3fcdcd872b416c32fb3bcf67b540fd78513599",
    },
}


def test_reports_match_the_golden_hashes(tmp_path):
    """The four report files of a six-mode run are pinned byte for byte.

    Refactors must keep these bytes.  A HiGHS upgrade that moves the optimal
    vertex changes them legitimately; then record the hashes again from a run
    of the unchanged code under the new solver.
    """
    assert _run([*GOLDEN_ARGS, "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


@pytest.mark.parametrize("key", sorted(GOLDEN_KEY_SHA256))
def test_reports_under_the_other_keys_match_their_golden_hashes(tmp_path, key):
    """The coordination's bytes over two days under ``prorate`` and ``cascade``,
    whose splits run in exact rational arithmetic, are pinned as ``equal``'s."""
    # the later --key and --days override those of GOLDEN_ARGS
    assert _run([*GOLDEN_ARGS, "--key", key, "--days", "2", "--out", str(tmp_path)]) == 0
    want = GOLDEN_KEY_SHA256[key]
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
    assert got == want


def test_reports_do_not_depend_on_the_solve_order(tmp_path, monkeypatch):
    """A schedule the day's memo hands back is the one the mode's own solve
    would make, so solving the modes of a day in the earlier order, the
    current one or its reverse writes the same bytes over two days."""
    earlier = ("ECFlex", "ECFix", "SoloFlex", "SoloFix", "ECFlexIt", "ECFlexItPrimed")
    reports = []
    for order in (earlier, cli.SOLVE_ORDER, cli.SOLVE_ORDER[::-1]):
        monkeypatch.setattr(cli, "SOLVE_ORDER", order)
        out = tmp_path / "-".join(order)
        assert _run([*GOLDEN_ARGS, "--days", "2", "--out", str(out)]) == 0
        reports.append({name: (out / name).read_bytes() for name in REPORTS})
    assert reports[0] == reports[1] == reports[2]


def test_each_solved_mode_day_gives_back_memory_once(tmp_path, monkeypatch):
    """The heap is trimmed once after each (mode, day) solved, and never for
    one the checkpoint holds."""
    trims = []
    monkeypatch.setattr(cli, "_malloc_trim", lambda: trims.append)
    args = [*GOLDEN_ARGS, "--days", "2", "--out", str(tmp_path)]
    assert _run(args) == 0
    assert trims == [0] * 12
    trims.clear()
    assert _run(args) == 0
    assert trims == []


def _raising(exc: type[Exception]):
    def cdll(name):
        raise exc(name)
    return cdll


@pytest.mark.parametrize("cdll", [lambda name: object(), _raising(OSError),
                                  _raising(TypeError)],
                         ids=["no-symbol", "no-library", "no-default-library"])
def test_a_c_library_without_malloc_trim_writes_the_same_reports(tmp_path, monkeypatch, cdll):
    """Where the C library has no ``malloc_trim`` (musl, macOS) or none can be
    opened by a null name (Windows), nothing is trimmed and nothing else changes."""
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cli._malloc_trim.cache_clear()
    try:
        assert cli._malloc_trim() is None
        assert _run([*GOLDEN_ARGS, "--out", str(tmp_path)]) == 0
    finally:
        cli._malloc_trim.cache_clear()  # the real library is looked up again
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_iters_below_one_is_a_usage_error(tmp_path, capsys, value):
    code = _run(["--generate", "members=2", "--modes", "ecflexit", "--key", "equal",
                 "--max-iters", value, "--out", str(tmp_path)])
    assert code == 2
    assert "--max-iters must be at least 1" in capsys.readouterr().err


def test_trace_dicts_are_kept_only_with_trace(tmp_path):
    """Without --trace a decentralized mode hands back no trace lines, while
    its checkpoint still stores them for a later traced resume."""
    scenario = generate_synthetic(SyntheticConfig(members=4, seed=5, wb_rate=0.5, ev_rate=0.25,
                                                  hp_rate=0.25, bss_rate=0.25,
                                                  pv_total_kwp=16.0, dt_hours=1.0))
    for trace in (False, True):
        config = cli.RunConfig(None, None, ["ECFlexIt"], "equal", 1, tmp_path, trace=trace)
        checkpoint = cli._Checkpoint(tmp_path, cli._fingerprint(dump_scenario(scenario), config))
        _, traces = cli._run_modes(lambda: scenario, 1, config, checkpoint)
        assert bool(traces["ECFlexIt"]) is trace


def test_a_checkpoint_written_without_trace_resumes_with_the_cold_trace(tmp_path, monkeypatch):
    args = ["--generate", GEN, "--seed", "5", "--modes", "ecflex,ecflexit,ecflexitprimed",
            "--key", "equal", "--days", "1", "--dt", "1.0"]
    assert _run([*args, "--trace", "--out", str(tmp_path / "cold")]) == 0
    resume = tmp_path / "resume"
    assert _run([*args, "--out", str(resume)]) == 0
    assert (resume / "trace.jsonl").read_bytes() == b""

    def no_solve(*_):
        raise AssertionError("a checkpointed day was solved again")

    monkeypatch.setattr(cli, "_solve_day", no_solve)
    assert _run([*args, "--trace", "--out", str(resume)]) == 0
    assert (resume / "trace.jsonl").read_bytes()
    for name in ("summary.csv", "benefits.csv", "schedules.csv", "trace.jsonl"):
        assert (tmp_path / "cold" / name).read_bytes() == (resume / name).read_bytes(), name
