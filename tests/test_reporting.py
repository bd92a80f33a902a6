"""Report writers: byte stability, fixed layouts, round-trips."""

from __future__ import annotations

import base64
import csv
import io
import json

import numpy as np
import pytest

from reccoord import reporting
from reccoord.billing import Report, individual_benefits, summarize
from reccoord.central import (DaySchedule, MemberDaySchedule, PlannerMode, SolvedDay,
                              solve_centralized)
from reccoord.decentral import run_ecflexit
from reccoord.reporting import schedule_from_dict, schedule_to_dict, trace_line, write_report
from reccoord.scenario import SyntheticConfig, generate_synthetic
from helpers import load_schedules_csv, write_schedules_csv_reference


@pytest.fixture(scope="module")
def toy_results():
    s = generate_synthetic(SyntheticConfig(members=3, seed=4, dt_hours=1.0, pv_total_kwp=12.0))
    results = {
        "SoloFix": [solve_centralized(SolvedDay(s, 0), PlannerMode.SOLO_FIX)],
        "ECFlex": [solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FLEX)],
    }
    sched, traces = run_ecflexit(SolvedDay(s, 0), key="equal")
    results["ECFlexIt"] = [sched]
    return s, results, traces


def test_empty_report_writes_headers_only(tmp_path):
    files = write_report(Report(modes=(), gaps={}), {}, tmp_path)
    assert files.summary_csv.read_text() == "metric\n"
    assert files.benefits_csv.read_text().startswith("member_id,mode,")
    assert files.benefits_csv.read_text().count("\n") == 1
    assert files.schedules_csv.read_text().count("\n") == 1
    assert files.trace_jsonl.read_text() == ""


def test_summary_has_one_column_per_mode_and_gap_rows(toy_results, tmp_path):
    _, results, _ = toy_results
    report = summarize(results)
    files = write_report(report, results, tmp_path)
    lines = files.summary_csv.read_text().splitlines()
    assert lines[0] == "metric,SoloFix,ECFlex,ECFlexIt"
    metrics = [line.split(",")[0] for line in lines[1:]]
    assert "bill_eur" in metrics
    assert "raw_deviation" in metrics
    assert "savings_gap" in metrics
    for line in lines[1:]:
        assert len(line.split(",")) == 4


def test_identical_inputs_produce_identical_bytes(toy_results, tmp_path):
    _, results, traces = toy_results
    report = summarize(results)
    benefits = individual_benefits(results, "SoloFix")
    a = write_report(report, results, tmp_path / "a", benefits=benefits,
                     traces=map(trace_line, traces))
    b = write_report(report, results, tmp_path / "b", benefits=benefits,
                     traces=map(trace_line, traces))
    for name in ("summary_csv", "benefits_csv", "schedules_csv", "trace_jsonl"):
        assert getattr(a, name).read_bytes() == getattr(b, name).read_bytes()


def test_schedule_rows_are_ordered_and_reparse_within_precision(toy_results, tmp_path):
    _, results, _ = toy_results
    files = write_report(summarize(results), results, tmp_path)
    rows = load_schedules_csv(files.schedules_csv)
    assert rows, "no schedule rows written"

    by_mode: dict[str, list] = {}
    for row in rows:
        by_mode.setdefault(row["mode"], []).append(
            (row["day"], row["t"], row["member"], row["variable"]))
    for mode_rows in by_mode.values():
        assert mode_rows == sorted(mode_rows)

    sched = results["ECFlex"][0]
    member = sched.members[0]
    wanted = [r for r in rows if r["mode"] == "ECFlex" and r["t"] == 5
              and r["member"] == member.member_id and r["variable"] == "injection_kw"]
    assert len(wanted) == 1
    assert wanted[0]["value"] == pytest.approx(member.series["pinj"][5], rel=1e-8)


def test_trace_lines_are_valid_json(toy_results, tmp_path):
    _, results, traces = toy_results
    files = write_report(summarize(results), results, tmp_path, traces=map(trace_line, traces))
    lines = files.trace_jsonl.read_text().splitlines()
    assert len(lines) == len(traces)
    for line in lines:
        doc = json.loads(line)
        assert {"day", "iteration", "offers", "bounds", "activations"} <= set(doc)


def test_schedule_serialization_round_trip(toy_results):
    _, results, _ = toy_results
    sched = results["ECFlexIt"][0]
    doc = json.loads(json.dumps(schedule_to_dict(sched)))
    back = schedule_from_dict(doc)
    assert back.mode == sched.mode
    assert back.community_bill_eur == sched.community_bill_eur
    for original, restored in zip(sched.members, back.members):
        assert restored.member_id == original.member_id
        assert restored.bill.total_eur == original.bill.total_eur
        np.testing.assert_array_equal(restored.series["pinj"], original.series["pinj"])
        if original.series.get("pwb") is None:
            assert restored.series.get("pwb") is None
        else:
            np.testing.assert_array_equal(restored.series["pwb"], original.series["pwb"])


def test_checkpoint_arrays_round_trip_bit_for_bit():
    values = np.array([*SPECIAL_VALUES, 5e-324])
    sched = DaySchedule(
        mode="ECFlexIt", day=0, dt_hours=1.0, objective_value=0.0, community_bill_eur=0.0,
        community_discomfort_eur=0.0,
        members=[MemberDaySchedule("u01", {"pinj": values, "ppv": -values},
                                   refs={"wb": values[::-1]})])
    back = schedule_from_dict(json.loads(json.dumps(schedule_to_dict(sched))))
    (original,), (restored,) = sched.members, back.members
    for what in ("series", "refs"):
        arrays, restored_arrays = getattr(original, what), getattr(restored, what)
        assert list(restored_arrays) == list(arrays)
        for tag, arr in arrays.items():
            assert restored_arrays[tag].dtype == np.float64
            assert restored_arrays[tag].flags.writeable
            assert restored_arrays[tag].tobytes() == arr.tobytes(), (what, tag)


def _b64(*floats) -> str:
    return base64.b64encode(np.array(floats, dtype="<f8").tobytes()).decode()


@pytest.mark.parametrize("series", [
    [1],                                   # not an object
    {"pinj": [0.0, 1.0]},                  # a decimal list, not a string
    {"pinj": 5},
    {"pinj": "AAAA!AAA"},                  # not base64
    {"pinj": "AAAA"},                      # 3 bytes
    {"pinj": _b64(1.0, 2.0)[:-4]},         # 16 bytes cut to 13
], ids=["array", "list", "number", "bad-base64", "3-bytes", "cut"])
def test_undecodable_checkpoint_arrays_are_rejected(series):
    doc = {"mode": "SoloFix", "day": 0, "dt_hours": 1.0, "objective_value": 0.0,
           "community_bill_eur": 0.0, "community_discomfort_eur": 0.0,
           "members": [{"member_id": "u01", "series": {"pinj": _b64(1.0)}, "refs": {},
                        "bill": None, "discomfort_total_eur": 0.0, "flex_revenue_eur": 0.0}]}
    assert schedule_from_dict(doc).members[0].series["pinj"].tolist() == [1.0]
    for key in ("series", "refs"):
        bad = json.loads(json.dumps(doc))
        bad["members"][0][key] = series
        with pytest.raises((ValueError, TypeError)):
            schedule_from_dict(bad)


#: Member ids that need ``csv`` quoting (or, for ``\r``, none under the report
#: dialect) or ``%``-escaping in the row template, listed out of id order, each
#: with a different device set.
ODD_MEMBERS = (
    ("zoë", ()),
    ('say "hi"', ("pcha", "pdis", "socb")),
    ("line\nbreak", ("pev", "sev", "jev")),
    ("a,b", ("pwb", "twb", "jwb", "php", "thp", "jhp")),
    ("cr\rid", ("pcha", "pdis", "socb", "pev", "sev", "jev", "pwb", "twb", "jwb")),
    ("u01", ()),
    ("50%s off", ("php", "thp", "jhp")),
)
SPECIAL_VALUES = (-0.0, float("nan"), float("inf"), 1e-300, 123456789.123, -float("inf"))


def _hand_built(mode: str, day: int, members=ODD_MEMBERS, steps: int = 3) -> DaySchedule:
    rng = np.random.default_rng(day)
    base = ("iret", "eret", "icom", "ecom", "pinj", "ppv")
    built = []
    for k, (member_id, devices) in enumerate(members):
        tags = base + devices
        values = rng.normal(scale=10.0 ** (k - 2), size=(len(tags), steps))
        for j, v in enumerate(SPECIAL_VALUES):  # every special value somewhere
            values.flat[(k + 7 * j) % values.size] = v
        built.append(MemberDaySchedule(member_id, dict(zip(tags, values))))
    return DaySchedule(mode=mode, day=day, dt_hours=1.0, members=built, objective_value=0.0,
                       community_bill_eur=0.0, community_discomfort_eur=0.0)


def _hand_built_schedules(members=ODD_MEMBERS):
    return {"ECFlex": [_hand_built("ECFlex", 0, members), _hand_built("ECFlex", 1, members)],
            "ECFlexIt": [_hand_built("ECFlexIt", 0, members),
                         _hand_built("ECFlexIt", 1, members=())]}


def _written(schedules, out) -> bytes:
    files = write_report(Report(modes=(), gaps={}), schedules, out)
    return files.schedules_csv.read_bytes()


def test_schedules_csv_matches_the_per_cell_writer(tmp_path):
    schedules = _hand_built_schedules()
    write_schedules_csv_reference(schedules, tmp_path / "reference.csv")
    expected = (tmp_path / "reference.csv").read_bytes()
    assert _written(schedules, tmp_path / "report") == expected
    text = expected.decode()
    for needle in ('"line\nbreak"', '"say ""hi"""', '"a,b"', "cr\rid", "zoë", ",50%s off,",
                   ",-0\n", ",nan\n", ",inf\n", ",-inf\n", ",1e-300\n", ",123456789\n"):
        assert needle in text, needle
    assert "\nECFlex,1,0," in text and "\nECFlexIt,0,0," in text
    assert "\nECFlexIt,1," not in text  # a day without members adds no rows


def test_an_unquoted_line_break_in_an_id_is_caught(tmp_path, monkeypatch):
    """Cells rendered with an empty line terminator leave ``\n`` unquoted; the
    comparison above must see that."""
    def no_terminator(*cells):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(cells)
        return buf.getvalue()

    monkeypatch.setattr(reporting, "_csv_cells", no_terminator)
    schedules = _hand_built_schedules()
    write_schedules_csv_reference(schedules, tmp_path / "reference.csv")
    assert _written(schedules, tmp_path / "a") != (tmp_path / "reference.csv").read_bytes()

    plain = tuple(m for m in ODD_MEMBERS if "\n" not in m[0])
    schedules = _hand_built_schedules(plain)
    write_schedules_csv_reference(schedules, tmp_path / "plain.csv")
    assert _written(schedules, tmp_path / "b") == (tmp_path / "plain.csv").read_bytes()
