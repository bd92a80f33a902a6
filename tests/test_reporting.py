"""Report writers: byte stability, fixed layouts, round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from reccoord.billing import Report, individual_benefits, summarize
from reccoord.central import PlannerMode, solve_centralized
from reccoord.decentral import run_ecflexit
from reccoord.reporting import (load_schedules_csv, schedule_from_dict,
                                schedule_to_dict, write_report)
from reccoord.scenario import SyntheticConfig, generate_synthetic


@pytest.fixture(scope="module")
def toy_results():
    s = generate_synthetic(SyntheticConfig(members=3, seed=4, steps_per_day=24,
                                           dt_hours=1.0, pv_total_kwp=12.0))
    results = {
        "SoloFix": [solve_centralized(s, 0, PlannerMode.SOLO_FIX)],
        "ECFlex": [solve_centralized(s, 0, PlannerMode.EC_FLEX)],
    }
    sched, traces = run_ecflexit(s, 0, key="equal")
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
    a = write_report(report, results, tmp_path / "a", benefits=benefits, traces=traces)
    b = write_report(report, results, tmp_path / "b", benefits=benefits, traces=traces)
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
    files = write_report(summarize(results), results, tmp_path, traces=traces)
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
