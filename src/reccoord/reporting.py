"""Serialization of schedules, traces and reports to stable file formats.

All writers are deterministic: fixed column orders, rows sorted by
``(day, step, member id, variable name)``, numbers printed with 9
significant digits, UTF-8, LF line endings, RFC-4180 quoting.  Identical
inputs produce byte-identical files, so the outputs are usable as golden
files in regression tests.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .billing import Bill, MemberBenefit, Report
from .central import DaySchedule, MemberDaySchedule
from .decentral import IterationTrace

#: Fixed row order of the summary table.
SUMMARY_METRICS = (
    "bill_eur",
    "discomfort_ev_eur",
    "discomfort_wb_eur",
    "discomfort_hp_eur",
    "activated_kwh",
    "activated_ev_kwh",
    "activated_wb_kwh",
    "activated_hp_kwh",
    "bss_discharge_kwh",
)

#: Gap metrics appear as extra summary rows under the decentralized mode column.
GAP_ROWS = (
    ("raw_deviation", "_raw_deviation"),
    ("savings_gap", "_savings_gap"),
)


@dataclass(frozen=True)
class ReportFiles:
    summary_csv: Path
    benefits_csv: Path
    schedules_csv: Path
    trace_jsonl: Path


def _fmt(value: float) -> str:
    return f"{float(value):.9g}"


def _open_csv(path: Path):
    handle = path.open("w", encoding="utf-8", newline="")
    return handle, csv.writer(handle, lineterminator="\n")


def _member_series(m: MemberDaySchedule) -> dict[str, np.ndarray]:
    """Present per-step series of one member schedule, by variable name."""
    series = {
        "import_retailer_kw": m.import_retailer_kw,
        "export_retailer_kw": m.export_retailer_kw,
        "import_community_kw": m.import_community_kw,
        "export_community_kw": m.export_community_kw,
        "injection_kw": m.injection_kw,
        "pv_kw": m.pv_kw,
        "bss_charge_kw": m.bss_charge_kw,
        "bss_discharge_kw": m.bss_discharge_kw,
        "bss_soc": m.bss_soc,
        "ev_power_kw": m.ev_power_kw,
        "ev_soc": m.ev_soc,
        "ev_discomfort_eur": m.ev_discomfort_eur,
        "wb_power_kw": m.wb_power_kw,
        "wb_temp_c": m.wb_temp_c,
        "wb_discomfort_eur": m.wb_discomfort_eur,
        "hp_power_kw": m.hp_power_kw,
        "hp_temp_c": m.hp_temp_c,
        "hp_discomfort_eur": m.hp_discomfort_eur,
    }
    return {name: arr for name, arr in series.items() if arr is not None}


def write_report(report: Report, schedules: Mapping[str, Sequence[DaySchedule]],
                 out_dir: str | Path,
                 benefits: Mapping[str, Sequence[MemberBenefit]] | None = None,
                 traces: Iterable[IterationTrace | dict] = (),
                 ) -> ReportFiles:
    """Write the four report files under ``out_dir`` (created if missing)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = ReportFiles(
        summary_csv=out / "summary.csv",
        benefits_csv=out / "benefits.csv",
        schedules_csv=out / "schedules.csv",
        trace_jsonl=out / "trace.jsonl",
    )

    modes = [s.mode for s in report.modes]
    handle, writer = _open_csv(files.summary_csv)
    with handle:
        writer.writerow(["metric", *modes])
        if modes:
            for metric in SUMMARY_METRICS:
                writer.writerow(
                    [metric, *[_fmt(getattr(report.mode(m), metric)) for m in modes]])
            for row_name, suffix in GAP_ROWS:
                values = {m: report.gaps[m + suffix]
                          for m in modes if (m + suffix) in report.gaps}
                if values:
                    writer.writerow([row_name,
                                     *[_fmt(values[m]) if m in values else "" for m in modes]])

    handle, writer = _open_csv(files.benefits_csv)
    with handle:
        writer.writerow(["member_id", "mode", "bill_delta_eur",
                         "discomfort_delta_eur", "flex_revenue_eur"])
        for mode, rows in (benefits or {}).items():
            for b in rows:
                writer.writerow([b.member_id, mode, _fmt(b.bill_delta_eur),
                                 _fmt(b.discomfort_delta_eur), _fmt(b.flex_revenue_eur)])

    handle, writer = _open_csv(files.schedules_csv)
    with handle:
        writer.writerow(["mode", "day", "t", "member", "variable", "value"])
        for mode, day_schedules in schedules.items():
            for sched in day_schedules:
                per_member = {m.member_id: _member_series(m) for m in sched.members}
                steps = 0 if not sched.members else len(sched.members[0].injection_kw)
                for t in range(steps):
                    for member_id in sorted(per_member):
                        series = per_member[member_id]
                        for variable in sorted(series):
                            writer.writerow([mode, sched.day, t, member_id, variable,
                                             _fmt(series[variable][t])])

    with files.trace_jsonl.open("w", encoding="utf-8", newline="") as fh:
        for trace in traces:
            doc = trace if isinstance(trace, dict) else trace.to_dict()
            fh.write(json.dumps(doc, separators=(",", ":")))
            fh.write("\n")

    return files


def load_schedules_csv(path: str | Path) -> list[dict]:
    """Parse a schedules CSV back into row dicts (numeric fields converted)."""
    rows = []
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        for record in csv.DictReader(fh):
            record["day"] = int(record["day"])
            record["t"] = int(record["t"])
            record["value"] = float(record["value"])
            rows.append(record)
    return rows


# ---------------------------------------------------------------------------
# Schedule (de)serialization, used for day-level checkpointing


def _arr(values) -> np.ndarray | None:
    return None if values is None else np.array(values, dtype=np.float64)


def _lst(arr: np.ndarray | None) -> list[float] | None:
    return None if arr is None else [float(v) for v in arr]


def schedule_to_dict(sched: DaySchedule) -> dict:
    members = []
    for m in sched.members:
        members.append({
            "member_id": m.member_id,
            "import_retailer_kw": _lst(m.import_retailer_kw),
            "export_retailer_kw": _lst(m.export_retailer_kw),
            "import_community_kw": _lst(m.import_community_kw),
            "export_community_kw": _lst(m.export_community_kw),
            "injection_kw": _lst(m.injection_kw),
            "pv_kw": _lst(m.pv_kw),
            "bss_charge_kw": _lst(m.bss_charge_kw),
            "bss_discharge_kw": _lst(m.bss_discharge_kw),
            "bss_soc": _lst(m.bss_soc),
            "ev_power_kw": _lst(m.ev_power_kw),
            "ev_soc": _lst(m.ev_soc),
            "ev_discomfort_eur": _lst(m.ev_discomfort_eur),
            "wb_power_kw": _lst(m.wb_power_kw),
            "wb_temp_c": _lst(m.wb_temp_c),
            "wb_discomfort_eur": _lst(m.wb_discomfort_eur),
            "hp_power_kw": _lst(m.hp_power_kw),
            "hp_temp_c": _lst(m.hp_temp_c),
            "hp_discomfort_eur": _lst(m.hp_discomfort_eur),
            "ref_ev_kw": _lst(m.ref_ev_kw),
            "ref_wb_kw": _lst(m.ref_wb_kw),
            "ref_hp_kw": _lst(m.ref_hp_kw),
            "bill": None if m.bill is None else {
                "member_id": m.bill.member_id,
                "retailer_cost_eur": m.bill.retailer_cost_eur,
                "retailer_revenue_eur": m.bill.retailer_revenue_eur,
                "community_fees_eur": m.bill.community_fees_eur,
                "total_eur": m.bill.total_eur,
            },
            "lp_bill_eur": m.lp_bill_eur,
            "discomfort_total_eur": m.discomfort_total_eur,
            "flex_revenue_eur": m.flex_revenue_eur,
        })
    return {
        "mode": sched.mode,
        "day": sched.day,
        "dt_hours": sched.dt_hours,
        "members": members,
        "objective_value": sched.objective_value,
        "community_bill_eur": sched.community_bill_eur,
        "community_discomfort_eur": sched.community_discomfort_eur,
    }


def schedule_from_dict(doc: dict) -> DaySchedule:
    members = []
    for m in doc["members"]:
        bill = None
        if m["bill"] is not None:
            bill = Bill(
                member_id=m["bill"]["member_id"],
                retailer_cost_eur=m["bill"]["retailer_cost_eur"],
                retailer_revenue_eur=m["bill"]["retailer_revenue_eur"],
                community_fees_eur=m["bill"]["community_fees_eur"],
                total_eur=m["bill"]["total_eur"],
            )
        members.append(MemberDaySchedule(
            member_id=m["member_id"],
            import_retailer_kw=_arr(m["import_retailer_kw"]),
            export_retailer_kw=_arr(m["export_retailer_kw"]),
            import_community_kw=_arr(m["import_community_kw"]),
            export_community_kw=_arr(m["export_community_kw"]),
            injection_kw=_arr(m["injection_kw"]),
            pv_kw=_arr(m["pv_kw"]),
            bss_charge_kw=_arr(m["bss_charge_kw"]),
            bss_discharge_kw=_arr(m["bss_discharge_kw"]),
            bss_soc=_arr(m["bss_soc"]),
            ev_power_kw=_arr(m["ev_power_kw"]),
            ev_soc=_arr(m["ev_soc"]),
            ev_discomfort_eur=_arr(m["ev_discomfort_eur"]),
            wb_power_kw=_arr(m["wb_power_kw"]),
            wb_temp_c=_arr(m["wb_temp_c"]),
            wb_discomfort_eur=_arr(m["wb_discomfort_eur"]),
            hp_power_kw=_arr(m["hp_power_kw"]),
            hp_temp_c=_arr(m["hp_temp_c"]),
            hp_discomfort_eur=_arr(m["hp_discomfort_eur"]),
            ref_ev_kw=_arr(m["ref_ev_kw"]),
            ref_wb_kw=_arr(m["ref_wb_kw"]),
            ref_hp_kw=_arr(m["ref_hp_kw"]),
            bill=bill,
            lp_bill_eur=m["lp_bill_eur"],
            discomfort_total_eur=m["discomfort_total_eur"],
            flex_revenue_eur=m["flex_revenue_eur"],
        ))
    return DaySchedule(
        mode=doc["mode"],
        day=doc["day"],
        dt_hours=doc["dt_hours"],
        members=members,
        objective_value=doc["objective_value"],
        community_bill_eur=doc["community_bill_eur"],
        community_discomfort_eur=doc["community_discomfort_eur"],
    )
