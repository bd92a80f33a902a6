"""Serialization of schedules, traces and reports to stable file formats.

All writers are deterministic: fixed column orders, rows sorted by
``(day, step, member id, variable name)``, numbers printed with 9
significant digits, UTF-8, LF line endings, RFC-4180 quoting.  Identical
inputs produce byte-identical files, so the outputs are usable as golden
files in regression tests.

``schedules.csv`` has one row per mode, day, step, member and variable.  Its
rows are written one step per ``write``: the mode, day, member and variable
cells are quoted once by the same ``csv`` dialect as the other files, and
only the values are formatted per row.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .billing import Bill, MemberBenefit, ModeSummary, Report
from .central import SERIES, DaySchedule, MemberDaySchedule
from .decentral import IterationTrace

#: Fixed row order of the summary table: the fields of a mode's summary.
SUMMARY_METRICS = tuple(f.name for f in fields(ModeSummary) if f.name != "mode")

#: Gap metrics appear as extra summary rows under the decentralized mode column.
GAP_ROWS = (
    ("raw_deviation", "_raw_deviation"),
    ("savings_gap", "_savings_gap"),
)

#: Variable name in ``schedules.csv`` of each member series tag.
SERIES_NAMES = {tag: variable for tag, (variable, _) in SERIES.items()}


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


def _csv_cells(*cells) -> str:
    """``cells`` as one row of the report dialect, without the line terminator."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()[:-1]


def _write_schedule_rows(handle, mode: str, sched: DaySchedule) -> None:
    """Append ``sched``'s rows of ``schedules.csv``, one ``write`` per step."""
    # per member in id order, its variables in name order
    columns = [(m.member_id, SERIES_NAMES[tag], m.series[tag])
               for m in sorted(sched.members, key=lambda m: m.member_id)
               for tag in sorted(m.series, key=SERIES_NAMES.__getitem__)]
    if not columns:
        return
    head = _csv_cells(mode, sched.day)
    tails = [_csv_cells(member_id, variable) for member_id, variable, _ in columns]
    values = np.column_stack([series for _, _, series in columns])
    for t in range(values.shape[0]):
        lead = f"{head},{t},"
        handle.write("".join([f"{lead}{tail},{v:.9g}\n"
                              for tail, v in zip(tails, values[t].tolist())]))


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
                _write_schedule_rows(handle, mode, sched)

    with files.trace_jsonl.open("w", encoding="utf-8", newline="") as fh:
        for trace in traces:
            doc = trace if isinstance(trace, dict) else trace.to_dict()
            fh.write(json.dumps(doc, separators=(",", ":")))
            fh.write("\n")

    return files


# ---------------------------------------------------------------------------
# Schedule (de)serialization, used for day-level checkpointing


def _lists(arrays: Mapping[str, np.ndarray | None]) -> dict[str, list[float]]:
    return {key: np.asarray(arr, dtype=np.float64).tolist()
            for key, arr in arrays.items() if arr is not None}


def _arrays(lists: Mapping[str, list[float]]) -> dict[str, np.ndarray]:
    return {key: np.array(values, dtype=np.float64) for key, values in lists.items()}


def schedule_to_dict(sched: DaySchedule) -> dict:
    members = [{**vars(m), "series": _lists(m.series), "refs": _lists(m.refs),
                "bill": None if m.bill is None else asdict(m.bill)}
               for m in sched.members]
    return {**vars(sched), "members": members}


def schedule_from_dict(doc: dict) -> DaySchedule:
    members = [MemberDaySchedule(**{**m, "series": _arrays(m["series"]),
                                    "refs": _arrays(m["refs"]),
                                    "bill": None if m["bill"] is None else Bill(**m["bill"])})
               for m in doc["members"]]
    return DaySchedule(**{**doc, "members": members})
