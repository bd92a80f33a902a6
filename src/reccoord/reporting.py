"""Serialization of schedules, traces and reports to stable file formats.

All writers are deterministic: fixed column orders, rows sorted by
``(day, step, member id, variable name)``, numbers printed with 9
significant digits, UTF-8, LF line endings, RFC-4180 quoting.  Identical
inputs produce byte-identical files, so the outputs are usable as golden
files in regression tests.

``schedules.csv`` has one row per mode, day, step, member and variable.  Its
rows are written one step per ``write``: the mode, day, member and variable
cells are quoted once by the same ``csv`` dialect as the other files into a
``%`` template of the day, and each step's values are formatted by one ``%``,
except ``+0.0`` values, written as a literal ``0``.

A re-run need not render ``schedules.csv`` again.  Given a *source*, a key
of what the rows are rendered from, :func:`write_report` keeps the file in
place when the record of its last write names that source and the file still
hashes to the record's SHA-256; the caller stores the record of each new
write (see :class:`reccoord.cli._Checkpoint`).  The other three reports are
rewritten on every call.

``trace.jsonl`` holds one :func:`trace_line` per coordination round.  A run
serializes each round once; the checkpoint keeps those lines and the report
writes them as they are.

Checkpoints (format 7) store each member's ``series`` and ``refs`` arrays as
the base64 of their little-endian float64 bytes, which round-trips every
value bit for bit, NaN, infinities, ``-0.0`` and subnormals included.  The
files are about 20% larger than decimal JSON lists, a zero costing 12
characters, but nothing is formatted or parsed as decimal text.  Whether a
file is reused is decided before it reaches :func:`schedule_from_dict`, by
its digest (see :class:`reccoord.cli._Checkpoint`); the decoder still
rejects what is not an :func:`_encode` object, for any caller.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import json
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

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


@dataclass(frozen=True)
class ReportFiles:
    summary_csv: Path
    benefits_csv: Path
    schedules_csv: Path
    trace_jsonl: Path


def _fmt(value: float) -> str:
    return f"{float(value):.9g}"


@contextmanager
def replacing(path: Path) -> Iterator[Path]:
    """The path to write the new bytes of ``path`` to; on exit they replace it.

    The new bytes go to ``<name>.tmp``, then the old file is unlinked and the
    temp file renamed into its place.  The old file is never truncated or
    renamed over, either of which can make the write wait for disk writeback
    (ext4 does), and a crash leaves the old file or no file, never a cut one.
    If the body fails (a full disk) or the old file cannot be removed (a
    directory in its place), the temp file is removed and the error raised.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        path.unlink(missing_ok=True)
        tmp.rename(path)
    except BaseException:
        with suppress(OSError):  # a directory in place of the temp file stays
            tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _rewrite(path: Path) -> Iterator[TextIO]:
    """A text handle whose bytes replace ``path`` (see :func:`replacing`) once it closes."""
    with replacing(path) as tmp, tmp.open("w", encoding="utf-8", newline="") as handle:
        yield handle


#: Bytes read per call when a file is hashed.
_CHUNK = 1 << 20


def _sha256(path: Path) -> str | None:
    """The SHA-256 of the file at ``path``, read in :data:`_CHUNK`-byte
    pieces so that a large report is never held whole; None if it cannot be
    read (missing, or a directory in its place)."""
    digest = hashlib.sha256()
    try:
        with path.open("rb") as handle:
            while chunk := handle.read(_CHUNK):
                digest.update(chunk)
    except OSError:
        return None
    return digest.hexdigest()


def _holds(path: Path, source: str, record: object) -> bool:
    """Whether ``record`` was stored for ``path`` rendered from ``source`` and
    the file still hashes to it; a record of any other shape holds nothing."""
    if not isinstance(record, dict) or record.get("source") != source:
        return False
    digest = _sha256(path)
    return digest is not None and record.get("sha256") == digest


def _csv_writer(handle: TextIO):
    return csv.writer(handle, lineterminator="\n")


def _csv_cells(*cells) -> str:
    """``cells`` as one row of the report dialect, without the line terminator."""
    buf = io.StringIO()
    _csv_writer(buf).writerow(cells)
    return buf.getvalue()[:-1]


def _write_schedule_rows(handle, mode: str, sched: DaySchedule) -> None:
    """Append ``sched``'s rows of ``schedules.csv``, one ``write`` per step."""
    # per member in id order, its variables in name order
    columns = [(m.member_id, SERIES[tag], m.series[tag])
               for m in sorted(sched.members, key=lambda m: m.member_id)
               for tag in sorted(m.series, key=SERIES.__getitem__)]
    if not columns:
        return
    # "%.9g" % x formats as f"{x:.9g}"; the quoted cells are %-escaped.  A
    # +0.0 (most values) takes a piece that writes its "0" unformatted.
    head = _csv_cells(mode, sched.day).replace("%", "%%")
    cells = [_csv_cells(member_id, variable).replace("%", "%%")
             for member_id, variable, _ in columns]
    formatted = np.array([c + ",%.9g\n" for c in cells], dtype=object)
    literal = np.array([c + ",0\n" for c in cells], dtype=object)
    values = np.column_stack([series for _, _, series in columns])
    zero = (values == 0) & ~np.signbit(values)
    rest = values[~zero].tolist()  # the values to format, step after step
    stops = np.cumsum((~zero).sum(axis=1)).tolist()
    for t, (is_zero, start, stop) in enumerate(zip(zero, [0, *stops], stops)):
        pieces = np.where(is_zero, literal, formatted).tolist()
        handle.write(f"{head},{t},".join(["", *pieces]) % tuple(rest[start:stop]))


def trace_line(trace: IterationTrace) -> str:
    """``trace`` as its line of ``trace.jsonl``, without the line break."""
    return json.dumps(trace.to_dict(), separators=(",", ":"))


def write_report(report: Report, schedules: Mapping[str, Sequence[DaySchedule]],
                 out_dir: str | Path,
                 benefits: Mapping[str, Sequence[MemberBenefit]] | None = None,
                 traces: Iterable[str] = (), schedules_source: str | None = None,
                 schedules_record: object = None,
                 store_record: Callable[[dict], None] | None = None) -> ReportFiles:
    """Write the four report files under ``out_dir`` (created if missing).

    ``traces`` are the rounds' :func:`trace_line` strings, written as given.
    Each file replaces the one of an earlier run as :func:`replacing` does:
    no earlier report is truncated or written through, so a re-run into the
    same directory does not wait for the old files' pages to reach the disk.

    ``schedules_source`` is a key of ``schedules``: equal keys must render
    equal rows.  With one, ``schedules.csv`` is kept in place when
    ``schedules_record``, the record an earlier call stored, names the same
    source and the file still hashes to it.  Otherwise the file is rendered
    and hashed, and ``store_record`` is called with its new record,
    ``{"source": schedules_source, "sha256": <hex>}``; it must be given with
    a source.  Without a source the file is always rendered and no record is
    made.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = ReportFiles(
        summary_csv=out / "summary.csv",
        benefits_csv=out / "benefits.csv",
        schedules_csv=out / "schedules.csv",
        trace_jsonl=out / "trace.jsonl",
    )

    modes = [s.mode for s in report.modes]
    with _rewrite(files.summary_csv) as handle:
        writer = _csv_writer(handle)
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

    with _rewrite(files.benefits_csv) as handle:
        writer = _csv_writer(handle)
        writer.writerow(["member_id", "mode", "bill_delta_eur",
                         "discomfort_delta_eur", "flex_revenue_eur"])
        for mode, rows in (benefits or {}).items():
            for b in rows:
                writer.writerow([b.member_id, mode, _fmt(b.bill_delta_eur),
                                 _fmt(b.discomfort_delta_eur), _fmt(b.flex_revenue_eur)])

    if schedules_source is None or not _holds(files.schedules_csv, schedules_source,
                                              schedules_record):
        with _rewrite(files.schedules_csv) as handle:
            _csv_writer(handle).writerow(["mode", "day", "t", "member", "variable", "value"])
            for mode, day_schedules in schedules.items():
                for sched in day_schedules:
                    _write_schedule_rows(handle, mode, sched)
        if schedules_source is not None:
            store_record({"source": schedules_source, "sha256": _sha256(files.schedules_csv)})

    with _rewrite(files.trace_jsonl) as fh:
        fh.writelines(f"{line}\n" for line in traces)

    return files


# ---------------------------------------------------------------------------
# Schedule (de)serialization, used for day-level checkpointing


def _encode(arrays: Mapping[str, np.ndarray | None]) -> dict[str, str]:
    return {key: base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")
            for key, arr in arrays.items() if arr is not None}


def _decode(doc) -> dict[str, np.ndarray]:
    """The arrays of an :func:`_encode` object; ``TypeError`` or ``ValueError``
    (bad base64, a byte count not a multiple of 8) for anything else."""
    if not isinstance(doc, dict):
        raise TypeError(f"arrays are {type(doc).__name__}, not an object")
    arrays = {}
    for key, text in doc.items():
        if not isinstance(text, str):
            raise TypeError(f"array {key} is {type(text).__name__}, not a string")
        raw = base64.b64decode(text, validate=True)
        if len(raw) % 8:
            raise ValueError(f"array {key} holds {len(raw)} bytes, not whole float64s")
        arrays[key] = np.frombuffer(raw, "<f8").astype(np.float64)  # a writable copy
    return arrays


def schedule_to_dict(sched: DaySchedule) -> dict:
    members = [{**vars(m), "series": _encode(m.series), "refs": _encode(m.refs),
                "bill": None if m.bill is None else asdict(m.bill)}
               for m in sched.members]
    return {**vars(sched), "members": members}


def schedule_from_dict(doc: dict) -> DaySchedule:
    members = [MemberDaySchedule(**{**m, "series": _decode(m["series"]),
                                    "refs": _decode(m["refs"]),
                                    "bill": None if m["bill"] is None else Bill(**m["bill"])})
               for m in doc["members"]]
    return DaySchedule(**{**doc, "members": members})
