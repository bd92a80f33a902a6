"""Serialization of schedules, traces and reports to stable file formats.

All writers are deterministic: fixed column orders, rows sorted by
``(day, step, member id, variable name)``, numbers printed with 9
significant digits, UTF-8, LF line endings, RFC-4180 quoting.  Identical
inputs produce byte-identical files, so the outputs are usable as golden
files in regression tests.

``schedules.csv`` has one row per mode, day, step, member and variable.  Its
rows are written one step per ``write``: the mode, day, member and variable
cells are quoted once by the same ``csv`` dialect as the other files into a
``%`` template of the day, and each step's values are formatted by one ``%``.

A re-run need not render ``schedules.csv`` again: with ``keep_schedules``
the caller vouches that the file holds the rows of the schedules given, and
:func:`write_report` leaves it in place (:class:`reccoord.cli._Checkpoint`
decides that from the checkpoints the rows come from).  The other three
reports are rewritten on every call.

``trace.jsonl`` holds one :func:`trace_line` per coordination round.  A run
serializes each round once; the checkpoint keeps those lines and the report
writes them as they are.

Checkpoints (format 9) keep a schedule's numbers apart from its document:
:func:`schedule_to_dict` gives the document, in which each member's
``series`` and ``refs`` map a tag to its array's length, and the arrays'
little-endian float64 bytes back to back, in document order.  Besides the
arrays, the document holds the LP's objective and each member's bill and
flexibility revenue; a member's discomfort and the day's bill and discomfort
are sums taken where they are read, and not stored.  The bytes round-trip
every value bit for bit, NaN, infinities, ``-0.0`` and subnormals included,
and nothing is formatted or parsed as text.
:func:`schedule_from_dict` gives the arrays as views into the bytes it is
handed, one buffer for the whole schedule, read-only when those bytes are.
Whether a checkpoint is reused is decided by its digests (see
:class:`reccoord.cli._Checkpoint`); the decoder still rejects lengths that do
not match the bytes, for any caller.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .billing import MemberBenefit, ModeSummary
from .central import SERIES, DaySchedule, MemberDaySchedule
from .decentral import IterationTrace


@dataclass(frozen=True)
class ReportFiles:
    summary_csv: Path
    benefits_csv: Path
    schedules_csv: Path
    trace_jsonl: Path

    @classmethod
    def under(cls, out: Path) -> ReportFiles:
        """The report files of the directory ``out``."""
        return cls(out / "summary.csv", out / "benefits.csv", out / "schedules.csv",
                   out / "trace.jsonl")


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
    # "%.9g" % x formats as f"{x:.9g}"; the quoted cells are %-escaped.
    head = _csv_cells(mode, sched.day).replace("%", "%%")
    pieces = [_csv_cells(member_id, variable).replace("%", "%%") + ",%.9g\n"
              for member_id, variable, _ in columns]
    values = np.column_stack([series for _, _, series in columns])
    for t, row in enumerate(values):
        # one step's floats at a time: the whole day's as one list raises the peak
        handle.write(f"{head},{t},".join(["", *pieces]) % tuple(row.tolist()))


def trace_line(trace: IterationTrace) -> str:
    """``trace`` as its line of ``trace.jsonl``, without the line break."""
    return json.dumps(trace.to_dict(), separators=(",", ":"))


def write_report(summaries: Mapping[str, ModeSummary],
                 schedules: Mapping[str, Sequence[DaySchedule]], out_dir: str | Path,
                 benefits: Mapping[str, Sequence[MemberBenefit]] | None = None,
                 traces: Iterable[str] = (), keep_schedules: bool = False) -> ReportFiles:
    """Write the four report files under ``out_dir`` (created if missing).

    ``summary.csv`` has a column per mode of ``summaries`` and a row per
    :class:`~reccoord.billing.ModeSummary` field, a None value written as a
    blank cell and a row None under every mode left out.  ``traces`` are the
    rounds' :func:`trace_line` strings, written as given.  With
    ``keep_schedules`` the ``schedules.csv`` in place is kept as it is.
    Each file replaces the one of an earlier run as :func:`replacing` does:
    no earlier report is truncated or written through, so a re-run into the
    same directory does not wait for the old files' pages to reach the disk.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = ReportFiles.under(out)

    with _rewrite(files.summary_csv) as handle:
        writer = _csv_writer(handle)
        writer.writerow(["metric", *summaries])
        for metric in fields(ModeSummary):
            values = [getattr(s, metric.name) for s in summaries.values()]
            if any(v is not None for v in values):
                writer.writerow([metric.name, *["" if v is None else _fmt(v) for v in values]])

    with _rewrite(files.benefits_csv) as handle:
        writer = _csv_writer(handle)
        writer.writerow(["member_id", "mode", "bill_delta_eur",
                         "discomfort_delta_eur", "flex_revenue_eur"])
        for mode, rows in (benefits or {}).items():
            for b in rows:
                writer.writerow([b.member_id, mode, _fmt(b.bill_delta_eur),
                                 _fmt(b.discomfort_delta_eur), _fmt(b.flex_revenue_eur)])

    if not keep_schedules:
        with _rewrite(files.schedules_csv) as handle:
            _csv_writer(handle).writerow(["mode", "day", "t", "member", "variable", "value"])
            for mode, day_schedules in schedules.items():
                for sched in day_schedules:
                    _write_schedule_rows(handle, mode, sched)

    with _rewrite(files.trace_jsonl) as fh:
        fh.writelines(f"{line}\n" for line in traces)

    return files


# ---------------------------------------------------------------------------
# Schedule (de)serialization, used for day-level checkpointing


def schedule_to_dict(sched: DaySchedule) -> tuple[dict, bytes]:
    """``sched`` as its checkpoint document and the bytes of its arrays.

    Each member's ``series`` and ``refs`` hold the length of each array, and
    the bytes are the arrays' little-endian float64 values, member by member,
    ``series`` before ``refs``, each in its tag order."""
    arrays: list[np.ndarray] = []

    def lengths(named: Mapping[str, np.ndarray | None]) -> dict[str, int]:
        out = {}
        for key, arr in named.items():
            if arr is not None:
                arrays.append(np.asarray(arr, dtype="<f8").ravel())
                out[key] = arrays[-1].size
        return out

    members = [{**vars(m), "series": lengths(m.series), "refs": lengths(m.refs)}
               for m in sched.members]
    return {**vars(sched), "members": members}, b"".join(a.tobytes() for a in arrays)


def schedule_from_dict(doc: dict, data) -> DaySchedule:
    """The schedule of a :func:`schedule_to_dict` document and its array bytes.

    Each array is a view into ``data``, writable only when ``data`` is.
    ``TypeError`` for lengths that are not a mapping of counts, ``ValueError``
    when ``data`` is not whole float64s or holds another number of them than
    the lengths add up to."""
    if len(data) % 8:
        raise ValueError(f"its {len(data)} bytes are not whole float64s")
    values = np.frombuffer(data, "<f8")
    offset = 0

    def views(lengths) -> dict[str, np.ndarray]:
        nonlocal offset
        if not isinstance(lengths, dict):
            raise TypeError(f"arrays are {type(lengths).__name__}, not an object")
        out = {}
        for key, n in lengths.items():
            if type(n) is not int or n < 0:
                raise TypeError(f"array {key} has length {n!r}, not a count")
            out[key] = values[offset:offset + n]
            offset += n
        return out

    members = [MemberDaySchedule(**{**m, "series": views(m["series"]), "refs": views(m["refs"])})
               for m in doc["members"]]
    if offset != values.size:
        raise ValueError(f"it holds {values.size} float64s, the arrays declare {offset}")
    return DaySchedule(**{**doc, "members": members})
