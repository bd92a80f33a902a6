"""Command-line harness: scenario generation, multi-mode runs, reports.

Example::

    reccoord run --generate members=4 --seed 7 --modes solofix,ecfix --days 1 --out out/

One loop runs over the days.  Within a day the requested modes are solved
in a fixed order, ECFlex, ECFix, SoloFlex, SoloFix, ECFlexItPrimed, ECFlexIt,
on one :class:`~reccoord.central.SolvedDay`, sliced on the day's first mode
the checkpoint does not hold, so each distinct day LP is solved once: ECFix
comes from ECFlex's pinned phase, and the decentralized modes reuse the
ECFix and SoloFlex schedules already solved, whenever their references and
carried states coincide (on the first day in practice).  After each solved
(mode, day) the heap the solvers freed is returned to the operating system.
Each mode carries its own device states from one day into the next, and the
reports list the modes in the order given.  Every completed (mode, day) is
checkpointed under ``<out>/checkpoint/`` so that interrupted long runs resume
instead of re-solving; a checkpoint is only reused when the scenario content,
run parameters (``--days`` aside) and checkpoint format hash identically, and
a file only when its digest shows it holds the bytes written for that run,
mode and day.  A scenario file is parsed only when a day must be solved, so a
complete resume parses none.  ``schedules.csv`` is rendered only when the
checkpoints its rows come from, or the file's bytes, changed since its last
write, so a complete resume leaves it in place and rewrites the other reports.

Exit codes: 0 success, 1 solve/runtime failure (diagnostic names the mode
and day), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import billing, central, decentral, reporting
from .central import CarriedState, PlannerMode
from .lpcore import LpError
from .scenario import (Scenario, ScenarioError, SyntheticConfig, SyntheticConfigError,
                       dump_scenario, generate_synthetic, load_scenario)

log = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad flags or inconsistent configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    scenario_path: Path | None
    generate: SyntheticConfig | None
    modes: list[str]              # canonical mode names, user order
    key: str | None
    days: int | None
    out_dir: Path
    trace: bool = False
    max_iterations: int = 100

    def __post_init__(self) -> None:
        if not self.modes:
            raise UsageError("at least one mode is required")
        if self.days is not None and self.days < 1:
            raise UsageError("--days must be at least 1")
        if self.max_iterations < 1:
            raise UsageError("--max-iters must be at least 1")
        if any(m.startswith("ECFlexIt") for m in self.modes) and self.key is None:
            raise UsageError("decentralized modes require --key "
                             "(equal, prorate or cascade)")


def _parse_modes(text: str) -> list[str]:
    canonical = {name.lower(): name for name in SOLVE_ORDER}
    out: list[str] = []
    for raw in text.split(","):
        name = raw.strip().lower()
        if not name:
            continue
        if name not in canonical:
            raise UsageError(f"unknown mode {raw!r}; choose from "
                             f"{', '.join(sorted(canonical))}")
        if canonical[name] not in out:
            out.append(canonical[name])
    return out


_GENERATE_KEYS = {
    "members": ("members", int),
    "wb": ("wb_rate", float),
    "ev": ("ev_rate", float),
    "hp": ("hp_rate", float),
    "bss": ("bss_rate", float),
    "pv": ("pv_total_kwp", float),
    "pv_share": ("pv_rate", float),
}


def _parse_generate(text: str, seed: int, days: int, dt_hours: float) -> SyntheticConfig:
    kwargs = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"--generate items must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _GENERATE_KEYS:
            raise UsageError(f"unknown --generate key {key!r}; choose from "
                             f"{', '.join(sorted(_GENERATE_KEYS))}")
        field, conv = _GENERATE_KEYS[key]
        try:
            kwargs[field] = conv(value)
        except ValueError:
            raise UsageError(f"--generate {key} needs a {conv.__name__}, got {value!r}")
    if "members" not in kwargs:
        raise UsageError("--generate needs at least members=N")
    return SyntheticConfig(seed=seed, num_days=days, dt_hours=dt_hours, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reccoord",
        description="Day-ahead scheduling and decentralized flexibility "
                    "coordination for renewable energy communities.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one scenario under one or more modes")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", type=Path, help="scenario JSON document")
    src.add_argument("--generate", metavar="K=V,...",
                     help="synthesize a scenario, e.g. members=20,wb=0.7,pv=147")
    run.add_argument("--seed", type=int,
                     help="generator seed (default 0, only with --generate)")
    run.add_argument("--modes", required=True,
                     help="comma list: solofix,soloflex,ecfix,ecflex,ecflexit,"
                          "ecflexitprimed")
    run.add_argument("--key", choices=("equal", "prorate", "cascade"),
                     help="repartition key for decentralized modes")
    run.add_argument("--days", type=int, help="number of days to run")
    run.add_argument("--dt", type=float,
                     help="generator step length in hours (default 0.25, "
                          "only with --generate)")
    run.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    run.add_argument("--trace", action="store_true",
                     help="write the coordination iteration trace")
    run.add_argument("--max-iters", type=int, default=100,
                     help="iteration cap of the coordination loop")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    modes = _parse_modes(args.modes)
    generate = None
    if args.generate is not None:
        days = args.days if args.days is not None else 1
        dt = args.dt if args.dt is not None else 0.25
        seed = args.seed if args.seed is not None else 0
        generate = _parse_generate(args.generate, seed, days, dt)
    elif args.dt is not None:
        raise UsageError("--dt only applies to --generate; file scenarios "
                         "carry their own resolution")
    elif args.seed is not None:
        raise UsageError("--seed only applies to --generate; file scenarios "
                         "are not drawn from a seed")
    return RunConfig(
        scenario_path=args.scenario,
        generate=generate,
        modes=modes,
        key=args.key,
        days=args.days,
        out_dir=args.out,
        trace=args.trace,
        max_iterations=args.max_iters,
    )


# ---------------------------------------------------------------------------
# Checkpointed execution


#: Length of a checkpoint file's digest key: ``{"sha256":"<64 hex>",``.
_HEAD = 77


class _Checkpoint:
    """Per-(mode, day) result cache keyed by a hash of scenario and settings.

    A file is one JSON object whose first key is ``sha256``: its first
    :data:`_HEAD` bytes are ``{"sha256":"<64 hex>",`` and the rest completes
    the object.  The digest is the SHA-256 of ``"<fingerprint> <mode> <day>\n"``
    followed by that rest, so a file is reused only as the bytes written for
    this run, mode and day; any other file, truncated, edited or copied from
    another mode, day or run, is recomputed before any of it is parsed.

    Opening only reads ``meta.json``.  Under a missing or stale one every
    :meth:`load` is ``None`` and touches no file; the first :meth:`store`
    makes the directory, removes the stale files and writes ``meta.json``.
    So a run that fails before it has a result to store writes nothing here.

    ``meta.json`` also holds the record of the last ``schedules.csv`` written
    (see :func:`reporting.write_report`).  Its source is :meth:`source`, a
    hash of the report's modes and of the digest of every checkpoint its rows
    come from, which identifies the rows as long as the format does.
    """

    def __init__(self, out_dir: Path, fingerprint: str):
        self.dir = out_dir / "checkpoint"
        self.meta = self.dir / "meta.json"
        self.fingerprint = fingerprint
        self.current = False
        self.schedules = None  # the record of schedules.csv in meta.json
        self.digests: dict[tuple[str, int], str] = {}  # of each (mode, day) loaded or stored
        if self.meta.exists():
            try:
                meta = json.loads(self.meta.read_text())
                self.current = meta["fingerprint"] == fingerprint
                self.schedules = meta.get("schedules") if self.current else None
            except (ValueError, KeyError, TypeError):  # not UTF-8, not JSON, not an object
                pass

    def _path(self, mode: str, day: int) -> Path:
        return self.dir / f"{mode}_{day:04d}.json"

    def _digest(self, mode: str, day: int, rest: bytes) -> str:
        """The digest of the file of ``mode`` on ``day`` whose bytes after the
        first :data:`_HEAD` are ``rest``."""
        digest = hashlib.sha256(f"{self.fingerprint} {mode} {day}\n".encode())
        digest.update(rest)
        return digest.hexdigest()

    def load(self, mode: str, day: int):
        path = self._path(mode, day)
        if not self.current or not path.exists():
            return None
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise UsageError(f"cannot read the checkpoint: {exc}") from exc
        digest = self._digest(mode, day, raw[_HEAD:])
        if raw[:_HEAD] != _head(digest):
            log.warning("%s day %d: unreadable checkpoint %s (its bytes are not those written "
                        "for this run, mode and day); recomputing", mode, day, path.name)
            return None
        doc = json.loads(raw)
        self.digests[mode, day] = digest
        return reporting.schedule_from_dict(doc["schedule"]), doc["traces"]

    def store(self, mode: str, day: int, sched, trace_lines: list[str]) -> None:
        doc = {"schedule": reporting.schedule_to_dict(sched), "traces": trace_lines}
        rest = json.dumps(doc, separators=(",", ":"))[1:].encode()  # after the "{"
        digest = self._digest(mode, day, rest)
        try:
            if not self.current:
                self.dir.mkdir(parents=True, exist_ok=True)
                for item in self.dir.glob("*.json"):
                    item.unlink()
                self._write_meta(None)
                self.current = True
            _write_atomic(self._path(mode, day), _head(digest) + rest)
        except OSError as exc:
            raise UsageError(f"cannot write the checkpoint: {exc}") from exc
        self.digests[mode, day] = digest

    def source(self, modes: list[str], days: int) -> str:
        """The key of the ``schedules.csv`` rows of ``modes``, in that order,
        over ``days``: the SHA-256 of the mode list and of each mode's
        checkpoint digests, day by day.  Every (mode, day) must have been
        loaded or stored."""
        key = hashlib.sha256(json.dumps(modes).encode())
        for mode in modes:
            for day in range(days):
                key.update(self.digests[mode, day].encode())
        return key.hexdigest()

    def record_schedules(self, record: dict) -> None:
        """Store ``record`` as the record of ``schedules.csv``, unless it is stored."""
        if record != self.schedules:
            try:
                self._write_meta(record)
            except OSError as exc:
                raise UsageError(f"cannot write the checkpoint: {exc}") from exc
            self.schedules = record

    def _write_meta(self, schedules: dict | None) -> None:
        meta = {"fingerprint": self.fingerprint}
        if schedules is not None:
            meta["schedules"] = schedules
        _write_atomic(self.meta, json.dumps(meta).encode())


def _head(digest: str) -> bytes:
    """The first :data:`_HEAD` bytes of a checkpoint file with ``digest``."""
    return b'{"sha256":"%s",' % digest.encode()


def _write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` by ``data`` as :func:`reporting.replacing` does."""
    with reporting.replacing(path) as tmp:
        tmp.write_bytes(data)


#: Version of the checkpoint files; raised whenever their layout, or what the
#: planners or the settlement write, changes, or the ``schedules.csv`` rows
#: rendered from the same schedules change, so older checkpoints are recomputed
#: and a kept ``schedules.csv`` is rendered again.
CHECKPOINT_FORMAT = 7


def _fingerprint(scenario_bytes: bytes, config: RunConfig) -> str:
    """The hash of a run's scenario document and of the settings a day's result
    depends on.  ``--days`` is not one of them: day ``d`` depends on days
    ``0..d`` only, so a longer run into the same ``--out`` reuses the days a
    shorter one stored."""
    h = hashlib.sha256()
    h.update(scenario_bytes)
    settings = {
        "checkpoint_format": CHECKPOINT_FORMAT,
        "key": config.key,
        "max_iterations": config.max_iterations,
    }
    h.update(json.dumps(settings, sort_keys=True).encode())
    return h.hexdigest()


class RunFailure(Exception):
    """Problem while solving; maps to exit code 1."""


#: The order the modes of one day are solved in.  ECFlex's pinned phase
#: gives ECFix and the start of the plain coordination, and SoloFlex gives
#: ECFlexItPrimed's priming.  The coordinations come last, the primed one
#: first: its ECFix start, the day's last day LP, then runs before any
#: coordination has held a HiGHS model per member.  The reports do not
#: depend on this order, only the memory a day peaks at.
SOLVE_ORDER = ("ECFlex", "ECFix", "SoloFlex", "SoloFix", "ECFlexItPrimed", "ECFlexIt")


@functools.cache
def _malloc_trim() -> Callable[[int], int] | None:
    """glibc's ``malloc_trim``, looked up on first use; None where the C
    library has none (musl, macOS, Windows)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None) on Windows
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _give_back_memory() -> None:
    """Return the free heap of every malloc arena to the operating system.

    A coordination holds one HiGHS model per flexible member, and the heap
    they free stays with the process until trimmed; the next mode would
    otherwise grow on top of it."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _solve_day(solved: central.SolvedDay, mode_name: str,
               carried: dict[str, CarriedState], config: RunConfig):
    """The day of ``solved`` under one mode from the carried device states,
    verified, with the ``trace.jsonl`` lines of its coordination rounds (none
    for a centralized mode)."""
    try:
        if mode_name.startswith("ECFlexIt"):
            sched, traces = decentral.run_ecflexit(
                solved, key=config.key, primed=mode_name == "ECFlexItPrimed",
                max_iterations=config.max_iterations, initial_states=carried)
        else:
            sched, traces = central.solve_centralized(
                solved, PlannerMode(mode_name), initial_states=carried), []
    except (central.PlannerError, decentral.DecentralError, LpError) as exc:
        # name the planner only where it is not the mode run
        detail = exc.reason if isinstance(exc, central.DayLpError) \
            and exc.mode == mode_name else exc
        raise RunFailure(f"{mode_name} day {solved.day}: {detail}") from exc
    problems = central.verify_day_schedule(solved.scenario, sched, initial_states=carried)
    if problems:
        raise RunFailure(f"{mode_name} day {solved.day}: schedule failed verification: "
                         + "; ".join(problems[:5]))
    return sched, [reporting.trace_line(t) for t in traces]


def _run_modes(scenario: Callable[[], Scenario], days: int, config: RunConfig,
               checkpoint: _Checkpoint) -> tuple[dict[str, list], dict[str, list[str]]]:
    """Solve ``days`` consecutive days of every mode of ``config``, reusing
    every (mode, day) the checkpoint holds.

    Returns each mode's schedules and, with ``config.trace``, its trace lines.
    A day's modes run in :data:`SOLVE_ORDER` and share one
    :class:`~reccoord.central.SolvedDay`, made on the first mode the
    checkpoint does not hold; each mode carries the device states its own
    last day ended in.  ``scenario()`` is called only there, so a run the
    checkpoint holds completely never asks for the scenario.  Each solved
    (mode, day), and no loaded one, ends in :func:`_give_back_memory`.
    """
    modes = [m for m in SOLVE_ORDER if m in config.modes]
    schedules: dict[str, list] = {m: [] for m in modes}
    traces: dict[str, list[str]] = {m: [] for m in modes}
    carried: dict[str, dict[str, CarriedState]] = {m: {} for m in modes}
    for day in range(days):
        solved = None
        for mode_name in modes:
            cached = checkpoint.load(mode_name, day)
            if cached is None:
                if solved is None:
                    solved = central.SolvedDay(scenario(), day)
                cached = _solve_day(solved, mode_name, carried[mode_name], config)
                checkpoint.store(mode_name, day, *cached)
                _give_back_memory()
            sched, trace_lines = cached
            schedules[mode_name].append(sched)
            if config.trace:  # only the trace report reads them
                traces[mode_name].extend(trace_lines)
            carried[mode_name] = central.final_states(sched)
    return schedules, traces


class _Document:
    """A scenario document read for its fingerprint and parsed on first call.

    The parse validates the scenario and checks that it holds the run's
    ``days``; the bytes are dropped once parsed, so a solving run holds what
    an eager parse would.
    """

    def __init__(self, data: bytes, days: int | None):
        self._data: bytes | None = data
        self._days = days
        self._scenario: Scenario | None = None

    def __call__(self) -> Scenario:
        if self._scenario is None:
            scenario = load_scenario(self._data)
            self._data = None
            horizon = scenario.horizon.num_days
            if self._days is not None and self._days > horizon:
                raise UsageError(f"--days {self._days} exceeds the scenario horizon "
                                 f"of {horizon} day(s)")
            self._scenario = scenario
        return self._scenario


def _open(config: RunConfig) -> tuple[Callable[[], Scenario], int, _Checkpoint]:
    """The run's scenario as a call, its number of days and its checkpoint.

    A scenario file is read here for the fingerprint but parsed and validated
    only when the run first needs it: at the first (mode, day) the checkpoint
    does not hold, or here when no ``--days`` is given and the horizon sets
    the run's length.  The fingerprint hashes the document's bytes and every
    checkpoint's digest binds it to them, so a complete resume learns nothing
    from a parse and makes none.  A generated scenario is made here, since
    ``scenario.json`` is its dump.  Nothing is written to ``--out`` here but
    that ``scenario.json``; the checkpoint directory is made at its first store.
    """
    if config.generate is not None:
        try:
            generated = generate_synthetic(config.generate)
        except SyntheticConfigError as exc:
            raise UsageError(f"--generate: {exc}") from exc
        scenario_bytes = dump_scenario(generated)
        days = generated.horizon.num_days

        def scenario() -> Scenario:
            return generated
    else:
        try:
            scenario_bytes = config.scenario_path.read_bytes()
        except OSError as exc:
            raise UsageError(f"cannot read scenario: {exc}") from exc
        scenario = _Document(scenario_bytes, config.days)
        days = config.days if config.days is not None else scenario().horizon.num_days

    try:
        checkpoint = _Checkpoint(config.out_dir, _fingerprint(scenario_bytes, config))
        if config.generate is not None:
            config.out_dir.mkdir(parents=True, exist_ok=True)
            _write_atomic(config.out_dir / "scenario.json", scenario_bytes)
    except OSError as exc:
        raise UsageError(f"cannot write to the output directory: {exc}") from exc
    return scenario, days, checkpoint


def run(config: RunConfig) -> reporting.ReportFiles:
    """Execute a full run configuration and write the report files."""
    scenario, days, checkpoint = _open(config)
    schedules, mode_traces = _run_modes(scenario, days, config, checkpoint)
    results = {mode_name: schedules[mode_name] for mode_name in config.modes}
    traces = [t for mode_name in config.modes for t in mode_traces[mode_name]]

    report = billing.summarize(results)
    baseline = next((m for m in ("ECFix", "SoloFix") if m in results), config.modes[0])
    benefits = billing.individual_benefits(results, baseline)
    try:
        return reporting.write_report(
            report, results, config.out_dir, benefits=benefits, traces=traces,
            schedules_source=checkpoint.source(config.modes, days),
            schedules_record=checkpoint.schedules, store_record=checkpoint.record_schedules)
    except OSError as exc:
        raise UsageError(f"cannot write the report: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        files = run(config)
    except (UsageError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"report written to {files.summary_csv.parent}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
