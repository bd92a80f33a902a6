"""Command-line harness: scenario generation, multi-mode runs, reports.

Example::

    reccoord run --generate members=4 --seed 7 --modes solofix,ecfix --days 1 --out out/

Days are solved sequentially per mode with device-state carry-over.  Every
completed (mode, day) is checkpointed under ``<out>/checkpoint/`` so that
interrupted long runs resume instead of re-solving; a checkpoint is only
reused when the scenario content and run parameters hash identically.

Exit codes: 0 success, 1 solve/runtime failure (diagnostic names the mode
and day), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import billing, central, decentral, reporting
from .central import CarriedState, PlannerMode
from .scenario import (Scenario, ScenarioError, SyntheticConfig, dump_scenario,
                       generate_synthetic, load_scenario)

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
    allow_curtailment: bool = False
    max_iterations: int = 100

    def __post_init__(self) -> None:
        if not self.modes:
            raise UsageError("at least one mode is required")
        if any(m.startswith("ECFlexIt") for m in self.modes) and self.key is None:
            raise UsageError("decentralized modes require --key "
                             "(equal, prorate or cascade)")


def _parse_modes(text: str) -> list[str]:
    canonical = {"solofix": "SoloFix", "soloflex": "SoloFlex", "ecfix": "ECFix",
                 "ecflex": "ECFlex", "ecflexit": "ECFlexIt",
                 "ecflexitprimed": "ECFlexItPrimed"}
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
    steps = 24.0 / dt_hours
    if abs(steps - round(steps)) > 1e-9:
        raise UsageError(f"--dt {dt_hours} does not divide 24 hours evenly")
    return SyntheticConfig(seed=seed, num_days=days, dt_hours=dt_hours,
                           steps_per_day=int(round(steps)), **kwargs)


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
    run.add_argument("--seed", type=int, default=0, help="generator seed")
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
    run.add_argument("--allow-curtailment", action="store_true",
                     help="let centralized modes curtail PV production")
    run.add_argument("--max-iters", type=int, default=100,
                     help="iteration cap of the coordination loop")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    modes = _parse_modes(args.modes)
    generate = None
    if args.generate is not None:
        days = args.days if args.days is not None else 1
        dt = args.dt if args.dt is not None else 0.25
        generate = _parse_generate(args.generate, args.seed, days, dt)
    elif args.dt is not None:
        raise UsageError("--dt only applies to --generate; file scenarios "
                         "carry their own resolution")
    return RunConfig(
        scenario_path=args.scenario,
        generate=generate,
        modes=modes,
        key=args.key,
        days=args.days,
        out_dir=args.out,
        trace=args.trace,
        allow_curtailment=args.allow_curtailment,
        max_iterations=args.max_iters,
    )


# ---------------------------------------------------------------------------
# Checkpointed execution


class _Checkpoint:
    """Per-(mode, day) result cache keyed by a hash of scenario and settings."""

    def __init__(self, out_dir: Path, fingerprint: str):
        self.dir = out_dir / "checkpoint"
        self.meta = self.dir / "meta.json"
        self.fingerprint = fingerprint
        self.dir.mkdir(parents=True, exist_ok=True)
        stale = True
        if self.meta.exists():
            try:
                stale = json.loads(self.meta.read_text())["fingerprint"] != fingerprint
            except (json.JSONDecodeError, KeyError):
                stale = True
        if stale:
            for item in self.dir.glob("*.json"):
                item.unlink()
            _write_atomic(self.meta, json.dumps({"fingerprint": fingerprint}))

    def _path(self, mode: str, day: int) -> Path:
        return self.dir / f"{mode}_{day:04d}.json"

    def load(self, mode: str, day: int):
        path = self._path(mode, day)
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text())
            return reporting.schedule_from_dict(doc["schedule"]), doc["traces"]
        except (ValueError, KeyError, TypeError) as exc:
            log.warning("%s day %d: unreadable checkpoint %s (%s: %s); recomputing",
                        mode, day, path.name, type(exc).__name__, exc)
            return None

    def store(self, mode: str, day: int, sched, trace_dicts: list[dict]) -> None:
        doc = {"schedule": reporting.schedule_to_dict(sched), "traces": trace_dicts}
        _write_atomic(self._path(mode, day), json.dumps(doc, separators=(",", ":")))


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` by ``text`` so that a crash leaves the old file or the new one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _fingerprint(scenario_bytes: bytes, config: RunConfig) -> str:
    h = hashlib.sha256()
    h.update(scenario_bytes)
    settings = {
        "key": config.key,
        "days": config.days,
        "allow_curtailment": config.allow_curtailment,
        "max_iterations": config.max_iterations,
    }
    h.update(json.dumps(settings, sort_keys=True).encode())
    return h.hexdigest()


def _run_central_mode(scenario: Scenario, mode_name: str, days: int,
                      config: RunConfig, checkpoint: _Checkpoint):
    mode = {m.value: m for m in PlannerMode}[mode_name]
    schedules = []
    carried: dict[str, CarriedState] = {}
    for day in range(days):
        cached = checkpoint.load(mode_name, day)
        if cached is not None:
            sched = cached[0]
        else:
            sched = central.solve_centralized(
                scenario, day, mode, initial_states=carried,
                allow_curtailment=config.allow_curtailment)
            _verify_or_die(scenario, day, sched, carried)
            checkpoint.store(mode_name, day, sched, [])
        schedules.append(sched)
        carried = central.final_states(sched)
    return schedules, []


def _run_decentral_mode(scenario: Scenario, mode_name: str, days: int,
                        config: RunConfig, checkpoint: _Checkpoint):
    primed = mode_name == "ECFlexItPrimed"
    schedules = []
    all_traces: list[dict] = []
    carried: dict[str, CarriedState] = {}
    for day in range(days):
        cached = checkpoint.load(mode_name, day)
        if cached is not None:
            sched, trace_dicts = cached
        else:
            sched, traces = decentral.run_ecflexit(
                scenario, day, key=config.key, primed=primed,
                max_iterations=config.max_iterations, initial_states=carried)
            _verify_or_die(scenario, day, sched, carried)
            trace_dicts = [t.to_dict() for t in traces]
            checkpoint.store(mode_name, day, sched, trace_dicts)
        schedules.append(sched)
        all_traces.extend(trace_dicts)
        carried = central.final_states(sched)
    return schedules, all_traces


class RunFailure(Exception):
    """Problem while solving; maps to exit code 1."""


def _verify_or_die(scenario: Scenario, day: int, sched, carried) -> None:
    problems = central.verify_day_schedule(scenario, day, sched, initial_states=carried)
    if problems:
        raise RunFailure(f"{sched.mode} day {day}: schedule failed verification: "
                         + "; ".join(problems[:5]))


def run(config: RunConfig) -> reporting.ReportFiles:
    """Execute a full run configuration and write the report files."""
    if config.generate is not None:
        scenario = generate_synthetic(config.generate)
        scenario_bytes = dump_scenario(scenario)
    else:
        try:
            scenario_bytes = config.scenario_path.read_bytes()
        except OSError as exc:
            raise UsageError(f"cannot read scenario: {exc}") from exc
        scenario = load_scenario(scenario_bytes)

    days = config.days if config.days is not None else scenario.horizon.num_days
    if days < 1:
        raise UsageError("--days must be at least 1")
    if days > scenario.horizon.num_days:
        raise UsageError(f"--days {days} exceeds the scenario horizon "
                         f"of {scenario.horizon.num_days} day(s)")

    config.out_dir.mkdir(parents=True, exist_ok=True)
    if config.generate is not None:
        (config.out_dir / "scenario.json").write_bytes(scenario_bytes)

    checkpoint = _Checkpoint(config.out_dir, _fingerprint(scenario_bytes, config))

    results: dict[str, list] = {}
    traces: list[dict] = []
    for mode_name in config.modes:
        if mode_name in ("ECFlexIt", "ECFlexItPrimed"):
            schedules, mode_traces = _run_decentral_mode(
                scenario, mode_name, days, config, checkpoint)
            traces.extend(mode_traces)
        else:
            schedules, _ = _run_central_mode(scenario, mode_name, days, config, checkpoint)
        results[mode_name] = schedules

    report = billing.summarize(results)
    baseline = next((m for m in ("ECFix", "SoloFix") if m in results), config.modes[0])
    benefits = billing.individual_benefits(results, baseline)
    return reporting.write_report(
        report, results, config.out_dir, benefits=benefits,
        traces=traces if config.trace else ())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        files = run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (central.PlannerError, decentral.DecentralError, RunFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"report written to {files.summary_csv.parent}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
