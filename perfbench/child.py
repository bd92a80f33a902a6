"""One fresh benchmark process: set a workload up, or run its timed phase.

``perfbench/run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src`` and one thread per numeric library; it is not meant to be
run by hand.  It writes its findings as JSON to ``--result``.

* ``--role setup`` imports reccoord and loads (or generates) the workload's
  scenario.  ``ready_ns`` marks the end of that on the ``CLOCK_MONOTONIC``
  clock behind :func:`time.perf_counter_ns`, which all processes share, so the
  parent can time set-up from its spawn.  With ``--cold`` it then makes the
  cold run that fills a resume workload's checkpoint directory.
* ``--role timed`` calls ``reccoord.cli.main`` at least ``--reps`` times and
  until ``--seconds`` have passed, each time into a fresh output directory, or
  over the same complete checkpoint directory for a resume workload.  With
  ``--spans`` the calls into reccoord are wrapped in spans, and ``--paired``
  adds an untraced call beside each traced one.

After every call it checks the outputs: exit code 0, each centralized
mode-day's objective within ``lpcore.TOL_OPT`` of ``reference.json``, and for
a resume byte-identical report files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import shutil
import time
import traceback
from pathlib import Path

import reccoord
from reccoord import cli, lpcore

from tracing import Tracer, layer_metrics
from workloads import (CENTRAL80_MEMBERS, CENTRAL80_SEED, CENTRAL_MODES, COMMUNITY20_JSON,
                       DAY_PREFIX, REPORT_FILES, WORKLOADS, Workload)

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


def report_hashes(out: Path) -> dict[str, str | None]:
    return {name: (hashlib.sha256((out / name).read_bytes()).hexdigest()
                   if (out / name).is_file() else None)
            for name in REPORT_FILES}


def savings_gap(out: Path) -> float | None:
    """Largest ``savings_gap`` row of ``summary.csv`` over the decentralized modes."""
    try:
        lines = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    values = [float(v) for line in lines if line.startswith("savings_gap,")
              for v in line.split(",")[1:] if v]
    return max(values) if values else None


def check_mode_day(w: Workload, out: Path, mode: str, day: int) -> str | None:
    """Problem with one mode-day's checkpointed result, or None."""
    path = out / "checkpoint" / f"{mode}_{day:04d}.json"
    try:
        objective = json.loads(path.read_text())["schedule"]["objective_value"]
    except (OSError, ValueError, KeyError) as exc:
        return f"{mode} day {day}: no readable checkpoint ({exc})"
    if mode not in CENTRAL_MODES:
        return None
    try:
        ref = REFERENCE[w.scenario][mode][day]
    except (KeyError, IndexError):
        return f"{mode} day {day}: no reference objective in reference.json"
    if abs(objective - ref) > lpcore.TOL_OPT * max(1.0, abs(ref)):
        return f"{mode} day {day}: objective {objective!r} != reference {ref!r}"
    return None


def invoke(w: Workload, root: Path, out: Path,
           expected: dict[str, str | None] | None) -> dict:
    """One ``reccoord run`` call and the checks of its outputs."""
    c0 = time.process_time_ns()
    t0 = time.perf_counter_ns()
    try:
        code = cli.main(w.argv(root, out))
    except Exception:  # a crash is a failed run: record it and keep measuring
        traceback.print_exc()
        code = None
    t1 = time.perf_counter_ns()
    cpu_s = (time.process_time_ns() - c0) / 1e9

    problems: list[str] = []
    failed = 0
    if code != 0:
        problems.append(f"reccoord run exited with {code}")
        failed = w.mode_days
    else:
        for mode in w.modes:
            for day in range(DAY_PREFIX):
                problem = check_mode_day(w, out, mode, day)
                if problem:
                    problems.append(problem)
                    failed += 1
    hashes = report_hashes(out)
    if expected is not None and hashes != expected:
        changed = sorted(n for n in REPORT_FILES if hashes[n] != expected[n])
        problems.append(f"resumed report files differ from the cold run: {changed}")
        failed = w.mode_days
    return {"run_s": (t1 - t0) / 1e9, "cpu_s": cpu_s, "exit": code,
            "mode_days": w.mode_days, "failed": failed, "problems": problems,
            "reports": hashes, "savings_gap": savings_gap(out)}


def environment() -> dict:
    try:
        from scipy.optimize._highspy import _core as highs
        highs_version = (f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}"
                         f".{highs.HIGHS_VERSION_PATCH}")
    except (ImportError, AttributeError):
        highs_version = "unknown"
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "highs": highs_version,
            "reccoord": reccoord.__version__}


def setup(w: Workload, root: Path, out: Path, cold: bool) -> dict:
    if w.scenario == "community20":
        reccoord.load_scenario((root / COMMUNITY20_JSON).read_bytes())
    else:
        reccoord.generate_synthetic(
            reccoord.SyntheticConfig(members=CENTRAL80_MEMBERS, seed=CENTRAL80_SEED))
    ready_ns = time.perf_counter_ns()
    invocations = [invoke(w, root, out, expected=None)] if cold else []
    return {"ready_ns": ready_ns, "invocations": invocations}


def timed(w: Workload, root: Path, out: Path, reps: int, seconds: float,
          spans: Path | None, paired: bool) -> dict:
    """Timed calls; with ``spans`` traced, and with ``paired`` each traced call
    sits next to an untraced one, in alternating order, so that their ratio
    compares the same stretch of machine time."""
    tracer = Tracer() if spans is not None else None
    expected = report_hashes(out) if w.resume else None
    invocations = []
    start = time.perf_counter()
    while len(invocations) < reps * (2 if paired else 1) \
            or time.perf_counter() - start < seconds:
        if tracer is None:
            calls = [False]
        elif paired:
            calls = [False, True] if len(invocations) % 4 == 0 else [True, False]
        else:
            calls = [True]
        for traced in calls:
            k = len(invocations)
            run_out = out if w.resume else out / f"inv-{k}"
            if traced:
                tracer.install()
            try:
                inv = invoke(w, root, run_out, expected)
            finally:
                if traced:
                    tracer.uninstall()
            inv["traced"] = traced
            if traced:
                inv["layers"] = layer_metrics(tracer.spans, tracer.counts, inv["run_s"])
                tracer.write_jsonl(spans, k)
            if not w.resume:
                shutil.rmtree(run_out, ignore_errors=True)
            invocations.append(inv)
    return {"invocations": invocations,
            "missing_targets": tracer.missing if tracer is not None else []}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "timed"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--cold", action="store_true", help="set-up ends with a cold run")
    parser.add_argument("--spans", type=Path, help="trace the calls; write spans here")
    parser.add_argument("--paired", action="store_true",
                        help="with --spans: an untraced call beside each traced one")
    args = parser.parse_args()

    w = WORKLOADS[args.workload]
    if args.role == "setup":
        result = setup(w, args.root, args.out, args.cold)
    else:
        result = timed(w, args.root, args.out, args.reps, args.seconds, args.spans,
                       args.paired)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["environment"] = environment()
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
