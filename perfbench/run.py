"""Benchmark of ``reccoord run``: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload community20 --seed 1 --seconds 10 --trace 0

Every set-up and every timed phase runs in a fresh single-threaded Python
process (``perfbench/child.py``) that imports reccoord from ``src/``.  With
``--trace 0`` it prints ``setup_s``, ``run_s`` and ``peak_rss_mb``; with
``--trace 1`` it alternates untraced and traced calls, repeats the traced
calls in a second process and prints the per-layer metrics.  Human-readable
lines come first, then one JSON line::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

The exit code is 0 when every output check passed, 1 when one failed, and 2
when the checkout holds no reccoord sources.  Spans and a result record with
the environment go to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CENTRAL80_SEED, DAY_PREFIX, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"

#: Fresh-process set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 5
#: Wall-clock budget of one benchmark run, in seconds.
BUDGET_S = 170.0
#: Counts that two traced runs of the same code must reproduce exactly.
EXACT_COUNTS = ("lpcore.solve.calls", "lpcore.highs_iters", "decentral.rounds",
                "decentral.member_lps")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """A child process failed or ran out of time; the run cannot be measured."""


class Runner:
    """Starts child processes one at a time within the run's time budget."""

    def __init__(self, w: Workload, run_dir: Path):
        self.w = w
        self.run_dir = run_dir
        self.deadline = time.monotonic() + BUDGET_S
        self.environment: dict = {}
        env = dict(os.environ, PYTHONHASHSEED="0",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        env.update({var: "1" for var in THREAD_VARS})
        self.env = env
        self.children = 0

    def child(self, role: str, out: Path, *, reps: int = 1, seconds: float = 0.0,
              cold: bool = False, spans: Path | None = None,
              paired: bool = False) -> tuple[dict, int]:
        """Run one child to completion; returns its result and spawn time (ns)."""
        self.children += 1
        tag = f"{self.children:02d}-{role}"
        result = self.run_dir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--role", role,
               "--workload", self.w.name, "--root", str(ROOT), "--out", str(out),
               "--result", str(result), "--reps", str(reps), "--seconds", str(seconds)]
        if cold:
            cmd.append("--cold")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        if paired:
            cmd.append("--paired")
        log_path = self.run_dir / f"{tag}.log"
        with log_path.open("w") as log:
            spawn_ns = time.perf_counter_ns()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{tag} ran past the {BUDGET_S:.0f} s budget") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not result.is_file():
            tail = log_path.read_text(errors="replace").splitlines()[-5:]
            raise BenchError(f"{tag} exited with {proc.returncode}: " + " | ".join(tail))
        doc = json.loads(result.read_text())
        self.environment = doc["environment"]
        return doc, spawn_ns


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _gap(invocations: list[dict]) -> float | None:
    gaps = [inv["savings_gap"] for inv in invocations if inv["savings_gap"] is not None]
    return max(gaps) if gaps else None


def measure(r: Runner, seconds: float) -> tuple[dict, list[dict], list[str], list[str]]:
    """``--trace 0``: set-ups, then the untraced timed phase.

    Returns metrics, the checked ``reccoord run`` invocations, report lines
    and problems that make the run incorrect.
    """
    w, invocations = r.w, []
    setup_s = []
    out = r.run_dir / "reports"
    for i in range(SETUPS):
        cold = w.resume and i == SETUPS - 1
        doc, spawn_ns = r.child("setup", out, cold=cold)
        setup_s.append((doc["ready_ns"] - spawn_ns) / 1e9)
        invocations += doc["invocations"]
    cold_s = sum(inv["run_s"] for inv in invocations)

    times, peaks = [], []
    for _ in range(w.processes):
        doc, _ = r.child("timed", out, reps=w.min_calls, seconds=seconds / w.processes)
        invocations += doc["invocations"]
        times += [inv["run_s"] for inv in doc["invocations"]]
        peaks.append(doc["peak_rss_mb"])
    runs = len(times)
    metrics = {
        "setup_s": _median(setup_s) + cold_s,
        "run_s": min(times),
        "peak_rss_mb": max(peaks),
    }
    notes = [
        f"setup_s      {metrics['setup_s']:.4f} s   median of {SETUPS} fresh-process "
        "set-ups" + (f" plus one cold run of {cold_s:.4f} s" if w.resume else ""),
        f"run_s        {metrics['run_s']:.4f} s   fastest of {runs} timed reccoord runs "
        f"over {w.processes} fresh process(es) (median {_median(times):.4f} s); "
        f"{w.mode_days / metrics['run_s']:.3f} mode-days/s; CPU time per run "
        f"{_median([inv['cpu_s'] for inv in invocations[-runs:]]):.4f} s",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  largest over the timed processes",
    ]
    return metrics, invocations, notes + _quality_notes(invocations), []


def _quality_notes(invocations: list[dict]) -> list[str]:
    attempted = sum(inv["mode_days"] for inv in invocations)
    failed = sum(inv["failed"] for inv in invocations)
    gap = _gap(invocations)
    return [
        f"failed_frac  {failed / attempted:.4f} fraction ({failed} of {attempted} mode-days)",
        "savings_gap  " + ("n/a (no decentralized mode with SoloFix and ECFlex)"
                           if gap is None else f"{gap:.9g} fraction, largest over "
                                               "the decentralized modes"),
    ]


def trace(r: Runner, seconds: float) -> tuple[dict, list[dict], list[str], list[str]]:
    """``--trace 1``: two traced timed processes, as :func:`measure`.

    The first pairs each traced call with an untraced one, for ``seconds``,
    for ``trace.overhead_frac``; the second repeats the traced calls in a
    fresh process for the exact-count check.
    """
    w, invocations, problems, notes = r.w, [], [], []
    out = r.run_dir / "reports"
    if w.resume:
        doc, _ = r.child("setup", out, cold=True)
        invocations += doc["invocations"]
    paired, _ = r.child("timed", out, reps=w.min_calls, seconds=seconds,
                        spans=r.run_dir / "spans-1.jsonl", paired=True)
    second, _ = r.child("timed", out, reps=w.min_calls, spans=r.run_dir / "spans-2.jsonl")
    invocations += paired["invocations"] + second["invocations"]
    missing = sorted(set(paired["missing_targets"] + second["missing_targets"]))
    if missing:
        notes.append(f"warning: not traced, absent from reccoord: {', '.join(missing)}")

    layer_runs = [inv["layers"] for inv in invocations if inv.get("traced")]
    for key in EXACT_COUNTS:
        values = {run[key] for run in layer_runs}
        if len(values) != 1:
            problems.append(f"{key} differs between traced runs: {sorted(values)}")
    metrics = {key: _median([run[key] for run in layer_runs]) for key in layer_runs[0]}
    calls, ratios = paired["invocations"], []
    for a, b in zip(calls[0::2], calls[1::2]):
        traced_call, plain_call = (a, b) if a["traced"] else (b, a)
        ratios.append(traced_call["run_s"] / plain_call["run_s"])
    metrics["trace.overhead_frac"] = _median(ratios) - 1.0
    metrics["decentral.savings_gap"] = _gap(invocations) or 0.0
    notes += [f"{key:32s} {value:.6g}" for key, value in metrics.items()]
    notes.append(f"{len(ratios)} traced/untraced pair(s), {len(layer_runs)} traced calls; "
                 f"spans in {r.run_dir.relative_to(ROOT)}/spans-*.jsonl")
    return metrics, invocations, notes + _quality_notes(invocations), problems


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded with the result; the workloads' inputs are fixed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="least duration of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "reccoord" / "cli.py").is_file():
        print(f"error: no reccoord sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    w = WORKLOADS[args.workload]
    run_dir = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(w, run_dir)
    invocations: list[dict] = []
    try:
        if args.trace:
            metrics, invocations, notes, problems = trace(runner, args.seconds)
        else:
            metrics, invocations, notes, problems = measure(runner, args.seconds)
    except BenchError as exc:
        metrics, notes, problems = {}, [], [f"error: {exc}"]
    finally:
        for item in run_dir.iterdir():
            if item.is_dir():
                shutil.rmtree(item, ignore_errors=True)

    attempted = sum(inv["mode_days"] for inv in invocations) or w.mode_days
    failed = sum(inv["failed"] for inv in invocations) if invocations else attempted
    problems += sorted({p for inv in invocations for p in inv["problems"]})
    if metrics and set(metrics) != set(declared):
        problems.append("metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    correct = bool(metrics) and failed == 0 and not problems
    environment = {"nproc": len(os.sched_getaffinity(0)), **runner.environment,
                   "commit": git_commit(), "workload": w.name, "seed": args.seed,
                   "day_prefix": DAY_PREFIX, "mode_days_per_run": w.mode_days}
    if w.scenario == "central80":
        environment["scenario_seed"] = CENTRAL80_SEED
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in declared if k in metrics}}

    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}: {w.mode_days} "
          f"mode-days per reccoord run ({len(w.modes)} modes x {DAY_PREFIX} day)")
    print("environment: " + " ".join(f"{k}={v}" for k, v in environment.items()))
    for line in notes + problems:
        print(line)
    record = {"environment": environment, "notes": notes, "problems": problems, **result}
    (WORK / f"BENCH_{w.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
