"""Hand-built scenario fixtures, a multi-day loop, schedules rewritten with
their money re-derived, the ``linprog`` reference solve, the exact rational
equal key, the per-cell ``schedules.csv`` reference writer and reader, a
schedule's checkpoint form, fresh interpreters with or without a HiGHS
solver, and runs killed at a file write and resumed, shared across the test
modules."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from reccoord import billing, cli, lpcore
from reccoord.central import SERIES, SolvedDay, final_states
from reccoord.lpcore import LpProblem, LpSolution, LpStatus
from reccoord.reporting import schedule_to_dict
from reccoord.scenario import (BssParams, EvParams, Horizon, HpParams, Member,
                               Prices, Scenario, WbParams)


def flat_prices(n: int, imp: float = 0.4, exp: float = 0.1, fee: float = 0.01) -> Prices:
    return Prices(
        import_price=np.full(n, imp),
        export_price=np.full(n, exp),
        community_fee=np.full(n, fee),
    )


def series(n: int, **at) -> np.ndarray:
    """Zeros of length ``n`` with keyword overrides like ``t3=2.0``."""
    out = np.zeros(n)
    for key, value in at.items():
        out[int(key[1:])] = value
    return out


def make_member(member_id: str, n: int, fixed=None, pv=None, bss=None, ev=None,
                wb=None, hp=None) -> Member:
    return Member(
        id=member_id,
        fixed_load_kw=np.zeros(n) if fixed is None else np.asarray(fixed, dtype=float),
        pv_max_kw=np.zeros(n) if pv is None else np.asarray(pv, dtype=float),
        bss=bss, ev=ev, wb=wb, hp=hp,
    )


def make_scenario(members, steps: int = 4, num_days: int = 1,
                  imp: float = 0.4, exp: float = 0.1, fee: float = 0.01) -> Scenario:
    n = steps * num_days
    return Scenario(
        horizon=Horizon(steps_per_day=steps, dt_hours=24.0 / steps, num_days=num_days),
        prices=flat_prices(n, imp, exp, fee),
        members=tuple(members),
    )


def simple_wb(n: int, power_ref, temp_init: float = 60.0, limit: float = 50.0,
              temp_max: float = 80.0, coeff: float = 1.0, pmax: float = 4.0,
              usage_loss=None, usage_event=None, envelope=None,
              reluctance: float = 1.0) -> WbParams:
    return WbParams(
        thermal_coeff=coeff,
        max_power_kw=pmax,
        temp_init=temp_init,
        temp_max=np.full(n, temp_max),
        temp_limit=np.full(n, limit),
        usage_event=np.zeros(n) if usage_event is None else np.asarray(usage_event, dtype=float),
        usage_loss_kw=np.zeros(n) if usage_loss is None else np.asarray(usage_loss, dtype=float),
        envelope_loss_kw=np.zeros(n) if envelope is None else np.asarray(envelope, dtype=float),
        power_ref_kw=np.asarray(power_ref, dtype=float),
        reluctance_eur=reluctance,
    )


def simple_hp(n: int, power_ref, temp_init: float = 20.5, limit: float = 19.5,
              coeff: float = 0.2, cop: float = 3.0, pmax: float = 4.0,
              wall_loss=None, reluctance: float = 1.0) -> HpParams:
    return HpParams(
        thermal_coeff=coeff,
        max_power_kw=pmax,
        cop=cop,
        temp_init=temp_init,
        temp_limit=np.full(n, limit),
        wall_loss_kw=np.zeros(n) if wall_loss is None else np.asarray(wall_loss, dtype=float),
        power_ref_kw=np.asarray(power_ref, dtype=float),
        reluctance_eur=reluctance,
    )


def simple_ev(n: int, power_ref, plugged=None, arrival=None, departure=None,
              soc_arrival=None, soc_ref=None, capacity: float = 10.0,
              pmax: float = 5.0, eta: float = 1.0, soc_init: float = 0.2,
              reluctance: float = 1.0) -> EvParams:
    return EvParams(
        capacity_kwh=capacity,
        max_charge_kw=pmax,
        efficiency=eta,
        soc_init=soc_init,
        plugged=np.ones(n) if plugged is None else np.asarray(plugged, dtype=float),
        arrival=np.zeros(n) if arrival is None else np.asarray(arrival, dtype=float),
        departure=np.zeros(n) if departure is None else np.asarray(departure, dtype=float),
        soc_arrival=np.zeros(n) if soc_arrival is None else np.asarray(soc_arrival, dtype=float),
        soc_ref=np.zeros(n) if soc_ref is None else np.asarray(soc_ref, dtype=float),
        power_ref_kw=np.asarray(power_ref, dtype=float),
        reluctance_eur=reluctance,
    )


def simple_bss(capacity: float = 10.0, pmax: float = 5.0, eta: float = 1.0,
               soc_init: float = 0.5, soc_min: float = 0.0,
               soc_max: float = 1.0) -> BssParams:
    return BssParams(capacity_kwh=capacity, max_power_kw=pmax, efficiency=eta,
                     soc_init=soc_init, soc_min=soc_min, soc_max=soc_max)


def run_days(scenario: Scenario, solve_day, num_days: int | None = None) -> list:
    """Schedules of consecutive days, each from ``solve_day(solved, carried)``
    with a fresh :class:`~reccoord.central.SolvedDay` of the day and the device
    states the day before ended in (none on day 0)."""
    schedules, carried = [], {}
    for day in range(scenario.horizon.num_days if num_days is None else num_days):
        schedules.append(solve_day(SolvedDay(scenario, day), carried))
        carried = final_states(schedules[-1])
    return schedules


def rewritten(day: Scenario, sched, edits, settle: bool = False):
    """``sched`` with ``edits`` applied (member id -> tag -> function of a
    copy of the old series, giving the new one), every member's legs
    re-settled from its ``pinj`` if ``settle``, and the member bills and the
    objective re-derived from the series, so that only what the edits leave
    inconsistent is off (the day's totals are the members' sums)."""
    members = []
    for ms in sched.members:
        series = dict(ms.series)
        for tag, edit in edits.get(ms.member_id, {}).items():
            series[tag] = edit(np.array(series[tag]))
        members.append(replace(ms, series=series))
    if settle:
        legs = billing.settle_community({ms.member_id: ms.series["pinj"] for ms in members},
                                        community=not sched.mode.startswith("Solo"))
        for ms in members:
            ms.series.update(legs[ms.member_id])
    for ms in members:
        ms.bill_eur = billing.compute_bill(*(ms.series[tag] for tag in (
            "iret", "eret", "icom", "ecom")), day.prices, sched.dt_hours)
    out = replace(sched, members=members)
    out.objective_value = out.community_bill_eur + out.community_discomfort_eur
    return out


def solve_with_linprog(problem: LpProblem) -> LpSolution:
    """``problem`` solved afresh by ``scipy.optimize.linprog`` from the layout
    HiGHS receives, and checked as :func:`reccoord.lpcore.solve_lp` checks."""
    (indptr, indices, data), _, rhs = problem._highs_layout()
    a = csc_array((data, indices, indptr),
                  shape=(problem.num_constraints, problem.num_variables))
    k = problem._structured().num_ub
    blocks = {"A_ub": a[:k], "b_ub": rhs[:k], "A_eq": a[k:], "b_eq": rhs[k:]}
    res = linprog(problem.objective_vector(), bounds=np.column_stack(problem.bounds()),
                  method="highs", **{key: v for key, v in blocks.items() if v.shape[0]})
    status = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
    return lpcore._solution(problem, status.get(res.status, LpStatus.NUMERIC_ERROR), res.x,
                            res.message)


def write_schedules_csv_reference(schedules, path: Path) -> None:
    """``schedules.csv`` written one ``csv.writerow`` per cell, the layout
    :func:`reccoord.reporting.write_report` must reproduce byte for byte."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["mode", "day", "t", "member", "variable", "value"])
        for mode, day_schedules in schedules.items():
            for sched in day_schedules:
                members = sorted(sched.members, key=lambda m: m.member_id)
                steps = len(members[0].series["pinj"]) if members else 0
                for t in range(steps):
                    for m in members:
                        for tag in sorted(m.series, key=SERIES.__getitem__):
                            writer.writerow([mode, sched.day, t, m.member_id,
                                             SERIES[tag], f"{float(m.series[tag][t]):.9g}"])


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


def encoded(sched) -> tuple[str, bytes]:
    """``sched``'s checkpoint form: its document as JSON text and its array
    bytes, equal for two schedules only if every value is equal bit for bit."""
    doc, data = schedule_to_dict(sched)
    return json.dumps(doc), data


def equal_key_fraction(offers, request: float) -> np.ndarray:
    """The equal key of one step on exact rationals, the split
    :func:`reccoord.kor.equal_key` must reproduce bit for bit."""
    caps = []
    for cap in offers:
        f = Fraction(float(cap))
        if f < 0:
            raise ValueError(f"offer {cap} is negative")
        caps.append(f)
    req = Fraction(float(request))
    if req < 0:
        raise ValueError(f"request {request} is negative")
    providers = sum(1 for c in caps if c > 0)
    if providers == 0 or req == 0:
        return np.zeros(len(caps))
    share = req / providers
    return np.array([float(min(share, c)) if c > 0 else 0.0 for c in caps])


def run_python(*pieces: str) -> subprocess.CompletedProcess:
    """The code ``pieces`` run by a fresh interpreter that imports reccoord
    from where this process does, with its output captured."""
    src = str(Path(lpcore.__file__).resolve().parents[1])
    code = "\n".join(map(textwrap.dedent, pieces))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)


def scipy_without_highs(root: Path) -> Path:
    """A ``scipy`` package under ``root`` whose ``optimize/_highspy``
    directory holds no extension and whose ``__init__.py`` fails if it runs;
    returns that directory.  Put ``root`` first on ``sys.path`` to use it."""
    where = root / "scipy" / "optimize" / "_highspy"
    where.mkdir(parents=True)
    (root / "scipy" / "__init__.py").write_text("raise ImportError('scipy/__init__.py ran')\n")
    return where


#: The code of :func:`run_crashing`'s interpreter, after ``AT`` and ``ARGV``.
_CRASHING = """
import contextlib, json, os, sys
from reccoord import cli, reporting

replacing, written = reporting.replacing, []

@contextlib.contextmanager
def crashing(path):
    with replacing(path) as tmp:
        yield tmp
        written.append(path.name)
        if AT in (len(written), path.name):
            os._exit(9)  # the new bytes are in the temp file, not yet in place

reporting.replacing = crashing
code = cli.main(ARGV)
print(json.dumps(written))
sys.exit(code)
"""


def run_crashing(argv: list[str], at: int | str | None) -> subprocess.CompletedProcess:
    """``reccoord.cli.main(argv)`` run by a fresh interpreter (see
    :func:`run_python`) that ends with exit code 9 inside one file write: the
    ``at``-th, or the first of the file named ``at``, once its bytes are in
    the temp file and before they replace the file.  Every checkpoint and
    report write goes through :func:`reccoord.reporting.replacing`, where the
    writes are counted.  A run that reaches its end prints the names of the
    files it wrote, in order, as a JSON list on its last line."""
    return run_python(f"AT, ARGV = {at!r}, {argv!r}", _CRASHING)


def check_crash_resumes_as_cold(argv: list[str], at: int | str, cold: Path, out: Path) -> None:
    """Kill the run of ``argv`` into ``out`` at the write ``at`` (see
    :func:`run_crashing`), resume it, and check that ``out`` then holds the
    files the run's cold, uninterrupted run left in ``cold``, byte for byte:
    the reports, ``scenario.json``, every checkpoint pair and ``meta.json``,
    and no ``*.tmp``."""
    crashed = run_crashing([*argv, "--out", str(out)], at)
    assert crashed.returncode == 9, (at, crashed.returncode, crashed.stderr)
    assert cli.main([*argv, "--out", str(out)]) == 0, at

    def files(root: Path) -> dict[str, bytes]:
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    got, want = files(out), files(cold)
    assert sorted(got) == sorted(want), at
    for name, data in want.items():
        assert got[name] == data, (at, name)


def crash_at_every_write(argv: list[str], root: Path) -> None:
    """:func:`check_crash_resumes_as_cold` at every file write of the run of
    ``argv``, each into its own directory under ``root``, after a cold run
    into ``root/cold`` has counted the writes."""
    root = Path(root)
    cold = run_crashing([*argv, "--out", str(root / "cold")], None)
    assert cold.returncode == 0, cold.stderr
    written = json.loads(cold.stdout.splitlines()[-1])
    for k, name in enumerate(written, start=1):
        check_crash_resumes_as_cold(argv, k, root / "cold", root / f"crash-{k}")
        print(f"killed at write {k} of {len(written)} ({name}): resumed to the cold run's files")
