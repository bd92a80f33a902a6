"""Strength of the independent verifier: a clean schedule passes, each
single corruption of a device's state, power or discomfort, and a daily
energy off the schedule's or the scenario's reference, is reported once
against the member that owns the device, a day's objective off its members'
bills and discomforts is reported once, PV production off its
availability is reported, each member's four legs off the settlement of the
net injections are reported once per member and the matched volume once per
day, whatever money was rewritten to match, and a schedule missing a member,
a series, a reference or a bill, listing a member twice, holding a series of
another length or a negative leg is reported, not raised on."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from reccoord.billing import individual_benefits
from reccoord.central import PlannerMode, SolvedDay, solve_centralized, verify_day_schedule
from reccoord.decentral import run_ecflexit
from reccoord.devices import DEVICES
from reccoord.scenario import Scenario, SyntheticConfig, generate_synthetic
from helpers import (make_member, make_scenario, rewritten, simple_bss, simple_ev, simple_hp,
                     simple_wb)

N = 24  # hourly steps


def _flex_member():
    """A member owning a battery, an EV, a boiler and a heat pump, with a PV
    surplus at midday and an evening load."""
    hours = np.arange(N)
    pv = np.where((hours >= 9) & (hours <= 15), 6.0, 0.0)
    fixed = np.where(hours >= 18, 2.0, 0.5)
    plugged = np.where((hours >= 8) & (hours < 17), 0.0, 1.0)
    ev_ref = np.where(hours < 8, 0.375, 0.0) + np.where((hours >= 18) & (hours < 22), 0.5, 0.0)
    ev = simple_ev(
        N, power_ref=ev_ref, plugged=plugged, arrival=(hours == 17).astype(float),
        departure=(hours == 7).astype(float), soc_arrival=np.where(hours == 17, 0.4, 0.0),
        soc_ref=np.where(hours < 8, 0.6, 0.0), capacity=10.0, pmax=1.0, soc_init=0.3)
    usage = np.isin(hours, (7, 20)).astype(float)
    wb = simple_wb(N, power_ref=np.isin(hours, (2, 3, 4, 14, 15, 16)).astype(float),
                   coeff=1.0, pmax=3.0, usage_loss=4.0 * usage, usage_event=usage,
                   envelope=np.full(N, 0.2))
    hp = simple_hp(N, power_ref=np.full(N, 0.4), pmax=3.0, wall_loss=np.full(N, 1.0))
    bss = simple_bss(capacity=10.0, pmax=3.0, eta=0.95, soc_min=0.1, soc_max=0.9)
    return make_member("flex", N, fixed=fixed, pv=pv, bss=bss, ev=ev, wb=wb, hp=hp)


SCENARIO = make_scenario([_flex_member(), make_member("plain", N, fixed=np.full(N, 1.0))],
                         steps=N)


@pytest.fixture(scope="module")
def solved():
    return solve_centralized(SolvedDay(SCENARIO, 0), PlannerMode.SOLO_FLEX)


def _with_device(name: str, **changes) -> Scenario:
    """The scenario with some parameters of the flexible member's device changed."""
    flex, plain = SCENARIO.members
    flex = replace(flex, **{name: replace(getattr(flex, name), **changes)})
    return replace(SCENARIO, members=(flex, plain))


def _problems(scenario: Scenario, solved, series=None, refs=None) -> list[str]:
    """Verify a copy of the solved day whose flexible member carries the
    given series edits (tag -> function of the old series) and references."""
    sched = replace(solved, members=list(solved.members))
    flex = sched.member("flex")
    new_series = dict(flex.series)
    for tag, edit in (series or {}).items():
        new_series[tag] = edit(np.array(new_series[tag]))
    sched.members[0] = replace(flex, series=new_series,
                               refs={**flex.refs, **(refs or {})})
    return verify_day_schedule(scenario.for_day(0), sched)


def _bumped(t: int, delta: float):
    def edit(arr):
        arr[t] += delta
        return arr
    return edit


def _assert_flags_flex(problems: list[str]) -> None:
    """Each fault trips exactly one check, and it names the device's owner."""
    assert len(problems) == 1, problems
    assert problems[0].startswith("flex: "), problems


def test_the_clean_schedule_verifies(solved):
    assert verify_day_schedule(SCENARIO.for_day(0), solved) == []
    flex = solved.member("flex")
    for tag in ("pcha", "pev", "pwb", "php"):
        assert np.max(flex.series[tag]) > 0.1, f"{tag} never runs: the faults below need it"


@pytest.mark.parametrize("tag", ["socb", "sev", "twb", "thp"])
def test_state_off_by_a_thousandth(solved, tag):
    _assert_flags_flex(_problems(SCENARIO, solved, series={tag: _bumped(12, -1e-3)}))


@pytest.mark.parametrize("device,field,tags", [
    ("bss", "max_power_kw", ("pcha", "pdis")),
    ("ev", "max_charge_kw", ("pev",)),
    ("wb", "max_power_kw", ("pwb",)),
    ("hp", "max_power_kw", ("php",)),
])
def test_power_above_its_rating(solved, device, field, tags):
    peak = max(float(np.max(solved.member("flex").series[tag])) for tag in tags)
    _assert_flags_flex(_problems(_with_device(device, **{field: peak - 0.01}), solved))


@pytest.mark.parametrize("device", ["ev", "wb", "hp"])
def test_daily_energy_off_the_reference(solved, device):
    ref = np.array(solved.member("flex").refs[device])
    ref[3] += 0.01
    _assert_flags_flex(_problems(SCENARIO, solved, refs={device: ref}))


@pytest.mark.parametrize("device", ["ev", "wb", "hp"])
def test_daily_energy_off_the_scenario(solved, device):
    """A reference whose energy moved together with its power is caught
    against the scenario's, with the state, discomfort, injection, legs and
    money re-derived to match."""
    spec = next(spec for spec in DEVICES if spec.name == device)
    params = getattr(SCENARIO.members[0], device)
    flex = solved.member("flex")
    power = _bumped(3, 0.01)(np.array(flex.series[spec.power]))
    traj = spec.simulate(params, power, SCENARIO.horizon.dt_hours)
    edits = {spec.power: lambda _: power, spec.state: lambda _: traj,
             spec.discomfort: lambda _: spec.hinge(params, traj), "pinj": _bumped(3, -0.01)}
    sched = rewritten(SCENARIO.for_day(0), solved, {"flex": edits}, settle=True)
    sched.members[0].refs = {**flex.refs, device: _bumped(3, 0.01)(np.array(flex.refs[device]))}
    problems = verify_day_schedule(SCENARIO.for_day(0), sched)
    assert problems == [f"flex: {spec.label} daily energy off the scenario's"]


@pytest.mark.parametrize("tag", ["jev", "jwb", "jhp"])
def test_discomfort_series_off(solved, tag):
    _assert_flags_flex(_problems(SCENARIO, solved, series={tag: _bumped(5, 1e-3)}))


def test_ev_below_its_departure_target(solved):
    # at the first step the vehicle is still below its 0.6 reference; a
    # departure there makes the reference a hard floor
    ev = SCENARIO.members[0].ev
    assert solved.member("flex").series["sev"][0] < ev.soc_ref[0]
    departure = np.array(ev.departure)
    departure[0] = 1.0
    _assert_flags_flex(_problems(_with_device("ev", departure=departure), solved))


def test_boiler_above_its_maximum(solved):
    hottest = float(np.max(solved.member("flex").series["twb"]))
    _assert_flags_flex(_problems(_with_device("wb", temp_max=np.full(N, hottest - 0.01)),
                                 solved))


@pytest.mark.parametrize("field, problem", [
    ("objective_value", "objective "),
], ids=["objective"])
def test_a_day_total_off_its_members(solved, field, problem):
    """The objective is the sum of the members' recomputed bills and
    discomforts (relative to its size)."""
    value = getattr(solved, field)
    edited = replace(solved, **{field: value + 1e-3 * max(1.0, abs(value))})
    problems = verify_day_schedule(SCENARIO.for_day(0), edited)
    assert len(problems) == 1 and problems[0].startswith(problem), problems


@pytest.fixture(scope="module")
def solofix_day():
    """A synthetic SoloFix day of u01 (EV and heat pump), u02 and u03 (boilers)."""
    solved = SolvedDay(generate_synthetic(SyntheticConfig(members=3, seed=0, dt_hours=1.0)), 0)
    return solved.scenario, solve_centralized(solved, PlannerMode.SOLO_FIX)


def _first_member(**changes):
    """An edit of a schedule's members that changes the first one."""
    def edit(members):
        first = members[0]
        return [replace(first, **{k: change(getattr(first, k)) for k, change in changes.items()}),
                *members[1:]]
    return edit


def _without(key):
    return lambda arrays: {k: v for k, v in arrays.items() if k != key}


@pytest.mark.parametrize("edit, problem", [
    (lambda members: members[:-1], "u03: missing from the schedule"),
    (lambda members: [*members, replace(members[0], member_id="u04")],
     "u04: not a member of the scenario"),
    (_first_member(series=_without("iret")), "u01: missing iret"),
    (_first_member(refs=_without("hp")), "u01: missing hp reference"),
    (_first_member(bill_eur=lambda bill: None), "u01: no bill"),
    (lambda members: [*members, members[0]], "u01: listed 2 times in the schedule"),
    (_first_member(series=lambda series: {**series, "pinj": series["pinj"][:-1]}),
     "u01: pinj has 23 steps, not 24"),
    (_first_member(refs=lambda refs: {**refs, "hp": np.append(refs["hp"], 0.0)}),
     "u01: hp reference has 25 steps, not 24"),
], ids=["member-missing", "member-unknown", "series-missing", "reference-missing",
        "bill-missing", "member-twice", "series-short", "reference-long"])
def test_a_malformed_schedule_is_a_problem_not_an_error(solofix_day, edit, problem):
    day, sched = solofix_day
    assert verify_day_schedule(day, sched) == []
    assert verify_day_schedule(day, replace(sched, members=edit(sched.members))) == [problem]


@pytest.fixture(scope="module")
def seed_one():
    """The day of a synthetic community of three (seed 1, hourly) solved
    under a mode on first use: u01 (boiler and heat pump) and u03 (EV)
    export at hour 7 and u02 (boiler) imports."""
    solved = SolvedDay(generate_synthetic(SyntheticConfig(members=3, seed=1, dt_hours=1.0)), 0)
    schedules = {}

    def day(mode: str):
        if mode not in schedules:
            schedules[mode] = (run_ecflexit(solved)[0] if mode == "ECFlexIt"
                               else solve_centralized(solved, PlannerMode(mode)))
        return solved.scenario, schedules[mode]
    return day


@pytest.mark.parametrize("mode, moves, problems", [
    ("ECFix", {"u03": {"ecom": -1.0, "eret": 1.0}, "u02": {"icom": -1.0, "iret": 1.0}},
     ["community legs off the matched volume by 1.000e+00",
      "u02: legs off the settlement by 1.000e+00",
      "u03: legs off the settlement by 1.000e+00"]),
    ("ECFix", {"u01": {"ecom": -0.1, "eret": 0.1}, "u03": {"ecom": 0.1, "eret": -0.1}},
     ["u01: legs off the settlement by 1.000e-01",
      "u03: legs off the settlement by 1.000e-01"]),
    ("ECFlexIt", {"u01": {"iret": 0.5, "eret": 0.5}},
     ["u01: legs off the settlement by 5.000e-01"]),
    ("SoloFix", {"u01": {"eret": -0.5, "ecom": 0.5}, "u02": {"iret": -0.5, "icom": 0.5}},
     ["community legs off the matched volume by 5.000e-01",
      "u01: legs off the settlement by 5.000e-01",
      "u02: legs off the settlement by 5.000e-01"]),
], ids=["matched-kwh-to-the-retailer", "matched-volume-to-another-exporter",
        "retailer-legs-both-raised", "solo-exchange-in-the-community"])
def test_community_legs_off_the_settlement(seed_one, mode, moves, problems):
    """Each step matches ``min(supply, demand)`` of the net injections (0 in
    a solo mode), shares it pro rata and leaves the rest to the retailer,
    whatever bills were written to match the legs; each member's legs and
    the matched volume are reported once."""
    day, sched = seed_one(mode)
    t = 7
    edits = {u: {tag: _bumped(t, kw) for tag, kw in tags.items()} for u, tags in moves.items()}
    edited = rewritten(day, sched, edits)
    assert all(edited.member(u).series[tag][t] >= 0.0 for u, tags in moves.items() for tag in tags)
    assert verify_day_schedule(day, sched) == []
    assert verify_day_schedule(day, edited) == problems


def test_a_negative_leg_is_a_problem_not_an_error(seed_one):
    """Legs the billing code refuses are reported, with the bill they change."""
    day, sched = seed_one("ECFix")
    u01 = sched.member("u01")
    assert u01.series["eret"][3] == 0.0 and u01.series["iret"][3] > 0.0
    series = {**u01.series, **{tag: _bumped(3, -0.5)(np.array(u01.series[tag]))
                               for tag in ("iret", "eret")}}
    edited = replace(sched, members=[replace(u01, series=series), *sched.members[1:]])
    problems = verify_day_schedule(day, edited)
    prefixes = ("u01: stored bill ", "u01: legs off the settlement by 5.000e-01",
                "objective ")
    assert len(problems) == 3 and all(map(str.startswith, problems, prefixes)), problems


def test_a_discomfort_series_off_moves_its_benefit_and_is_reported(seed_one):
    """A member's discomfort is the sum of its series: raising u01's boiler
    discomfort by 1.0 at one step moves its SoloFlex discomfort delta against
    SoloFix by 1.0, and the verifier reports the series once."""
    day, fix = seed_one("SoloFix")
    _, flex = seed_one("SoloFlex")
    u01 = flex.member("u01")
    series = {**u01.series, "jwb": _bumped(5, 1.0)(np.array(u01.series["jwb"]))}
    edited = replace(flex, members=[replace(u01, series=series), *flex.members[1:]])

    def u01_delta(sched) -> float:
        benefits = individual_benefits({"SoloFix": [fix], "SoloFlex": [sched]}, "SoloFix")
        return next(b for b in benefits["SoloFlex"] if b.member_id == "u01").discomfort_delta_eur

    assert u01_delta(edited) - u01_delta(flex) == 1.0
    assert verify_day_schedule(day, edited) == ["u01: boiler discomfort mismatch"]


def test_pv_below_its_availability(seed_one):
    """PV production is the scenario's availability, even when the net
    injection and the legs follow a curtailment."""
    day, sched = seed_one("ECFix")
    assert sched.member("u01").series["ppv"][12] > 1.0
    edits = {"u01": {"ppv": _bumped(12, -0.5), "pinj": _bumped(12, -0.5)}}
    assert verify_day_schedule(day, rewritten(day, sched, edits, settle=True)) == [
        "u01: PV production off its availability by 5.000e-01"]


def test_a_member_missing_from_a_community_day_unbalances_nothing(seed_one):
    """The community's totals are not checked over a part of the members."""
    day, sched = seed_one("ECFix")
    assert np.max(sched.member("u03").series["ecom"]) > 0.1
    assert verify_day_schedule(day, replace(sched, members=sched.members[:-1])) == [
        "u03: missing from the schedule"]
