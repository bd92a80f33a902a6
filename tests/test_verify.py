"""Strength of the independent verifier: a clean schedule passes, each
single corruption of a device's state, power, daily energy or discomfort is
reported against the member that owns the device, a day's bill, discomfort
or objective off its members' is reported once, community legs off the
settlement of the net injections are reported, and a schedule missing a
member, a series, a reference or a bill, listing a member twice or holding a
series of another length is reported, not raised on."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from reccoord import billing
from reccoord.central import PlannerMode, SolvedDay, solve_centralized, verify_day_schedule
from reccoord.scenario import Scenario, SyntheticConfig, generate_synthetic
from helpers import make_member, make_scenario, simple_bss, simple_ev, simple_hp, simple_wb

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
    ("community_bill_eur", "community bill "),
    ("community_discomfort_eur", "community discomfort "),
    ("objective_value", "objective "),
], ids=["bill", "discomfort", "objective"])
def test_a_day_total_off_its_members(solved, field, problem):
    """The day's bill and discomfort are the sums of the members' recomputed
    ones, and the objective is their sum (relative to its size)."""
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
    (_first_member(bill=lambda bill: None), "u01: no bill"),
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
def ecfix_day():
    """A synthetic ECFix day whose hour 7 has two exporters in the community,
    u01 and u03, and one importer, u02, all trading with the retailer too."""
    solved = SolvedDay(generate_synthetic(SyntheticConfig(members=3, seed=1, dt_hours=1.0)), 0)
    return solved.scenario, solve_centralized(solved, PlannerMode.EC_FIX)


def _moved(day: Scenario, sched, t: int, moves):
    """``sched`` with ``moves`` (member id -> tag -> kW added at step ``t``)
    applied, and the member bills, the day's bill and the objective
    recomputed to match, so that only the community legs are off."""
    members = []
    for ms in sched.members:
        series = dict(ms.series)
        for tag, kw in moves.get(ms.member_id, {}).items():
            series[tag] = np.array(series[tag])
            series[tag][t] += kw
        bill = billing.compute_bill(ms.member_id, series["iret"], series["eret"],
                                    series["icom"], series["ecom"], day.prices, sched.dt_hours)
        members.append(replace(ms, series=series, bill=bill))
    community_bill = sum(ms.bill.total_eur for ms in members)
    return replace(sched, members=members, community_bill_eur=community_bill,
                   objective_value=sched.objective_value - sched.community_bill_eur
                   + community_bill)


@pytest.mark.parametrize("moves, problems", [
    ({"u03": {"ecom": -1.0, "eret": 1.0}, "u02": {"icom": -1.0, "iret": 1.0}},
     ["community legs off the matched volume by 1.000e+00",
      "u02: community legs off the pro-rata share by 1.000e+00",
      "u03: community legs off the pro-rata share by 1.000e+00"]),
    ({"u01": {"ecom": -0.1, "eret": 0.1}, "u03": {"ecom": 0.1, "eret": -0.1}},
     ["u01: community legs off the pro-rata share by 1.000e-01",
      "u03: community legs off the pro-rata share by 1.000e-01"]),
], ids=["matched-kwh-to-the-retailer", "matched-volume-to-another-exporter"])
def test_community_legs_off_the_settlement(ecfix_day, moves, problems):
    """Each step matches ``min(supply, demand)`` of the net injections and
    shares it pro rata, whatever bills were written to match the legs."""
    day, sched = ecfix_day
    t = 7
    legs = {ms.member_id: ms.series for ms in sched.members}
    assert [legs[u]["ecom"][t] > 0.1 for u in ("u01", "u02", "u03")] == [True, False, True]
    assert legs["u02"]["icom"][t] > 1.0 and legs["u03"]["ecom"][t] > 1.0
    assert min(legs[u]["eret"][t] for u in ("u01", "u03")) > 0.1
    assert verify_day_schedule(day, sched) == []
    assert verify_day_schedule(day, _moved(day, sched, t, moves)) == problems


def test_a_member_missing_from_a_community_day_unbalances_nothing(ecfix_day):
    """The community's totals are not checked over a part of the members."""
    day, sched = ecfix_day
    assert np.max(sched.member("u03").series["ecom"]) > 0.1
    assert verify_day_schedule(day, replace(sched, members=sched.members[:-1])) == [
        "u03: missing from the schedule"]
