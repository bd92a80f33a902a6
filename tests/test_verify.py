"""Strength of the independent verifier: a clean schedule passes, and each
single corruption of a device's state, power, daily energy or discomfort is
reported against the member that owns the device."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from reccoord.central import PlannerMode, SolvedDay, solve_centralized, verify_day_schedule
from reccoord.scenario import Scenario
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
