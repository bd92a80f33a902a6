"""Centralized planners: analytic oracles, brute-force cross-checks, the
benchmark-mode hierarchy, state carry-over and the independent verifier."""

from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np
import pytest

from reccoord import central
from reccoord.central import (InfeasibleDayError, PlannerError,
                              PlannerMode, SolvedDay, _DayModel, default_refs,
                              final_states, prioritize_self_consumption,
                              solve_centralized, verify_day_schedule)
from reccoord.decentral import run_ecflexit
from reccoord.devices import DEVICES, simulate_wb
from reccoord.lpcore import TOL_OPT, LpProblem, LpStatus, solve_lp
from reccoord.scenario import SyntheticConfig, generate_synthetic, load_bundled_scenario
from helpers import (encoded, make_member, make_scenario, run_days, series, simple_bss,
                     simple_ev, simple_hp, simple_wb)

DT6 = 6.0  # four-step day


def test_solofix_single_member_bill_has_no_freedom():
    """Without devices the bill is pinned: import the deficit, export the surplus."""
    pv = np.array([0.0, 3.0, 1.0, 0.0])
    fixed = np.array([1.0, 0.5, 1.5, 2.0])
    s = make_scenario([make_member("u1", 4, fixed=fixed, pv=pv)], steps=4)
    sched = solve_centralized(SolvedDay(s, 0), PlannerMode.SOLO_FIX)

    injection = pv - fixed
    expected = DT6 * float(np.sum(0.4 * np.maximum(0, -injection)
                                  - 0.1 * np.maximum(0, injection)))
    assert sched.community_bill_eur == pytest.approx(expected, abs=1e-9)
    assert verify_day_schedule(s.for_day(0), sched) == []


def test_ecfix_routes_matched_volume_through_the_community():
    """A 1 kW producer/consumer pair trades internally: the 0.02 fee round trip
    beats the 0.30 retailer spread."""
    producer = make_member("prod", 4, pv=np.full(4, 1.0))
    consumer = make_member("cons", 4, fixed=np.full(4, 1.0))
    s = make_scenario([producer, consumer], steps=4)
    sched = solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FIX)

    # producer sells 1 kW to the community all day, pays the fee; consumer
    # buys it, pays the fee; nobody touches the retailer
    assert sched.community_bill_eur == pytest.approx(24.0 * 0.02, abs=1e-6)
    assert np.sum(sched.member("cons").series["iret"]) == pytest.approx(0.0, abs=1e-6)
    assert np.sum(sched.member("prod").series["ecom"]) * DT6 == pytest.approx(24.0, abs=1e-6)
    assert verify_day_schedule(s.for_day(0), sched) == []

    solo = solve_centralized(SolvedDay(s, 0), PlannerMode.SOLO_FIX)
    assert solo.community_bill_eur == pytest.approx(24.0 * (0.4 - 0.1), abs=1e-6)


def _wb_pv_member(member_id: str = "u1"):
    """Midday PV, evening boiler reference: two-level brute force says the
    optimizer should move the boiler run into the PV window."""
    wb = simple_wb(4, power_ref=series(4, t3=2.0), coeff=1.0, pmax=2.0)
    return make_member(member_id, 4, pv=series(4, t1=3.0), wb=wb)


def _brute_force_wb_objective(member, prices_imp=0.4, prices_exp=0.1):
    """Enumerate boiler schedules on the {0, pmax} grid that conserve the daily
    energy; price the injections directly and add the recomputed hinge."""
    wb = member.wb
    best = None
    target = float(np.sum(wb.power_ref_kw))
    for combo in itertools.product((0.0, wb.max_power_kw), repeat=4):
        if abs(sum(combo) - target) > 1e-9:
            continue
        power = np.array(combo)
        temp = simulate_wb(wb, power, DT6)
        if np.any(temp > wb.temp_max + 1e-9):
            continue
        if np.any(temp < wb.usage_event * wb.temp_limit - 1e-9):
            continue
        hinge = np.maximum(0.0, wb.temp_limit - temp).sum() * wb.reluctance_eur
        injection = member.pv_max_kw - member.fixed_load_kw - power
        bill = DT6 * float(np.sum(prices_imp * np.maximum(0, -injection)
                                  - prices_exp * np.maximum(0, injection)))
        value = bill + hinge
        if best is None or value < best:
            best = value
    return best


def test_ecflex_shifts_boiler_into_pv_hours_matching_brute_force():
    s = make_scenario([_wb_pv_member()], steps=4)
    sched = solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FLEX)
    brute = _brute_force_wb_objective(s.members[0])

    assert sched.objective_value == pytest.approx(brute, abs=1e-7)
    m = sched.member("u1")
    assert m.series["pwb"][1] == pytest.approx(2.0, abs=1e-6)  # into the PV window
    assert m.series["pwb"][3] == pytest.approx(0.0, abs=1e-6)
    assert sched.community_discomfort_eur <= 1e-9
    assert verify_day_schedule(s.for_day(0), sched) == []


def test_mode_hierarchy_on_random_communities():
    """Adding constraints can only cost: flexible <= pinned, shared <= solitary."""
    for seed in range(10):
        cfg = SyntheticConfig(members=int(2 + seed % 5), seed=seed, dt_hours=1.0,
                              pv_total_kwp=10.0 + 3 * seed)
        s = generate_synthetic(cfg)
        obj = {}
        for mode in PlannerMode:
            sched = solve_centralized(SolvedDay(s, 0), mode)
            obj[mode] = sched.objective_value
            assert verify_day_schedule(s.for_day(0), sched) == []

        def leq(a, b):
            assert obj[a] <= obj[b] + 1e-6 * max(1.0, abs(obj[b]))

        leq(PlannerMode.EC_FLEX, PlannerMode.EC_FIX)
        leq(PlannerMode.EC_FIX, PlannerMode.SOLO_FIX)
        leq(PlannerMode.EC_FLEX, PlannerMode.SOLO_FLEX)
        leq(PlannerMode.SOLO_FLEX, PlannerMode.SOLO_FIX)


def test_lp_bill_variable_matches_recomputed_bill():
    cfg = SyntheticConfig(members=4, seed=3, dt_hours=1.0)
    s = generate_synthetic(cfg)
    sched = solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FLEX)
    assert sched.objective_value == pytest.approx(
        sched.community_bill_eur + sched.community_discomfort_eur, abs=1e-6)


#: Day-0 community objectives of the bundled community, one per mode.
COMMUNITY20_DAY0 = {
    PlannerMode.SOLO_FIX: 57.104784096069245,
    PlannerMode.SOLO_FLEX: 38.69340900373589,
    PlannerMode.EC_FIX: 43.02470836849031,
    PlannerMode.EC_FLEX: 17.710376208468006,
}


def test_community20_day0_objectives_are_pinned():
    s = load_bundled_scenario("community20")
    for mode, expected in COMMUNITY20_DAY0.items():
        sched = solve_centralized(SolvedDay(s, 0), mode)
        assert sched.objective_value == pytest.approx(expected, rel=TOL_OPT), mode
        assert verify_day_schedule(s.for_day(0), sched) == []


def test_reversed_member_order_keeps_community_totals():
    for seed in range(6):
        cfg = SyntheticConfig(members=int(2 + seed % 5), seed=seed, dt_hours=1.0,
                              pv_total_kwp=10.0 + 3 * seed)
        s = generate_synthetic(cfg)
        reversed_s = dataclasses.replace(s, members=tuple(reversed(s.members)))
        for mode in PlannerMode:
            a = solve_centralized(SolvedDay(s, 0), mode)
            b = solve_centralized(SolvedDay(reversed_s, 0), mode)
            assert b.objective_value == pytest.approx(
                a.objective_value, rel=TOL_OPT, abs=1e-9), (seed, mode)
            assert b.community_bill_eur == pytest.approx(
                a.community_bill_eur, rel=TOL_OPT, abs=1e-9), (seed, mode)


#: Communities whose day 0 is solved with the scenario's member order and reversed.
ORDERED_COMMUNITIES = {
    "community20": load_bundled_scenario,
    "synthetic6": lambda: generate_synthetic(SyntheticConfig(members=6, seed=7)),
    "synthetic8-hourly": lambda: generate_synthetic(
        SyntheticConfig(members=8, seed=3, dt_hours=1.0)),
}


@functools.cache
def _day0(name: str, reverse: bool) -> tuple[SolvedDay, dict]:
    """Day 0 of the community ``name``, its members reversed or not, and its
    four centralized schedules by mode, solved as a run solves them."""
    s = ORDERED_COMMUNITIES[name]()
    if reverse:
        s = dataclasses.replace(s, members=s.members[::-1])
    solved = SolvedDay(s, 0)
    modes = ("ECFlex", "ECFix", "SoloFlex", "SoloFix")  # a run's solve order
    return solved, {mode: solve_centralized(solved, PlannerMode(mode)) for mode in modes}


def _member_bill_gap(name: str, mode: str) -> float:
    """The largest move of a member's bill of ``mode`` when the members of
    ``name`` are reversed."""
    given, reversed_ = (_day0(name, reverse)[1][mode] for reverse in (False, True))
    return max(abs(m.bill_eur - reversed_.member(m.member_id).bill_eur)
               for m in given.members)


@pytest.mark.parametrize("name", list(ORDERED_COMMUNITIES))
def test_reversed_member_order_keeps_every_bill_the_model_defines(name):
    """The centralized community bills and the solo member bills are fixed by
    the model, so the vertex HiGHS returns may not move them."""
    given, reversed_ = (_day0(name, reverse)[1] for reverse in (False, True))
    for mode in given:
        assert reversed_[mode].community_bill_eur == pytest.approx(
            given[mode].community_bill_eur, rel=0, abs=1e-9), mode
    for mode in ("SoloFlex", "SoloFix"):
        assert _member_bill_gap(name, mode) <= 1e-9, mode


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1a: ECFix member bills depend on "
                                       "the vertex HiGHS returns (up to 0.115 EUR)")
def test_reversed_member_order_keeps_ecfix_member_bills():
    assert _member_bill_gap("community20", "ECFix") <= 1e-9


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1b: the member LPs' vertices move "
                                       "ECFlexIt's community bill (by 1.6e-3 EUR)")
def test_reversed_member_order_keeps_the_ecflexit_community_bill():
    given, reversed_ = (run_ecflexit(_day0("community20", reverse)[0], key="equal")[0]
                        for reverse in (False, True))
    assert reversed_.community_bill_eur == pytest.approx(
        given.community_bill_eur, rel=0, abs=1e-9)


def test_pinned_modes_keep_devices_exactly_on_reference():
    cfg = SyntheticConfig(members=5, seed=9, dt_hours=1.0)
    s = generate_synthetic(cfg)
    for mode in (PlannerMode.SOLO_FIX, PlannerMode.EC_FIX):
        sched = solve_centralized(SolvedDay(s, 0), mode)
        for m in sched.members:
            for power, ref in ((m.series.get("pev"), m.refs.get("ev")),
                               (m.series.get("pwb"), m.refs.get("wb")),
                               (m.series.get("php"), m.refs.get("hp"))):
                if power is not None:
                    assert float(np.abs(power - ref).sum()) <= 1e-9


def test_infeasible_day_raises_naming_the_mode():
    """An EV that must depart nearly full but may never charge."""
    ev = simple_ev(4, power_ref=np.zeros(4), plugged=[1, 0, 0, 0],
                   departure=[1, 0, 0, 0], soc_ref=[0.9, 0, 0, 0], soc_init=0.1)
    s = make_scenario([make_member("u1", 4, ev=ev)], steps=4)
    with pytest.raises(InfeasibleDayError) as err:
        solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FLEX)
    assert err.value.mode == "ECFlex"
    assert str(err.value).startswith("ECFlex infeasible")


def _cold_ecflex(scenario, initial_states=None):
    """ECFlex's own model solved cold, and that model."""
    model = _DayModel(SolvedDay(scenario, 0), PlannerMode.EC_FLEX, None, initial_states)
    return solve_lp(model.problem), model


def test_ecflex_warm_from_its_pinned_basis_reaches_the_cold_optimum():
    s = generate_synthetic(SyntheticConfig(members=40, seed=3))
    cold, cold_model = _cold_ecflex(s)
    model = _DayModel(SolvedDay(s, 0), PlannerMode.EC_FLEX, None, None)
    warm = model.solve()
    assert warm.objective == pytest.approx(cold.objective, rel=TOL_OPT)
    assert verify_day_schedule(s.for_day(0), model.extract(warm)) == []
    # fewer iterations than cold: the warm run did start from the pinned basis
    iterations = [m.problem._attached.highs.getInfo().simplex_iteration_count
                  for m in (model, cold_model)]
    assert iterations[0] < iterations[1]


def test_ecflex_solves_cold_when_carried_state_breaks_the_references(monkeypatch):
    """A vehicle left emptier than planned cannot follow its reference to the
    departure target, so the pinned phase is infeasible; ECFlex itself is not."""
    ev = simple_ev(24, power_ref=series(24, t20=2.0), capacity=10.0, pmax=5.0,
                   soc_init=0.7, soc_ref=series(24, t6=0.7), departure=series(24, t6=1.0))
    s = make_scenario([make_member("e", 24, ev=ev, pv=series(24, t12=3.0))], steps=24)
    states = {"e": {"ev": 0.6}}
    cold, _ = _cold_ecflex(s, states)

    solves = []

    def recording(problem, warm=False):
        solution = solve_lp(problem, warm)
        solves.append((solution.status, warm))
        return solution

    monkeypatch.setattr(central, "solve_lp", recording)
    sched = solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FLEX, initial_states=states)
    assert solves == [(LpStatus.INFEASIBLE, False), (LpStatus.OPTIMAL, False)]
    assert sched.objective_value == pytest.approx(cold.objective, rel=TOL_OPT)
    assert verify_day_schedule(s.for_day(0), sched, initial_states=states) == []


def _one_device_member(name: str, arrival_at_0: bool):
    """A member owning only device ``name``, with a random reference power."""
    n = 8
    rng = np.random.default_rng(11)
    ref = rng.uniform(0.0, 0.5, n)
    if name == "ev":
        device = simple_ev(n, ref, arrival=series(n, t0=float(arrival_at_0), t5=1.0),
                           soc_arrival=series(n, t0=0.25, t5=0.4), capacity=20.0, eta=0.9,
                           soc_init=0.3)
    elif name == "wb":
        device = simple_wb(n, ref, coeff=0.5, usage_loss=rng.uniform(0.0, 1.0, n),
                           envelope=np.full(n, 0.1))
    else:
        device = simple_hp(n, ref, wall_loss=rng.uniform(0.0, 2.0, n))
    return make_member("u1", n, **{name: device})


@pytest.mark.parametrize("name,start,arrival_at_0", [
    ("ev", None, False), ("ev", 0.35, False), ("ev", 0.35, True),
    ("wb", None, False), ("wb", 55.0, False),
    ("hp", None, False), ("hp", 19.0, False),
], ids=["ev-default", "ev-carried", "ev-arrival-at-0", "wb-default", "wb-carried",
        "hp-default", "hp-carried"])
def test_each_device_block_follows_its_simulator(name, start, arrival_at_0):
    """Pinned to its reference, a device's LP states are its simulated ones,
    from the default start, from a carried one, and for an EV arriving at
    step 0, whose arrival replaces the start state."""
    spec = next(spec for spec in DEVICES if spec.name == name)
    m = _one_device_member(name, arrival_at_0)
    device = getattr(m, name)
    dt = 3.0
    p = LpProblem("block")
    idx = central.add_device_block(p, m, {name: device.power_ref_kw},
                                   {} if start is None else {name: start}, dt, pinned=True)
    p.add_objective(idx[spec.discomfort], 1.0)
    solution = solve_lp(p)
    assert solution.status is LpStatus.OPTIMAL
    expected = spec.simulate(device, device.power_ref_kw, dt, start)
    assert np.max(np.abs(solution.x[idx[spec.state]] - expected)) <= 1e-9


def test_reference_dimension_mismatch_rejected():
    s = make_scenario([_wb_pv_member()], steps=4)
    refs = {"u1": {"wb": np.zeros(3)}}
    with pytest.raises(PlannerError, match="reference length"):
        _DayModel(SolvedDay(s, 0), PlannerMode.EC_FLEX, refs, None)


def test_reference_for_a_device_not_owned_rejected():
    s = make_scenario([_wb_pv_member()], steps=4)
    refs = {"u1": {"wb": np.zeros(4), "ev": np.zeros(4), "bss": np.zeros(4)}}
    with pytest.raises(PlannerError, match=r"member u1: .* not own: \['bss', 'ev'\]"):
        _DayModel(SolvedDay(s, 0), PlannerMode.EC_FLEX, refs, None)


def test_missing_member_reference_rejected():
    s = make_scenario([_wb_pv_member()], steps=4)
    with pytest.raises(PlannerError, match="missing"):
        _DayModel(SolvedDay(s, 0), PlannerMode.EC_FLEX, {}, None)


@pytest.mark.parametrize("refs, message", [
    ({"u2": {"wb": np.zeros(4)}}, "missing reference profiles for member u1"),
    ({"u1": {"wb": np.zeros(4), "ev": np.zeros(4)}},
     "member u1: reference profiles for devices it does not own: ['ev']"),
    ({"u1": {}}, "member u1: missing wb reference profile"),
], ids=["member", "device-not-owned", "slot"])
def test_a_solve_with_incomplete_references_names_what_is_wrong(refs, message):
    s = make_scenario([_wb_pv_member()], steps=4)
    with pytest.raises(PlannerError) as err:
        solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FLEX, refs=refs)
    assert str(err.value) == message


class TestPrioritization:
    def test_without_pv_the_bill_is_unchanged(self):
        """Flat prices make shifting pointless without local generation."""
        wb = simple_wb(4, power_ref=series(4, t3=2.0), coeff=1.0, pmax=2.0)
        s = make_scenario([make_member("u1", 4, fixed=np.full(4, 0.4), wb=wb)], steps=4)
        base = solve_centralized(SolvedDay(s, 0), PlannerMode.SOLO_FIX)
        refs = prioritize_self_consumption(SolvedDay(s, 0))
        primed = solve_centralized(SolvedDay(s, 0), PlannerMode.SOLO_FIX, refs=refs)
        assert primed.community_bill_eur == pytest.approx(base.community_bill_eur, abs=1e-7)

    def test_with_pv_references_move_but_conserve_energy(self):
        s = make_scenario([_wb_pv_member()], steps=4)
        refs = prioritize_self_consumption(SolvedDay(s, 0))
        original = s.members[0].wb.power_ref_kw
        assert float(np.sum(refs["u1"]["wb"])) == pytest.approx(float(np.sum(original)), abs=1e-8)
        assert refs["u1"]["wb"][1] > 1e-6  # mass moved into the PV window
        assert abs(refs["u1"]["wb"][3]) <= 1e-6

    def test_primed_run_keeps_discomfort_references(self):
        """Shifting in the priming stage must still be penalized downstream if
        it dips below the original targets."""
        s = make_scenario([_wb_pv_member()], steps=4)
        refs = prioritize_self_consumption(SolvedDay(s, 0))
        sched = solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FIX, refs=refs)
        # boiler pinned on the primed profile; hinge still measured vs temp_limit
        assert sched.member("u1").series["pwb"] == pytest.approx(np.asarray(refs["u1"]["wb"]))
        assert verify_day_schedule(s.for_day(0), sched) == []


def test_primed_centralized_chain_runs_and_verifies():
    """Community optimization on top of individually pre-optimized references:
    no cheaper than plain community optimization, but well-formed."""
    cfg = SyntheticConfig(members=4, seed=5, dt_hours=1.0,
                          num_days=2, pv_total_kwp=15.0)
    s = generate_synthetic(cfg)
    plain = run_days(s, lambda solved, carried: solve_centralized(
        solved, PlannerMode.EC_FLEX, initial_states=carried))
    primed = run_days(s, lambda solved, carried: solve_centralized(
        solved, PlannerMode.EC_FLEX, initial_states=carried,
        refs=prioritize_self_consumption(solved, initial_states=carried)))
    carried = {}
    for day, sched in enumerate(primed):
        assert verify_day_schedule(s.for_day(day), sched, initial_states=carried) == []
        carried = final_states(sched)
    total_plain = sum(d.objective_value for d in plain)
    total_primed = sum(d.objective_value for d in primed)
    assert total_primed >= total_plain - 1e-6 * max(1.0, abs(total_plain))


def test_multi_day_carry_over_and_daily_battery_anchor():
    cfg = SyntheticConfig(members=4, seed=5, dt_hours=1.0,
                          num_days=3, pv_total_kwp=15.0)
    s = generate_synthetic(cfg)
    schedules = run_days(s, lambda solved, carried: solve_centralized(
        solved, PlannerMode.EC_FLEX, initial_states=carried))
    assert len(schedules) == 3
    carried = {}
    for day, sched in enumerate(schedules):
        assert verify_day_schedule(s.for_day(day), sched, initial_states=carried) == []
        carried = final_states(sched)
        for m in sched.members:
            if m.series.get("socb") is not None:
                member = s.member(m.member_id)
                assert m.series["socb"][-1] == pytest.approx(member.bss.soc_init, abs=1e-6)


def test_default_refs_copy_scenario_profiles():
    s = make_scenario([_wb_pv_member()], steps=4)
    refs = default_refs(s.for_day(0))
    assert refs["u1"]["wb"] == pytest.approx(s.members[0].wb.power_ref_kw)
    assert "ev" not in refs["u1"]


def test_solo_modes_never_touch_community_exchange():
    cfg = SyntheticConfig(members=4, seed=13, dt_hours=1.0)
    s = generate_synthetic(cfg)
    for mode in (PlannerMode.SOLO_FIX, PlannerMode.SOLO_FLEX):
        sched = solve_centralized(SolvedDay(s, 0), mode)
        for m in sched.members:
            assert np.max(m.series["icom"]) <= 1e-9
            assert np.max(m.series["ecom"]) <= 1e-9


def test_member_without_assets_sees_no_difference_from_sharing():
    """In an all-consumer community there is nothing to trade, so opening the
    community changes nobody's bill."""
    from reccoord.billing import individual_benefits

    members = [make_member(f"u{i}", 4, fixed=np.full(4, 0.5 + 0.2 * i))
               for i in range(3)]
    s = make_scenario(members, steps=4)
    results = {
        "SoloFix": [solve_centralized(SolvedDay(s, 0), PlannerMode.SOLO_FIX)],
        "ECFix": [solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FIX)],
    }
    benefits = individual_benefits(results, "SoloFix")
    for record in benefits["ECFix"]:
        assert record.bill_delta_eur == pytest.approx(0.0, abs=1e-7)
        assert record.discomfort_delta_eur == pytest.approx(0.0, abs=1e-9)


class TestReferenceRepair:
    def _ev_member(self):
        """Reference charges 2 kWh late in the day; departure at step 6 needs
        SoC 0.7, which the planned profile only sustains from a start of 0.7."""
        ev = simple_ev(24, power_ref=series(24, t20=2.0), capacity=10.0, pmax=5.0,
                       soc_init=0.7, soc_ref=series(24, t6=0.7),
                       departure=series(24, t6=1.0))
        return make_member("e", 24, ev=ev)

    def test_feasible_references_pass_through_unchanged(self):
        from reccoord.central import repair_refs_for_state

        m = make_scenario([self._ev_member()], steps=24).for_day(0).members[0]
        refs = default_refs(make_scenario([self._ev_member()], steps=24).for_day(0))["e"]
        out = repair_refs_for_state(m, refs, {"ev": 0.7}, 1.0)
        assert out is refs

    def test_depleted_vehicle_replans_the_morning_minimally(self):
        from reccoord.central import repair_refs_for_state
        from reccoord.devices import simulate_ev

        s = make_scenario([self._ev_member()], steps=24)
        m = s.for_day(0).members[0]
        refs = default_refs(s.for_day(0))["e"]
        out = repair_refs_for_state(m, refs, {"ev": 0.6}, 1.0)

        assert out is not refs
        assert float(np.sum(out["ev"])) == pytest.approx(2.0, abs=1e-8)  # daily energy kept
        traj = simulate_ev(m.ev, out["ev"], 1.0, soc_start=0.6)
        assert traj[6] >= 0.7 - 1e-9  # departure target restored
        # minimal L1 repair: 1 kWh pulled forward, 1 kWh dropped later
        assert float(np.abs(out["ev"] - refs["ev"]).sum()) == pytest.approx(2.0, abs=1e-6)

    def test_unrecoverable_state_raises(self):
        from reccoord.central import repair_refs_for_state

        s = make_scenario([self._ev_member()], steps=24)
        m = s.for_day(0).members[0]
        refs = default_refs(s.for_day(0))["e"]
        # daily budget is 2 kWh = 0.2 SoC: from 0.3 the step-6 target of 0.7
        # is out of reach no matter how the profile is rearranged
        with pytest.raises(PlannerError, match="no feasible reference"):
            repair_refs_for_state(m, refs, {"ev": 0.3}, 1.0)


def test_battery_arbitrage_is_used_when_pv_is_stranded():
    """Solo member with PV surplus at noon and load at night: the battery
    moves the energy instead of round-tripping through the retailer."""
    member = make_member("u1", 4, fixed=series(4, t3=2.0), pv=series(4, t1=2.0),
                         bss=simple_bss(capacity=15.0, pmax=3.0, eta=1.0, soc_init=0.2))
    s = make_scenario([member], steps=4)
    sched = solve_centralized(SolvedDay(s, 0), PlannerMode.SOLO_FLEX)
    fix = solve_centralized(SolvedDay(s, 0), PlannerMode.SOLO_FIX)
    # SoloFix also dispatches the battery, so both modes can shift; the point
    # of comparison is the no-battery tariff spread
    no_battery = DT6 * (0.4 * 2.0 - 0.1 * 2.0)
    assert sched.community_bill_eur < no_battery - 1e-6
    assert fix.community_bill_eur < no_battery - 1e-6
    assert verify_day_schedule(s.for_day(0), sched) == []


class TestSolvedDay:
    """One day's solves: each distinct day LP is solved once and its schedule
    shared, bit for bit what a solve of its own would give."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return generate_synthetic(SyntheticConfig(members=6, seed=7, dt_hours=1.0))

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        builds = []
        init = _DayModel.__init__

        def counting(self, solved, mode, *args):
            builds.append(mode)
            init(self, solved, mode, *args)

        monkeypatch.setattr(_DayModel, "__init__", counting)
        return builds

    def test_ecflex_pinned_phase_is_the_ecfix_schedule(self, scenario, monkeypatch):
        alone = solve_centralized(SolvedDay(scenario, 0), PlannerMode.EC_FIX)
        builds = self._count_builds(monkeypatch)
        solved = SolvedDay(scenario, 0)
        solve_centralized(solved, PlannerMode.EC_FLEX)
        shared = solve_centralized(solved, PlannerMode.EC_FIX)
        assert builds == [PlannerMode.EC_FLEX]
        assert shared.mode == "ECFix"
        assert encoded(shared) == encoded(alone)
        assert verify_day_schedule(solved.scenario, shared) == []

    def test_a_hit_needs_the_same_lp(self, scenario, monkeypatch):
        builds = self._count_builds(monkeypatch)
        solved = SolvedDay(scenario, 0)
        sched = solve_centralized(solved, PlannerMode.SOLO_FLEX)
        # explicit default references and initial states are the same LP
        refs = default_refs(solved.scenario)
        states = {m.id: {} for m in scenario.members}
        assert solve_centralized(solved, PlannerMode.SOLO_FLEX, refs=refs,
                                 initial_states=states) is sched
        assert len(builds) == 1
        # another mode, state or reference is another LP
        moved = dict(refs)
        uid = next(m.id for m in scenario.members if m.wb is not None)
        moved[uid] = {**refs[uid], "wb": np.roll(refs[uid]["wb"], 1)}
        for kwargs in ({"mode": PlannerMode.SOLO_FIX},
                       {"initial_states": final_states(sched)},
                       {"refs": moved}):
            other = solve_centralized(solved, **{"mode": PlannerMode.SOLO_FLEX, **kwargs})
            assert other is not sched
        assert len(builds) == 4

    def test_fresh_days_share_nothing(self, scenario, monkeypatch):
        builds = self._count_builds(monkeypatch)
        for _ in range(2):
            solve_centralized(SolvedDay(scenario, 0), PlannerMode.EC_FLEX)
            solve_centralized(SolvedDay(scenario, 0), PlannerMode.EC_FIX)
        prioritize_self_consumption(SolvedDay(scenario, 0))
        run_ecflexit(SolvedDay(scenario, 0), key="equal", primed=True)
        assert builds == [PlannerMode.EC_FLEX, PlannerMode.EC_FIX] * 2 + [
            PlannerMode.SOLO_FLEX, PlannerMode.SOLO_FLEX, PlannerMode.EC_FIX]

    def test_coordination_reuses_the_memo_and_leaves_it_unchanged(self, scenario,
                                                                   monkeypatch):
        solved = SolvedDay(scenario, 0)
        shared = [solve_centralized(solved, mode)
                  for mode in (PlannerMode.EC_FIX, PlannerMode.SOLO_FLEX)]
        before = [encoded(sched) for sched in shared]
        builds = self._count_builds(monkeypatch)
        for primed in (False, True):
            run_ecflexit(solved, key="equal", primed=primed)
        assert builds == [PlannerMode.EC_FIX]  # the primed references' own
        assert [encoded(sched) for sched in shared] == before

    def test_failures_are_not_stored(self):
        ev = simple_ev(4, power_ref=np.zeros(4), plugged=[1, 0, 0, 0],
                       departure=[1, 0, 0, 0], soc_ref=[0.9, 0, 0, 0], soc_init=0.1)
        s = make_scenario([make_member("u1", 4, ev=ev)], steps=4)
        solved = SolvedDay(s, 0)
        for mode in (PlannerMode.EC_FLEX, PlannerMode.EC_FIX, PlannerMode.EC_FIX):
            with pytest.raises(InfeasibleDayError):
                solve_centralized(solved, mode)
        assert solved.schedules == {}
