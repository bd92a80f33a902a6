"""Acceptance suite: the exit criteria of the build, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Later criteria re-check every schedule produced by earlier ones
(re-simulation within 1e-6, conservation within 1e-6 kWh), so the file is
meant to run top to bottom as a whole.
"""

from __future__ import annotations

import numpy as np
import pytest

from reccoord.billing import activation_price, summarize
from reccoord.central import (PlannerMode, SolvedDay, final_states, solve_centralized,
                              verify_day_schedule)
from reccoord.devices import DEVICES, simulate_bss, simulate_ev, simulate_hp, simulate_wb
from reccoord.kor import cascade_key, equal_key, get_key, prorate_key
from reccoord.scenario import (SyntheticConfig, generate_synthetic,
                               load_bundled_scenario)
from reccoord.decentral import MAX_ITERATIONS, run_ecflexit
from helpers import (flat_prices, make_member, make_scenario, run_days, series, simple_hp,
                     simple_wb)

# Schedules produced by criteria 2-5, re-verified by criteria 6 and 8:
# entries are (scenario, day, schedule, initial_states).
_SCHEDULES: list = []
# Coordination traces produced along the way, re-checked by criterion 8:
# entries are (dt_hours, trace).
_TRACES: list = []
# Mode results of the bundled-community run, shared between criteria 3 and 8.
_BUNDLED: dict = {}


def _ok(number: int, text: str) -> None:
    print(f"\n[acceptance] criterion {number}: PASS - {text}")


def test_criterion_1_activation_price_exact():
    """(0.4, 0.1, 0.01) EUR/kWh must price displaced energy at exactly 0.28."""
    reward = activation_price(flat_prices(4))
    assert list(reward) == [0.28, 0.28, 0.28, 0.28]
    _ok(1, "activation price is exactly 0.28 EUR/kWh at the reference tariffs")


def test_criterion_2_bill_hierarchy_on_50_random_communities():
    """Pinning flexibility or forbidding sharing can only raise the optimum."""
    rng = np.random.default_rng(20240)
    checked = 0
    for trial in range(50):
        cfg = SyntheticConfig(
            members=int(rng.integers(1, 7)),
            wb_rate=float(rng.uniform(0.2, 1.0)),
            ev_rate=float(rng.uniform(0.0, 1.0)),
            hp_rate=float(rng.uniform(0.0, 1.0)),
            bss_rate=float(rng.uniform(0.0, 0.8)),
            pv_rate=float(rng.uniform(0.3, 1.0)),
            pv_total_kwp=float(rng.uniform(4.0, 30.0)),
            dt_hours=1.0, seed=trial,
        )
        s = generate_synthetic(cfg)
        obj = {}
        for mode in PlannerMode:
            sched = solve_centralized(SolvedDay(s, 0), mode)
            obj[mode] = sched.objective_value
            _SCHEDULES.append((s, 0, sched, {}))

        def leq(a, b):
            assert obj[a] <= obj[b] + 1e-6 * max(1.0, abs(obj[b])), \
                f"seed {trial}: {a.value}={obj[a]} > {b.value}={obj[b]}"

        leq(PlannerMode.EC_FLEX, PlannerMode.EC_FIX)
        leq(PlannerMode.EC_FIX, PlannerMode.SOLO_FIX)
        leq(PlannerMode.EC_FLEX, PlannerMode.SOLO_FLEX)
        leq(PlannerMode.SOLO_FLEX, PlannerMode.SOLO_FIX)
        checked += 1
    assert checked == 50
    _ok(2, "bill hierarchy holds on 50 random communities (rel. 1e-6)")


def test_criterion_3_decentralized_lower_bound_and_gap_on_community20():
    """Bundled 20-member week: the primed equal-key coordination must stay
    above the centralized bill and within 10% of it."""
    s = load_bundled_scenario("community20")
    days = s.horizon.num_days

    central = run_days(s, lambda solved, carried: solve_centralized(
        solved, PlannerMode.EC_FLEX, initial_states=carried))
    carried = {}
    for day, sched in enumerate(central):
        _SCHEDULES.append((s, day, sched, dict(carried)))
        carried = final_states(sched)

    def solve_day(solved, carried):
        sched, traces = run_ecflexit(solved, key="equal", primed=True,
                                     initial_states=carried)
        _TRACES.extend((s.horizon.dt_hours, t) for t in traces)
        return sched

    schedules = run_days(s, solve_day)
    carried = {}
    for day, sched in enumerate(schedules):
        _SCHEDULES.append((s, day, sched, dict(carried)))
        carried = final_states(sched)

    bill_central = sum(d.community_bill_eur for d in central)
    bill_it = sum(d.community_bill_eur for d in schedules)
    assert len(schedules) == days
    assert bill_it >= bill_central - 1e-6
    deviation = (bill_it - bill_central) / bill_central
    assert deviation <= 0.10, f"raw deviation {deviation:.2%} above 10%"

    _BUNDLED["ECFlex"] = central
    _BUNDLED["ECFlexItPrimed"] = schedules
    _ok(3, f"week-long 20-member run: deviation {deviation:.2%} <= 10%, "
           f"lower bound respected")


def _thermal_shift_scenario():
    """Midday PV against evening boiler and heat-pump references."""
    n = 24
    wb = simple_wb(n, power_ref=series(n, t19=2.0, t20=2.0), coeff=1.0, pmax=3.0,
                   envelope=np.full(n, 0.05), temp_init=60.0, limit=50.0)
    hp = simple_hp(n, power_ref=series(n, t18=1.5, t19=1.5, t20=1.5), coeff=0.2,
                   cop=3.0, pmax=2.0, wall_loss=np.full(n, 0.25),
                   temp_init=20.5, limit=19.0)
    pv = np.zeros(n)
    pv[11:15] = 6.0
    flex = make_member("flex", n, fixed=np.full(n, 0.2), pv=pv, wb=wb, hp=hp)
    sink = make_member("sink", n, fixed=0.3 + series(n, t17=1.0, t18=1.0, t19=1.0,
                                                     t20=1.0, t21=1.0, t22=1.0))
    return make_scenario([flex, sink], steps=n)


def test_criterion_4_thermal_shifting_without_discomfort():
    s = _thermal_shift_scenario()
    ecflex = solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FLEX)
    it_sched, traces = run_ecflexit(SolvedDay(s, 0), key="equal")
    _SCHEDULES.append((s, 0, ecflex, {}))
    _SCHEDULES.append((s, 0, it_sched, {}))
    _TRACES.extend((s.horizon.dt_hours, t) for t in traces)

    report = summarize({"ECFlex": [ecflex], "ECFlexIt": [it_sched]})
    for mode in ("ECFlex", "ECFlexIt"):
        row = report[mode]
        assert row.activated_wb_kwh > 1e-9, f"{mode}: boiler never moved"
        assert row.activated_hp_kwh > 1e-9, f"{mode}: heat pump never moved"
        assert row.discomfort_wb_eur < 1e-9
        assert row.discomfort_hp_eur < 1e-9
    _ok(4, "both schemes shift boiler and heat pump into PV hours at zero "
           "discomfort (< 1e-9 EUR)")


def test_criterion_5_pinned_community_mode_never_activates_devices():
    scenarios = [_thermal_shift_scenario()]
    for seed in (0, 1):
        scenarios.append(generate_synthetic(SyntheticConfig(
            members=5, seed=seed, dt_hours=1.0, pv_total_kwp=15.0)))
    for s in scenarios:
        sched = solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FIX)
        _SCHEDULES.append((s, 0, sched, {}))
        report = summarize({"ECFix": [sched]})
        row = report["ECFix"]
        assert row.activated_ev_kwh <= 1e-9
        assert row.activated_wb_kwh <= 1e-9
        assert row.activated_hp_kwh <= 1e-9
    _ok(5, "pinned community mode reports zero shifted energy per device "
           "(< 1e-9 kWh)")


def test_criterion_6_resimulation_reproduces_every_optimal_schedule():
    """Independent oracle: device recurrences and hinge arithmetic must
    reproduce the LP trajectories and discomforts within 1e-6."""
    assert _SCHEDULES, "earlier criteria must register schedules first"
    for s, day, sched, states in _SCHEDULES:
        problems = verify_day_schedule(s.for_day(day), sched, initial_states=states)
        assert problems == [], f"{sched.mode} day {day}: {problems[:3]}"

        day_s = s.for_day(day)
        for m in day_s.members:
            ms = sched.member(m.id)
            state = states.get(m.id)
            if m.bss is not None:
                soc = simulate_bss(m.bss, ms.series["pcha"], ms.series["pdis"],
                                   day_s.horizon.dt_hours)
                assert np.max(np.abs(soc - ms.series["socb"])) <= 1e-6
            if m.ev is not None:
                soc = simulate_ev(m.ev, ms.series["pev"], day_s.horizon.dt_hours,
                                  soc_start=None if state is None else state.get("ev"))
                assert np.max(np.abs(soc - ms.series["sev"])) <= 1e-6
                hinge = DEVICES[0].hinge(m.ev, soc)
                assert np.max(np.abs(hinge - ms.series["jev"])) <= 1e-6
            if m.wb is not None:
                temp = simulate_wb(m.wb, ms.series["pwb"], day_s.horizon.dt_hours,
                                   temp_start=None if state is None else state.get("wb"))
                assert np.max(np.abs(temp - ms.series["twb"])) <= 1e-6
                hinge = DEVICES[1].hinge(m.wb, temp)
                assert np.max(np.abs(hinge - ms.series["jwb"])) <= 1e-6
            if m.hp is not None:
                temp = simulate_hp(m.hp, ms.series["php"], day_s.horizon.dt_hours,
                                   temp_start=None if state is None else state.get("hp"))
                assert np.max(np.abs(temp - ms.series["thp"])) <= 1e-6
                hinge = DEVICES[2].hinge(m.hp, temp)
                assert np.max(np.abs(hinge - ms.series["jhp"])) <= 1e-6
    _ok(6, f"re-simulation matches LP states and discomforts on "
           f"{len(_SCHEDULES)} schedules (1e-6)")


def test_criterion_7_repartition_key_suite():
    rng = np.random.default_rng(777)
    for name in ("equal", "prorate", "cascade"):
        key = get_key(name)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            offers = rng.uniform(0.0, 6.0, size=n) * (rng.random(n) > 0.25)
            request = float(rng.uniform(0.0, 14.0))
            act = key(offers, request)
            assert np.all(act >= -1e-12)
            assert np.all(act <= offers + 1e-9)
            assert float(act.sum()) <= request + 1e-9
            perm = rng.permutation(n)
            assert key(offers[perm], request) == pytest.approx(act[perm], abs=1e-12)
            if name == "cascade":
                assert float(act.sum()) == pytest.approx(
                    min(request, float(offers.sum())), abs=1e-9)
    assert list(cascade_key([2.0, 8.0, 8.0], 10.0)) == [2.0, 4.0, 4.0]
    assert equal_key([2.0, 8.0, 8.0], 10.0) == pytest.approx([2.0, 10 / 3, 10 / 3])
    assert prorate_key([2.0, 3.0, 5.0], 10.0) == pytest.approx([2.0, 3.0, 5.0])
    _ok(7, "3000 random key draws respect caps, requests and symmetry; "
           "cascade dispatches fully and matches the worked trace exactly")


def test_criterion_8_conservation_everywhere():
    assert _SCHEDULES and _TRACES
    for s, day, sched, _states in _SCHEDULES:
        day_s = s.for_day(day)
        steps = day_s.horizon.steps_per_day
        dt = day_s.horizon.dt_hours
        ecom = np.zeros(steps)
        icom = np.zeros(steps)
        for ms in sched.members:
            ecom += ms.series["ecom"]
            icom += ms.series["icom"]
            for power, ref in ((ms.series.get("pev"), ms.refs.get("ev")),
                               (ms.series.get("pwb"), ms.refs.get("wb")),
                               (ms.series.get("php"), ms.refs.get("hp"))):
                if power is not None:
                    drift = abs(float(np.sum(power - ref))) * dt
                    assert drift <= 1e-6, f"{sched.mode} day {day}: {drift}"
        assert np.max(np.abs(ecom - icom)) <= 1e-6

    for dt, trace in _TRACES:
        for act in trace.activations.values():
            imbalance_kwh = dt * abs(float(act.up_kw.sum() - act.down_kw.sum()))
            assert imbalance_kwh <= 1e-6
    _ok(8, "community balance, daily device conservation and per-iteration "
           "energy neutrality hold (1e-6)")


def test_criterion_9_termination_and_order_independence():
    terminated = 0
    for seed in range(8):
        cfg = SyntheticConfig(members=int(2 + seed % 4), seed=seed * 13,
                              dt_hours=1.0,
                              pv_total_kwp=8.0 + 2 * seed)
        s = generate_synthetic(cfg)
        _, traces = run_ecflexit(SolvedDay(s, 0), key="equal")
        assert len(traces) <= MAX_ITERATIONS
        terminated += 1
    assert terminated == 8
    _ok(9, "coordination terminates within the cap")
