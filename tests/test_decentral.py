"""Decentralized coordination: request derivation, member best responses,
bound refinement, loop invariants, determinism and the privacy surface."""

from __future__ import annotations

import inspect
import json

import numpy as np
import pytest

from reccoord import decentral, lpcore
from reccoord.billing import activation_price
from reccoord.central import (PlannerMode, SolvedDay, default_refs, final_states,
                              solve_centralized, verify_day_schedule)
from reccoord.decentral import (IterationLimitError, MemberAgent, Shift, initial_request,
                                refine_bounds, run_ecflexit, settle_community)
from reccoord.lpcore import TOL_OPT, LpStatus
from reccoord.reporting import schedule_to_dict
from reccoord.scenario import SyntheticConfig, generate_synthetic
from helpers import (make_member, make_scenario, run_days, series, simple_ev, simple_wb,
                     solve_with_linprog)


def _agent(scenario, member_id: str) -> MemberAgent:
    day = scenario.for_day(0)
    refs = default_refs(day)
    ecfix = solve_centralized(SolvedDay(scenario, 0), PlannerMode.EC_FIX)
    price = activation_price(day.prices)
    return MemberAgent(day.member(member_id), refs[member_id], {},
                       day.horizon.dt_hours, ecfix.member(member_id), price)


def _request(n: int, up=None, down=None) -> Shift:
    return Shift(up_kw=np.zeros(n) if up is None else np.asarray(up, dtype=float),
                 down_kw=np.zeros(n) if down is None else np.asarray(down, dtype=float))


class TestInitialRequest:
    def test_balanced_community_requests_nothing(self):
        producer = make_member("p", 4, pv=np.full(4, 1.0))
        consumer = make_member("c", 4, fixed=np.full(4, 1.0))
        s = make_scenario([producer, consumer], steps=4)
        ecfix = solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FIX)
        req = initial_request(ecfix)
        assert np.max(req.up_kw) <= 1e-9
        assert np.max(req.down_kw) <= 1e-9

    def test_surplus_becomes_upward_request(self):
        s = make_scenario([make_member("p", 4, pv=series(4, t1=3.0))], steps=4)
        ecfix = solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FIX)
        req = initial_request(ecfix)
        assert req.up_kw[1] == pytest.approx(3.0, abs=1e-6)
        assert req.up_kw[[0, 2, 3]] == pytest.approx([0, 0, 0], abs=1e-9)

    def test_reference_tariffs_give_28_cents(self):
        s = make_scenario([make_member("p", 4)], steps=4)
        assert list(activation_price(s.for_day(0).prices)) == [0.28] * 4


def _evening_wb_member(member_id: str = "w"):
    wb = simple_wb(4, power_ref=series(4, t3=2.0), coeff=1.0, pmax=2.0)
    return make_member(member_id, 4, wb=wb)


class TestMemberOffer:
    def test_zero_request_pins_the_offer_to_zero(self):
        s = make_scenario([_evening_wb_member()], steps=4)
        agent = _agent(s, "w")
        offer = agent.offer(_request(4))
        assert not offer.up_kw.any()
        assert not offer.down_kw.any()

    def test_boiler_shifts_toward_the_morning_request_without_discomfort(self):
        s = make_scenario([_evening_wb_member()], steps=4)
        agent = _agent(s, "w")
        offer = agent.offer(_request(4, up=series(4, t1=3.0), down=series(4, t3=3.0)))
        assert offer.up_kw[1] == pytest.approx(2.0, abs=1e-6)
        assert offer.down_kw[3] == pytest.approx(2.0, abs=1e-6)

    def test_members_without_assets_never_offer(self):
        s = make_scenario([make_member("f", 4, fixed=np.full(4, 1.0))], steps=4)
        agent = _agent(s, "f")
        offer = agent.offer(_request(4, up=np.full(4, 5.0), down=np.full(4, 5.0)))
        assert not offer.up_kw.any() and not offer.down_kw.any()

    @pytest.mark.parametrize("reluctance,expects_offer", [(0.2, True), (1.0, False)])
    def test_ev_offers_only_when_reward_beats_the_hinge(self, reluctance, expects_offer):
        """Delaying 2 kW by six hours costs 0.6*reluctance per kW against a
        0.28 EUR/kWh reward, so the break-even reluctance is about 0.47."""
        n = 24
        ev = simple_ev(n, power_ref=series(n, t0=2.0), capacity=10.0, pmax=5.0,
                       soc_init=0.0, soc_ref=np.full(n, 0.2), reluctance=reluctance)
        s = make_scenario([make_member("e", n, ev=ev)], steps=n)
        agent = _agent(s, "e")
        offer = agent.offer(_request(n, up=series(n, t6=2.0), down=series(n, t0=2.0)))
        if expects_offer:
            assert offer.up_kw[6] == pytest.approx(2.0, abs=1e-6)
        else:
            assert float(offer.up_kw.sum() + offer.down_kw.sum()) <= 1e-9


def test_activation_leaves_the_base_schedule_unchanged():
    """The agent commits into its own copy of the series table; the ECFix
    schedule it started from keeps every array it had."""
    s = make_scenario([_evening_wb_member()], steps=4)
    day = s.for_day(0)
    base = solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FIX).member("w")
    before = {tag: arr.copy() for tag, arr in base.series.items()}
    agent = MemberAgent(day.member("w"), default_refs(day)["w"], {},
                        day.horizon.dt_hours, base, activation_price(day.prices))
    act = agent.activate(Shift(up_kw=series(4, t1=2.0), down_kw=series(4, t3=2.0)))
    assert act.up_kw[1] == pytest.approx(2.0, abs=1e-6)
    assert agent.schedule.series["pwb"][1] == pytest.approx(2.0, abs=1e-6)
    assert base.series.keys() == before.keys()
    for tag, arr in before.items():
        np.testing.assert_array_equal(base.series[tag], arr, err_msg=tag)


class TestRefineBounds:
    def test_single_offer_capped_by_request(self):
        offer = Shift(up_kw=np.array([5.0, 1.0]), down_kw=np.array([0.0, 4.0]))
        req = _request(2, up=[3.0, 3.0], down=[3.0, 3.0])
        for key in ("equal", "prorate", "cascade"):
            bounds = refine_bounds({"m": offer}, req, key)["m"]
            assert bounds.up_kw == pytest.approx([3.0, 1.0])
            assert bounds.down_kw == pytest.approx([0.0, 3.0])

    def test_cascade_matches_the_key_example(self):
        offers = {m: Shift(up_kw=np.array([c]), down_kw=np.array([0.0]))
                  for m, c in (("a", 2.0), ("b", 8.0), ("c", 8.0))}
        bounds = refine_bounds(offers, _request(1, up=[10.0]), "cascade")
        assert [(m, b.up_kw[0]) for m, b in bounds.items()] == [("a", 2.0), ("b", 4.0),
                                                                 ("c", 4.0)]

    def test_zero_request_zeroes_all_bounds(self):
        offers = {"a": Shift(up_kw=np.array([2.0]), down_kw=np.array([2.0]))}
        bounds = refine_bounds(offers, _request(1), "equal")
        assert not bounds["a"].up_kw.any() and not bounds["a"].down_kw.any()


class TestMemberActivate:
    def test_bounds_equal_to_offer_reproduce_it(self):
        s = make_scenario([_evening_wb_member()], steps=4)
        agent = _agent(s, "w")
        req = _request(4, up=series(4, t1=3.0), down=series(4, t3=3.0))
        offer = agent.offer(req)
        bounds = refine_bounds({"w": offer}, req, "equal")["w"]
        act = agent.activate(bounds)
        assert act.up_kw == pytest.approx(offer.up_kw, abs=1e-6)
        assert act.down_kw == pytest.approx(offer.down_kw, abs=1e-6)

    def test_zero_bounds_keep_the_reference_dispatch(self):
        s = make_scenario([_evening_wb_member()], steps=4)
        agent = _agent(s, "w")
        before = np.array(agent.refs_total)
        act = agent.activate(refine_bounds(
            {"w": agent.offer(_request(4))}, _request(4), "equal")["w"])
        assert not act.up_kw.any() and not act.down_kw.any()
        assert agent.refs_total == pytest.approx(before)

    def test_asymmetric_bounds_rebalance_energy_neutrally(self):
        """Halving the downward leg drags the upward one with it."""
        s = make_scenario([_evening_wb_member()], steps=4)
        agent = _agent(s, "w")
        act = agent.activate(Shift(up_kw=series(4, t1=2.0), down_kw=series(4, t3=1.0)))
        assert float(act.up_kw.sum()) == pytest.approx(float(act.down_kw.sum()), abs=1e-9)
        assert act.up_kw[1] == pytest.approx(1.0, abs=1e-6)
        assert agent.revenue_eur == pytest.approx(0.28 * 1.0 * 6.0, abs=1e-6)


def test_settlement_matches_counterparties_through_the_community():
    exchanges = settle_community({
        "a": np.array([1.0, 0.0]), "b": np.array([-1.0, 0.0])})
    assert exchanges["a"]["ecom"][0] == pytest.approx(1.0, abs=1e-9)
    assert exchanges["b"]["icom"][0] == pytest.approx(1.0, abs=1e-9)
    assert exchanges["a"]["eret"][0] == pytest.approx(0.0, abs=1e-9)


class TestRunLoop:
    def test_no_pv_means_no_upward_request_and_an_immediate_exit(self):
        wb = simple_wb(24, power_ref=series(24, t19=2.0), coeff=1.0, pmax=2.0)
        s = make_scenario([make_member("w", 24, fixed=np.full(24, 0.3), wb=wb)],
                          steps=24)
        ecfix = solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FIX)
        sched, traces = run_ecflexit(SolvedDay(s, 0), key="equal")
        assert traces == []
        assert sched.community_bill_eur == pytest.approx(
            ecfix.community_bill_eur, abs=1e-6)

    def test_without_flexible_assets_one_empty_iteration_ends_the_loop(self):
        producer = make_member("p", 4, pv=series(4, t1=3.0))
        consumer = make_member("c", 4, fixed=np.full(4, 1.0))
        s = make_scenario([producer, consumer], steps=4)
        ecfix = solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FIX)
        sched, traces = run_ecflexit(SolvedDay(s, 0), key="cascade")
        assert len(traces) == 1
        assert traces[0].activated_volume_kwh == 0.0
        assert sched.community_bill_eur == pytest.approx(
            ecfix.community_bill_eur, abs=1e-6)

    @pytest.mark.parametrize("key", ["equal", "prorate", "cascade"])
    @pytest.mark.parametrize("primed", [False, True])
    def test_toy_community_lands_close_to_the_centralized_optimum(self, key, primed):
        s = generate_synthetic(SyntheticConfig(members=4, seed=7, dt_hours=1.0, pv_total_kwp=20.0))
        ecflex = solve_centralized(SolvedDay(s, 0), PlannerMode.EC_FLEX)
        sched, traces = run_ecflexit(SolvedDay(s, 0), key=key, primed=primed)
        assert verify_day_schedule(s.for_day(0), sched) == []
        assert sched.community_bill_eur >= ecflex.community_bill_eur - 1e-6
        deviation = (sched.community_bill_eur - ecflex.community_bill_eur) \
            / ecflex.community_bill_eur
        assert deviation <= 0.10

    def test_trace_invariants(self):
        s = generate_synthetic(SyntheticConfig(members=5, seed=11, dt_hours=1.0,
                                               pv_total_kwp=18.0))
        sched, traces = run_ecflexit(SolvedDay(s, 0), key="equal")
        assert traces, "expected at least one coordination round"
        dt = sched.dt_hours
        ids = [m.id for m in s.members]
        prev = None
        for trace in traces:
            assert list(trace.offers) == list(trace.bounds) == list(trace.activations) == ids
            for uid in ids:
                offer, bound, act = trace.offers[uid], trace.bounds[uid], trace.activations[uid]
                assert np.all(bound.up_kw <= offer.up_kw + 1e-9)
                assert np.all(bound.down_kw <= offer.down_kw + 1e-9)
                assert np.all(act.up_kw <= bound.up_kw + 1e-6)
                assert np.all(act.down_kw <= bound.down_kw + 1e-6)
                # offers and committed shifts both conserve daily energy
                for item in (offer, act):
                    shift = dt * float(item.up_kw.sum() - item.down_kw.sum())
                    assert abs(shift) <= 1e-6
            if prev is not None:
                assert np.all(trace.remaining.up_kw <= prev.up_kw + 1e-9)
                assert np.all(trace.remaining.down_kw <= prev.down_kw + 1e-9)
            prev = trace.remaining

    def test_revenues_equal_priced_activated_upward_energy(self):
        s = generate_synthetic(SyntheticConfig(members=5, seed=11, dt_hours=1.0,
                                               pv_total_kwp=18.0))
        sched, traces = run_ecflexit(SolvedDay(s, 0), key="cascade")
        dt = sched.dt_hours
        price = activation_price(s.for_day(0).prices)
        from_traces = sum(
            dt * float(np.sum(price * act.up_kw))
            for trace in traces for act in trace.activations.values())
        booked = sum(m.flex_revenue_eur for m in sched.members)
        assert booked == pytest.approx(from_traces, abs=1e-9)

    def test_member_evaluation_order_is_irrelevant(self):
        s = generate_synthetic(SyntheticConfig(members=5, seed=11, dt_hours=1.0,
                                               pv_total_kwp=18.0))
        ids = [m.id for m in s.members]
        sched_a, traces_a = run_ecflexit(SolvedDay(s, 0), key="equal")
        sched_b, traces_b = run_ecflexit(SolvedDay(s, 0), key="equal",
                                         evaluation_order=list(reversed(ids)))
        dump_a = json.dumps([t.to_dict() for t in traces_a])
        dump_b = json.dumps([t.to_dict() for t in traces_b])
        assert dump_a == dump_b
        assert sched_a.community_bill_eur == sched_b.community_bill_eur

    @pytest.mark.parametrize("primed", [False, True])
    def test_running_member_lps_ahead_changes_no_bit(self, monkeypatch, primed):
        """Concurrent member solves (two threads even on one CPU) give the
        traces and schedules of solving every member in turn."""
        s = generate_synthetic(SyntheticConfig(members=6, seed=7))
        monkeypatch.setattr(lpcore, "_cpus", lambda: 2)
        runs = []
        run = lpcore._run
        monkeypatch.setattr(lpcore, "_run",
                            lambda model, warm=False: (runs.append(1), run(model, warm)))
        results = [run_ecflexit(SolvedDay(s, 0), key="equal", primed=primed)]
        ahead = len(runs)
        monkeypatch.setattr(decentral, "run_ahead", lambda problems, warm=False: None)
        results.append(run_ecflexit(SolvedDay(s, 0), key="equal", primed=primed))
        assert len(runs) == 2 * ahead
        (sched_a, traces_a), (sched_b, traces_b) = results
        assert len(traces_a) > 1
        assert json.dumps([t.to_dict() for t in traces_a]) \
            == json.dumps([t.to_dict() for t in traces_b])
        assert json.dumps(schedule_to_dict(sched_a)) == json.dumps(schedule_to_dict(sched_b))

    @pytest.mark.parametrize("primed", [False, True])
    def test_warm_member_solves_reach_the_cold_optimum_in_fewer_iterations(
            self, monkeypatch, primed):
        """Members re-solve warm from their own previous run of the day: every
        solve reaches the optimum of a fresh ``linprog`` solve of the same
        staged subproblem, and the day costs fewer simplex iterations than
        with every HiGHS run cold."""
        s = generate_synthetic(SyntheticConfig(members=6, seed=7))
        iterations = []
        run = lpcore._run

        def counting(model, warm=False):
            run(model, warm)
            iterations.append(model.highs.getInfo().simplex_iteration_count)

        started_warm = []

        def checked(problem, warm=False):
            got = lpcore.solve_lp(problem, warm)
            want = solve_with_linprog(problem)
            assert got.status is want.status is LpStatus.OPTIMAL
            assert got.objective == pytest.approx(want.objective, rel=TOL_OPT, abs=1e-9)
            started_warm.append(problem._attached.warm)
            return got

        monkeypatch.setattr(lpcore, "_run", counting)
        monkeypatch.setattr(decentral, "solve_lp", checked)
        run_ecflexit(SolvedDay(s, 0), key="equal", primed=primed)
        warm = sum(iterations)
        assert sum(started_warm) > len(started_warm) // 2

        iterations.clear()
        monkeypatch.setattr(lpcore, "_run", lambda model, warm=False: counting(model))
        run_ecflexit(SolvedDay(s, 0), key="equal", primed=primed)
        assert warm < sum(iterations)

    def test_iteration_cap_raises_with_the_trace_attached(self):
        s = generate_synthetic(SyntheticConfig(members=4, seed=7, dt_hours=1.0, pv_total_kwp=20.0))
        with pytest.raises(IterationLimitError) as err:
            run_ecflexit(SolvedDay(s, 0), key="equal", max_iterations=1)
        assert str(err.value) == "iteration cap exceeded after 1 iterations"
        assert len(err.value.traces) == 1

    def test_bad_evaluation_order_rejected(self):
        s = generate_synthetic(SyntheticConfig(members=3, seed=1, dt_hours=1.0))
        from reccoord.decentral import DecentralError

        with pytest.raises(DecentralError, match="permutation"):
            run_ecflexit(SolvedDay(s, 0), key="equal", evaluation_order=["u01"])

    def test_plain_variant_survives_a_depleting_handoff(self):
        """Members may profitably end a day below their planned state; the
        next day's reference must be re-planned, not declared infeasible.
        The bundled community reproduces this on the day-0 to day-1 handoff."""
        from reccoord.scenario import load_bundled_scenario

        s = load_bundled_scenario()
        schedules = run_days(s, lambda solved, carried: run_ecflexit(
            solved, key="equal", primed=False, initial_states=carried)[0], num_days=2)
        assert len(schedules) == 2
        carried = {}
        for day, sched in enumerate(schedules):
            assert verify_day_schedule(s.for_day(day), sched, initial_states=carried) == []
            carried = final_states(sched)

    def test_multi_day_run_verifies_with_carried_states(self):
        s = generate_synthetic(SyntheticConfig(members=4, seed=3, dt_hours=1.0, num_days=2,
                                               pv_total_kwp=16.0))
        schedules = run_days(s, lambda solved, carried: run_ecflexit(
            solved, key="prorate", primed=True, initial_states=carried)[0])
        assert len(schedules) == 2
        carried = {}
        for day, sched in enumerate(schedules):
            assert verify_day_schedule(s.for_day(day), sched, initial_states=carried) == []
            carried = final_states(sched)


def test_operator_surface_never_sees_device_parameters():
    """The coordinator-side functions must be expressible without member or
    scenario types: offers, requests, tariffs and net injections only."""
    forbidden = ("Member", "Scenario", "BssParams", "EvParams", "WbParams", "HpParams")
    for fn in (initial_request, refine_bounds, settle_community):
        for parameter in inspect.signature(fn).parameters.values():
            annotation = str(parameter.annotation)
            for name in forbidden:
                assert name not in annotation, (
                    f"{fn.__name__}({parameter.name}: {annotation}) leaks {name}")
