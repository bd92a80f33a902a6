"""Iterative decentralized flexibility coordination.

The community operator derives upward/downward flexibility requests from the
non-flexible community dispatch, then loops: members independently offer
shiftable capacity against the request and the activation reward; the
operator splits the request over the offers with a repartition key; members
re-solve against their individual activation bounds and commit the result,
which becomes their new reference consumption.  The loop ends when the
residual request or the activated volume vanishes.

Member-side optimization sees private device parameters; the operator-side
functions (:func:`initial_request`, :func:`refine_bounds`,
:func:`settle_community`) consume only offers, activations, aggregate
requests and net injections.  Running members in any order yields identical
results: within an iteration every subproblem depends only on the shared
request and the member's own committed state, and all aggregation happens in
canonical member order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import billing
from .central import (CarriedState, DaySchedule, DeviceRefs, FlexRefs, FLEX_TAGS,
                      MemberDaySchedule, PlannerMode, SERIES_FIELDS, add_device_block,
                      default_refs, discomfort_eur, prioritize_self_consumption, final_states,
                      repair_refs_for_state, solve_centralized)
from .kor import get_key
from .lpcore import LpProblem, LpStatus, solve_lp
from .scenario import Member, Prices, Scenario

#: Termination threshold: request entries and activated volumes below this
#: many kWh count as zero.
EPSILON_KWH = 1e-6

#: Request entries below this many kW are flushed to zero at derivation time,
#: so solver dust cannot leave both directions nominally "open" at one step.
REQUEST_DUST_KW = 1e-9


class DecentralError(Exception):
    """Coordination failure (corrupted references, member infeasibility)."""


class IterationLimitError(DecentralError):
    """The coordination loop did not terminate within the iteration cap."""

    def __init__(self, day: int, traces: list["IterationTrace"]):
        self.day = day
        self.traces = traces
        super().__init__(f"iteration cap exceeded on day {day} "
                         f"after {len(traces)} iterations")


@dataclass(frozen=True)
class FlexRequest:
    """Community-level residual request per step and direction, plus reward."""

    up_kw: np.ndarray
    down_kw: np.ndarray
    activation_price: np.ndarray

    def __post_init__(self) -> None:
        for name in ("up_kw", "down_kw", "activation_price"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class CapacityOffer:
    """One member's offered shiftable power per step and direction."""

    member_id: str
    up_kw: np.ndarray
    down_kw: np.ndarray


@dataclass(frozen=True)
class ActivationBounds:
    """Operator-refined per-member activation limits (never above the offer)."""

    member_id: str
    up_kw: np.ndarray
    down_kw: np.ndarray


@dataclass(frozen=True)
class Activation:
    """Power shifts a member actually committed in one iteration."""

    member_id: str
    up_kw: np.ndarray
    down_kw: np.ndarray


@dataclass
class IterationTrace:
    """Bookkeeping of one coordination round (canonical member order)."""

    day: int
    iteration: int
    offers: list[CapacityOffer]
    bounds: list[ActivationBounds]
    activations: list[Activation]
    remaining_up_kw: np.ndarray
    remaining_down_kw: np.ndarray
    activated_volume_kwh: float

    def to_dict(self) -> dict:
        def vectors(items) -> dict:
            return {it.member_id: {"up": [float(v) for v in it.up_kw],
                                   "down": [float(v) for v in it.down_kw]}
                    for it in items}

        return {
            "day": self.day,
            "iteration": self.iteration,
            "offers": vectors(self.offers),
            "bounds": vectors(self.bounds),
            "activations": vectors(self.activations),
            "remaining_up_kw": [float(v) for v in self.remaining_up_kw],
            "remaining_down_kw": [float(v) for v in self.remaining_down_kw],
            "activated_volume_kwh": self.activated_volume_kwh,
        }


# ---------------------------------------------------------------------------
# Operator side


def initial_request(ecfix: DaySchedule, prices: Prices) -> FlexRequest:
    """Residual community exchanges of the non-flexible dispatch, as requests.

    Upward flexibility (consume more) is requested where the community still
    exports to the retailer; downward where it still imports.
    """
    steps = len(prices.import_price)
    up = np.zeros(steps)
    down = np.zeros(steps)
    for m in ecfix.members:
        up += m.export_retailer_kw
        down += m.import_retailer_kw
    up = np.where(up > REQUEST_DUST_KW, up, 0.0)
    down = np.where(down > REQUEST_DUST_KW, down, 0.0)
    return FlexRequest(up_kw=up, down_kw=down,
                       activation_price=billing.activation_price(prices))


def refine_bounds(offers: Sequence[CapacityOffer], request: FlexRequest,
                  key: str) -> list[ActivationBounds]:
    """Split the request over the offers, per step and direction independently."""
    key_fn = get_key(key)
    steps = len(request.up_kw)
    n = len(offers)
    up = np.zeros((n, steps))
    down = np.zeros((n, steps))
    for t in range(steps):
        up[:, t] = key_fn([o.up_kw[t] for o in offers], float(request.up_kw[t]))
        down[:, t] = key_fn([o.down_kw[t] for o in offers], float(request.down_kw[t]))
    return [ActivationBounds(member_id=o.member_id, up_kw=up[u], down_kw=down[u])
            for u, o in enumerate(offers)]


def settle_community(prices: Prices, dt_hours: float,
                     injections: Mapping[str, np.ndarray]) -> dict[str, dict[str, np.ndarray]]:
    """Cheapest retailer/community split of fixed net injections.

    Solves the exchange-matching problem with all device decisions frozen:
    community imports and exports must balance at every step, and every
    member's legs must add up to its injection.
    """
    steps = len(prices.import_price)
    p = LpProblem("settlement")
    ids = list(injections)
    idx = {(uid, tag): p.add_variables(f"{tag}.{uid}", steps)
           for uid in ids for tag in ("iret", "eret", "icom", "ecom")}
    for uid in ids:
        iret, eret, icom, ecom = (idx[(uid, tag)] for tag in ("iret", "eret", "icom", "ecom"))
        p.add_rows("=", np.asarray(injections[uid], dtype=np.float64),
                   [(eret, 1.0), (ecom, 1.0), (iret, -1.0), (icom, -1.0)])
        p.add_objective(iret, dt_hours * prices.import_price)
        p.add_objective(eret, -dt_hours * prices.export_price)
        p.add_objective(icom, dt_hours * prices.community_fee)
        p.add_objective(ecom, dt_hours * prices.community_fee)
    terms = []
    for uid in ids:
        terms += [(idx[(uid, "ecom")], 1.0), (idx[(uid, "icom")], -1.0)]
    p.add_rows("=", np.zeros(steps), terms)

    solution = solve_lp(p)
    if solution.status is not LpStatus.OPTIMAL:
        raise DecentralError(f"settlement failed: {solution.status.value} {solution.message}")
    x = solution.x
    return {uid: {tag: x[idx[(uid, tag)]] for tag in ("iret", "eret", "icom", "ecom")}
            for uid in ids}


# ---------------------------------------------------------------------------
# Member side


class MemberAgent:
    """One member's private optimizer inside the coordination loop.

    Holds the device parameters, the committed reference consumption (total
    controllable power) and the latest device dispatch realizing it.
    """

    def __init__(self, member: Member, refs: DeviceRefs, state: CarriedState,
                 dt_hours: float, base: MemberDaySchedule,
                 activation_price: np.ndarray):
        self.member = member
        self.refs = refs
        self.state = state
        self.dt = dt_hours
        self.price = np.asarray(activation_price, dtype=np.float64)
        self.revenue_eur = 0.0
        # working copy: commits replace array references, the base stays intact
        self.schedule = replace(base)
        self.refs_total = base.total_flexible_kw
        if self.has_flexibility:
            self._build()

    @property
    def has_flexibility(self) -> bool:
        return self.member.has_flexibility

    def _zero(self) -> np.ndarray:
        return np.zeros(len(self.member.fixed_load_kw))

    @staticmethod
    def _publish(values: np.ndarray) -> np.ndarray:
        """Clean a capacity vector for the wire: solver dust (tiny or slightly
        negative entries within the LP feasibility tolerance) must not reach
        the operator, whose keys treat any positive entry as a provider."""
        return np.where(values > REQUEST_DUST_KW, values, 0.0)

    def _build(self) -> None:
        """The day's revenue-maximizing shift around the committed reference.

        Device constraints stay exactly the planner's.  Upward and downward
        shifts match in daily energy; their per-step limits and the reference
        rows' right-hand side are the only data that change between solves.
        """
        m = self.member
        T = len(m.fixed_load_kw)
        p = self._lp = LpProblem("member")
        idx = self._idx = add_device_block(p, m, self.refs, self.state, self.dt, pinned=False)
        cap = p.add_variables(f"cap.{m.id}", 2 * T)  # per step: upward, downward
        self._capu, self._capd = cap[0::2], cap[1::2]

        # realized controllable power = committed reference + up - down
        self._ref_rows = p.add_rows(
            "=", self.refs_total, [(self._capu, -1.0), (self._capd, 1.0)]
            + [(idx[tag], sign) for tag, sign in FLEX_TAGS if tag in idx])
        # shifts conserve daily energy
        p.add_rows("=", 0.0, [(self._capu, 1.0, 0), (self._capd, -1.0, 0)])

        p.add_objective(self._capu, -self.dt * self.price)
        for tag in ("jev", "jwb", "jhp"):
            if tag in idx:
                p.add_objective(idx[tag], 1.0)

    def _solve(self, up_limit: np.ndarray, down_limit: np.ndarray) -> np.ndarray:
        """Optimal point of the subproblem under the given shift limits."""
        p = self._lp
        p.set_bounds(self._capu, 0.0, up_limit)
        p.set_bounds(self._capd, 0.0, down_limit)
        p.set_rhs(self._ref_rows, self.refs_total)
        solution = solve_lp(p)
        if solution.status is not LpStatus.OPTIMAL:
            raise DecentralError(
                f"member {self.member.id} subproblem {solution.status.value}: committed "
                f"references should always stay feasible ({solution.message})")
        return solution.x

    def offer(self, request: FlexRequest) -> CapacityOffer:
        """Best-response capacity offer against the community request."""
        if not self.has_flexibility:
            return CapacityOffer(self.member.id, self._zero(), self._zero())
        x = self._solve(request.up_kw, request.down_kw)
        return CapacityOffer(self.member.id, self._publish(x[self._capu]),
                             self._publish(x[self._capd]))

    def activate(self, bounds: ActivationBounds) -> Activation:
        """Re-solve under the refined bounds and commit the outcome."""
        if not self.has_flexibility:
            return Activation(self.member.id, self._zero(), self._zero())
        if float(np.max(bounds.up_kw, initial=0.0)) == 0.0 \
                and float(np.max(bounds.down_kw, initial=0.0)) == 0.0:
            # nothing allotted: keep the committed dispatch untouched
            return Activation(self.member.id, self._zero(), self._zero())
        x = self._solve(bounds.up_kw, bounds.down_kw)
        up = self._publish(x[self._capu])
        down = self._publish(x[self._capd])
        # commit: the realized dispatch becomes the new reference
        for tag, cols in self._idx.items():
            setattr(self.schedule, SERIES_FIELDS[tag], x[cols])
        self.refs_total = self.schedule.total_flexible_kw
        self.revenue_eur += float(self.dt * np.sum(self.price * up))
        return Activation(self.member.id, up, down)


# ---------------------------------------------------------------------------
# The coordination loop


def run_ecflexit(scenario: Scenario, day: int, key: str = "equal",
                 primed: bool = False, max_iterations: int = 100,
                 initial_states: Mapping[str, CarriedState] | None = None,
                 evaluation_order: Sequence[str] | None = None,
                 ) -> tuple[DaySchedule, list[IterationTrace]]:
    """Run the full decentralized coordination for one day.

    With ``primed``, members first re-optimize their references for
    individual self-consumption; the coordination then works on the residual.
    ``evaluation_order`` only schedules the member subproblem calls; any
    permutation produces identical results.
    """
    get_key(key)  # validate early
    day_s = scenario.for_day(day)
    dt = day_s.horizon.dt_hours
    states = dict(initial_states or {})

    refs = (prioritize_self_consumption(scenario, day, initial_states=states)
            if primed else default_refs(day_s))
    # members whose carried state no longer supports their planned profile
    # re-plan to the closest feasible reference before anything is netted
    refs = {
        m.id: repair_refs_for_state(m, refs[m.id], states.get(m.id, CarriedState()), dt)
        for m in day_s.members
    }
    ecfix = solve_centralized(scenario, day, PlannerMode.EC_FIX, refs=refs,
                              initial_states=states)
    request = initial_request(ecfix, day_s.prices)

    member_ids = [m.id for m in day_s.members]
    order = list(evaluation_order) if evaluation_order is not None else list(member_ids)
    if sorted(order) != sorted(member_ids):
        raise DecentralError("evaluation_order must be a permutation of the member ids")

    agents = {
        m.id: MemberAgent(m, refs[m.id], states.get(m.id, CarriedState()), dt,
                          ecfix.member(m.id), request.activation_price)
        for m in day_s.members
    }

    traces: list[IterationTrace] = []
    iteration = 0
    while True:
        up_open = bool(np.any(request.up_kw * dt > EPSILON_KWH))
        down_open = bool(np.any(request.down_kw * dt > EPSILON_KWH))
        if not (up_open and down_open):
            break
        if iteration >= max_iterations:
            raise IterationLimitError(day, traces)
        iteration += 1

        offers_by = {uid: agents[uid].offer(request) for uid in order}
        offers = [offers_by[uid] for uid in member_ids]
        bounds = refine_bounds(offers, request, key)
        bounds_by = {b.member_id: b for b in bounds}
        acts_by = {uid: agents[uid].activate(bounds_by[uid]) for uid in order}
        activations = [acts_by[uid] for uid in member_ids]

        up_total = np.zeros(len(request.up_kw))
        down_total = np.zeros(len(request.down_kw))
        for act in activations:
            up_total = up_total + act.up_kw
            down_total = down_total + act.down_kw
        request = FlexRequest(
            up_kw=np.maximum(0.0, request.up_kw - up_total),
            down_kw=np.maximum(0.0, request.down_kw - down_total),
            activation_price=request.activation_price,
        )
        delta_kwh = float(dt * (np.sum(up_total) + np.sum(down_total)))
        traces.append(IterationTrace(
            day=day, iteration=iteration, offers=offers, bounds=bounds,
            activations=activations,
            remaining_up_kw=np.array(request.up_kw),
            remaining_down_kw=np.array(request.down_kw),
            activated_volume_kwh=delta_kwh,
        ))
        if delta_kwh <= EPSILON_KWH:
            break

    schedule = _assemble(day_s, day, agents, member_ids,
                         "ECFlexItPrimed" if primed else "ECFlexIt")
    return schedule, traces


def _assemble(day_s: Scenario, day: int, agents: Mapping[str, MemberAgent],
              member_ids: Sequence[str], mode: str) -> DaySchedule:
    """Final settlement: freeze member dispatches, re-net community exchanges."""
    dt = day_s.horizon.dt_hours
    injections = {}
    for uid in member_ids:
        m = day_s.member(uid)
        injections[uid] = np.asarray(m.pv_max_kw) - np.asarray(m.fixed_load_kw) \
            - agents[uid].refs_total
    exchanges = settle_community(day_s.prices, dt, injections)

    members = []
    total_disc = 0.0
    for uid in member_ids:
        m = day_s.member(uid)
        agent = agents[uid]
        ex = exchanges[uid]
        # the committed dispatch with settled exchanges; no day LP priced it
        sched = replace(
            agent.schedule, import_retailer_kw=ex["iret"], export_retailer_kw=ex["eret"],
            import_community_kw=ex["icom"], export_community_kw=ex["ecom"],
            injection_kw=injections[uid], pv_kw=np.array(m.pv_max_kw), lp_bill_eur=0.0,
            flex_revenue_eur=agent.revenue_eur)
        sched.bill = billing.compute_bill(
            uid, sched.import_retailer_kw, sched.export_retailer_kw,
            sched.import_community_kw, sched.export_community_kw, day_s.prices, dt)
        sched.discomfort_total_eur = discomfort_eur(sched)
        total_disc += sched.discomfort_total_eur
        members.append(sched)

    bill_total = sum(m.bill.total_eur for m in members)
    return DaySchedule(
        mode=mode,
        day=day,
        dt_hours=dt,
        members=members,
        objective_value=bill_total + total_disc,
        community_bill_eur=bill_total,
        community_discomfort_eur=total_disc,
    )


def run_ecflexit_over_days(scenario: Scenario, key: str = "equal",
                           primed: bool = False, num_days: int | None = None,
                           max_iterations: int = 100,
                           evaluation_order: Sequence[str] | None = None,
                           ) -> tuple[list[DaySchedule], list[IterationTrace]]:
    """Sequential multi-day coordination with device-state carry-over."""
    days = scenario.horizon.num_days if num_days is None else num_days
    schedules: list[DaySchedule] = []
    traces: list[IterationTrace] = []
    carried: dict[str, CarriedState] = {}
    for day in range(days):
        sched, day_traces = run_ecflexit(
            scenario, day, key=key, primed=primed, max_iterations=max_iterations,
            initial_states=carried, evaluation_order=evaluation_order)
        schedules.append(sched)
        traces.extend(day_traces)
        carried = final_states(sched)
    return schedules, traces
