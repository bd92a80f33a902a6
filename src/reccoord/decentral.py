"""Iterative decentralized flexibility coordination.

The community operator derives upward/downward flexibility requests from the
non-flexible community dispatch, then loops: members independently offer
shiftable capacity against the request and the activation reward; the
operator splits the request over the offers with a repartition key; members
re-solve against their individual activation bounds and commit the result,
which becomes their new reference consumption.  The loop ends when the
residual request or the activated volume vanishes.  Every vector the
protocol exchanges is a :class:`Shift`, upward and downward power per step:
the operator's open request, and each member's offer, allotted bounds and
activation.  A round's per-member shifts are dicts keyed by member id, in
scenario member order.  The activation reward is fixed for the day and handed
to each member once.

Member-side optimization sees private device parameters; the operator-side
functions (:func:`initial_request`, :func:`refine_bounds`,
:func:`settle_community`) consume only offers, activations, aggregate
requests and net injections.  The final settlement shares each step's
matched volume pro rata over exporters and over importers, the same closed
form that gives the centralized planners' legs.  Solving the members' LPs of
a phase in any order yields identical results: within an iteration every
subproblem depends only on the shared request and the member's own committed
state, and all aggregation happens in scenario member order.  The order of
the members in the scenario is another matter: it moves the decentralized
community bills and the per-member bills, because where several dispatches
are equally cheap, which one HiGHS returns depends on it (the README's
caveat).

:func:`run_ecflexit` works on one :class:`~reccoord.central.SolvedDay` and
takes the priming and the ECFix start from the schedules it holds, if any.

That independence lets the member HiGHS solves of each phase (offers, then
activations) run concurrently, on the calling thread and one helper thread
when the process may use two or more CPUs (its affinity), through
:func:`reccoord.lpcore.run_ahead`.  Only HiGHS leaves the calling thread;
every Python step of the loop stays on it, and the results are bit-identical
on any number of cores.  There is no option for it.

Each member re-solves its subproblem warm, from the basis of its own previous
run of the day (``solve_lp(..., warm=True)``); its first run of the day has
no basis yet and is cold.  Agents and their HiGHS models are built per call
of :func:`run_ecflexit` and no basis is checkpointed, so a recomputed or
resumed day replays the same chain.  Where several responses are equally
good, the warm run can end on another of them than a cold solve would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from . import billing
from .billing import settle_community  # the operator-side settlement
from .central import (CarriedState, DaySchedule, DeviceRefs, DISCOMFORT_TAGS, FLEX_TAGS,
                      MemberDaySchedule, PlannerMode, SolvedDay, add_device_block,
                      prioritize_self_consumption, repair_refs_for_state, settle_day,
                      solve_centralized)
from .kor import get_key
from .lpcore import LpProblem, LpStatus, run_ahead, solve_lp
from .scenario import Member, Scenario

#: Termination threshold: request entries and activated volumes below this
#: many kWh count as zero.
EPSILON_KWH = 1e-6

#: Request and offer entries below this many kW are flushed to zero, so solver
#: dust cannot leave both directions nominally "open" at one step.
REQUEST_DUST_KW = 1e-9

#: Rounds a coordination may run before it fails with
#: :class:`IterationLimitError`.
MAX_ITERATIONS = 100


class DecentralError(Exception):
    """Coordination failure (corrupted references, member infeasibility)."""


class IterationLimitError(DecentralError):
    """The coordination loop did not terminate within the iteration cap; the
    message leaves the day out."""

    def __init__(self, traces: list["IterationTrace"]):
        self.traces = traces
        super().__init__(f"iteration cap exceeded after {len(traces)} iterations")


@dataclass(frozen=True)
class Shift:
    """Upward and downward power per step: the operator's open request, and a
    member's offer, the bounds the operator allots it (never above the offer)
    and the shift it commits within them."""

    up_kw: np.ndarray
    down_kw: np.ndarray

    @property
    def empty(self) -> bool:
        """Nothing in either direction; as bounds, the member keeps its dispatch."""
        return (float(np.max(self.up_kw, initial=0.0)) == 0.0
                and float(np.max(self.down_kw, initial=0.0)) == 0.0)


@dataclass
class IterationTrace:
    """Bookkeeping of one coordination round: the members' shifts keyed by
    member id in scenario member order, and the request left open after it."""

    day: int
    iteration: int
    offers: dict[str, Shift]
    bounds: dict[str, Shift]
    activations: dict[str, Shift]
    remaining: Shift
    activated_volume_kwh: float

    def to_dict(self) -> dict:
        def floats(values) -> list[float]:
            return np.asarray(values, dtype=np.float64).tolist()

        def vectors(shifts: dict[str, Shift]) -> dict:
            return {uid: {"up": floats(s.up_kw), "down": floats(s.down_kw)}
                    for uid, s in shifts.items()}

        return {
            "day": self.day,
            "iteration": self.iteration,
            "offers": vectors(self.offers),
            "bounds": vectors(self.bounds),
            "activations": vectors(self.activations),
            "remaining_up_kw": floats(self.remaining.up_kw),
            "remaining_down_kw": floats(self.remaining.down_kw),
            "activated_volume_kwh": self.activated_volume_kwh,
        }


# ---------------------------------------------------------------------------
# Operator side


def _clean(values: np.ndarray) -> np.ndarray:
    """A power vector for the wire: solver dust (tiny or slightly negative
    entries within the LP feasibility tolerance) is flushed to zero, so it
    neither leaves both directions nominally "open" at one step nor counts as
    a provider under a repartition key."""
    return np.where(values > REQUEST_DUST_KW, values, 0.0)


def initial_request(ecfix: DaySchedule) -> Shift:
    """Residual community exchanges of the non-flexible dispatch, as requests.

    Upward flexibility (consume more) is requested where the community still
    exports to the retailer; downward where it still imports.  The members'
    exchanges are summed in member order.
    """
    def total(tag: str) -> np.ndarray:
        return _clean(sum((m.series[tag] for m in ecfix.members), 0.0))

    return Shift(total("eret"), total("iret"))


def refine_bounds(offers: Mapping[str, Shift], request: Shift, key: str) -> dict[str, Shift]:
    """Split the request over the offers, per step and direction independently;
    the bounds come keyed as the offers, in their order."""
    key_fn = get_key(key)
    shape = (len(offers), len(request.up_kw))
    up = key_fn(np.array([o.up_kw for o in offers.values()]).reshape(shape), request.up_kw)
    down = key_fn(np.array([o.down_kw for o in offers.values()]).reshape(shape),
                  request.down_kw)
    return {uid: Shift(up[u], down[u]) for u, uid in enumerate(offers)}


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
        # working copy: commits replace series in its own table, the base stays intact
        self.schedule = replace(base, series=dict(base.series))
        self.refs_total = base.total_flexible_kw
        steps = len(member.fixed_load_kw)
        self._idle = Shift(np.zeros(steps), np.zeros(steps))
        if member.has_flexibility:
            self._build()

    def _build(self) -> None:
        """The day's revenue-maximizing shift around the committed reference.

        Device constraints stay exactly the planner's.  Upward and downward
        shifts match in daily energy; their per-step limits and the reference
        rows' right-hand side are the only data that change between solves.
        """
        m = self.member
        T = len(m.fixed_load_kw)
        p = self._lp = LpProblem(f"member {m.id}")
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
        for tag in DISCOMFORT_TAGS:
            if tag in idx:
                p.add_objective(idx[tag], 1.0)

    def stage(self, up_limit: np.ndarray, down_limit: np.ndarray) -> LpProblem:
        """The subproblem set up for the given shift limits, not yet solved."""
        p = self._lp
        p.set_bounds(self._capu, 0.0, up_limit)
        p.set_bounds(self._capd, 0.0, down_limit)
        p.set_rhs(self._ref_rows, self.refs_total)
        return p

    def _solve(self, up_limit: np.ndarray, down_limit: np.ndarray) -> np.ndarray:
        """Optimal point of the subproblem under the given shift limits,
        re-solved warm from the member's previous run."""
        solution = solve_lp(self.stage(up_limit, down_limit), warm=True)
        if solution.status is not LpStatus.OPTIMAL:
            raise DecentralError(
                f"member {self.member.id} subproblem {solution.status.value}: committed "
                f"references should always stay feasible ({solution.message})")
        return solution.x

    def offer(self, request: Shift) -> Shift:
        """Best-response capacity offer against the community request."""
        if not self.member.has_flexibility:
            return self._idle
        x = self._solve(request.up_kw, request.down_kw)
        return Shift(_clean(x[self._capu]), _clean(x[self._capd]))

    def activate(self, bounds: Shift) -> Shift:
        """Re-solve under the refined bounds and commit the outcome."""
        if not self.member.has_flexibility or bounds.empty:  # keep the committed dispatch
            return self._idle
        x = self._solve(bounds.up_kw, bounds.down_kw)
        up = _clean(x[self._capu])
        down = _clean(x[self._capd])
        # commit: the realized dispatch becomes the new reference
        self.schedule.series.update({tag: x[cols] for tag, cols in self._idx.items()})
        self.refs_total = self.schedule.total_flexible_kw
        self.revenue_eur += float(self.dt * np.sum(self.price * up))
        return Shift(up, down)


# ---------------------------------------------------------------------------
# The coordination loop


def run_ecflexit(solved: SolvedDay, key: str = "equal", primed: bool = False,
                 initial_states: Mapping[str, CarriedState] | None = None,
                 ) -> tuple[DaySchedule, list[IterationTrace]]:
    """Run the full decentralized coordination for the day of ``solved``.

    With ``primed``, members first re-optimize their references for
    individual self-consumption; the coordination then works on the residual.
    The centralized solves (the
    priming and the ECFix start) go through ``solved``; the schedules it
    hands back are only read.
    """
    get_key(key)  # validate early
    day_s, day = solved.scenario, solved.day
    dt = day_s.horizon.dt_hours
    states = dict(initial_states or {})

    refs = (prioritize_self_consumption(solved, initial_states=states)
            if primed else solved.defaults)
    # members whose carried state no longer supports their planned profile
    # re-plan to the closest feasible reference before anything is netted
    refs = {
        m.id: repair_refs_for_state(m, refs[m.id], states.get(m.id, {}), dt)
        for m in day_s.members
    }
    ecfix = solve_centralized(solved, PlannerMode.EC_FIX, refs=refs, initial_states=states)
    request = initial_request(ecfix)

    price = billing.activation_price(day_s.prices)
    agents = {
        m.id: MemberAgent(m, refs[m.id], states.get(m.id, {}), dt, ecfix.member(m.id), price)
        for m in day_s.members
    }

    traces: list[IterationTrace] = []
    iteration = 0
    while True:
        up_open = bool(np.any(request.up_kw * dt > EPSILON_KWH))
        down_open = bool(np.any(request.down_kw * dt > EPSILON_KWH))
        if not (up_open and down_open):
            break
        if iteration >= MAX_ITERATIONS:
            raise IterationLimitError(traces)
        iteration += 1

        # each phase's member LPs run concurrently first; the loops read them
        run_ahead([agent.stage(request.up_kw, request.down_kw)
                   for agent in agents.values() if agent.member.has_flexibility], warm=True)
        offers = {uid: agent.offer(request) for uid, agent in agents.items()}
        bounds = refine_bounds(offers, request, key)
        run_ahead([agent.stage(bounds[uid].up_kw, bounds[uid].down_kw)
                   for uid, agent in agents.items()
                   if agent.member.has_flexibility and not bounds[uid].empty], warm=True)
        activations = {uid: agent.activate(bounds[uid]) for uid, agent in agents.items()}

        # summed in member order
        up_total = sum((act.up_kw for act in activations.values()), 0.0)
        down_total = sum((act.down_kw for act in activations.values()), 0.0)
        request = Shift(np.maximum(0.0, request.up_kw - up_total),
                        np.maximum(0.0, request.down_kw - down_total))
        delta_kwh = float(dt * (np.sum(up_total) + np.sum(down_total)))
        traces.append(IterationTrace(day, iteration, offers, bounds, activations,
                                     remaining=request, activated_volume_kwh=delta_kwh))
        if delta_kwh <= EPSILON_KWH:
            break

    schedule = _assemble(day_s, day, agents.values(), "ECFlexItPrimed" if primed else "ECFlexIt")
    return schedule, traces


def _assemble(day_s: Scenario, day: int, agents: Iterable[MemberAgent], mode: str) -> DaySchedule:
    """Final settlement: freeze member dispatches, re-net community exchanges.
    ``agents`` come in scenario member order."""
    members = []
    for agent in agents:
        m = agent.member
        # the committed dispatch, settled afresh; no day LP priced it
        series = {**agent.schedule.series, "ppv": np.array(m.pv_max_kw),
                  "pinj": m.pv_max_kw - m.fixed_load_kw - agent.refs_total}
        members.append(replace(agent.schedule, series=series,
                               flex_revenue_eur=agent.revenue_eur))
    return settle_day(day_s, mode, day, members)
