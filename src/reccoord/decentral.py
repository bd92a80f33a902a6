"""Iterative decentralized flexibility coordination.

The community operator derives upward/downward flexibility requests from the
non-flexible community dispatch, then loops: members independently offer
shiftable capacity against the request and the activation reward; the
operator splits the request over the offers with a repartition key; members
re-solve against their individual activation bounds and commit the result,
which becomes their new reference consumption.  The loop ends when the
residual request or the activated volume vanishes.  The operator's broadcast
is a :class:`FlexRequest`, which carries the activation reward; a member's
offer, its allotted bounds and its activation are each a :class:`Shift`, one
member's upward and downward power per step.

Member-side optimization sees private device parameters; the operator-side
functions (:func:`initial_request`, :func:`refine_bounds`,
:func:`settle_community`) consume only offers, activations, aggregate
requests and net injections.  The final settlement shares each step's
matched volume pro rata over exporters and over importers, the same closed
form that gives the centralized planners' legs.  Running members in any order
yields identical results: within an iteration every subproblem depends only
on the shared request and the member's own committed state, and all
aggregation happens in canonical member order.

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
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import billing
from .billing import settle_community  # the operator-side settlement
from .central import (CarriedState, DaySchedule, DeviceRefs, DISCOMFORT_TAGS, FLEX_TAGS,
                      MemberDaySchedule, PlannerMode, SolvedDay, add_device_block,
                      prioritize_self_consumption, repair_refs_for_state, settle_day,
                      solve_centralized)
from .kor import get_key
from .lpcore import LpProblem, LpStatus, run_ahead, solve_lp
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
    """The coordination loop did not terminate within the iteration cap; the
    message leaves the day out."""

    def __init__(self, traces: list["IterationTrace"]):
        self.traces = traces
        super().__init__(f"iteration cap exceeded after {len(traces)} iterations")


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
class Shift:
    """One member's upward and downward power per step: what it offers, the
    bounds the operator allots it (never above the offer) and the shift it
    commits within them."""

    member_id: str
    up_kw: np.ndarray
    down_kw: np.ndarray

    @property
    def empty(self) -> bool:
        """Nothing in either direction; as bounds, the member keeps its dispatch."""
        return (float(np.max(self.up_kw, initial=0.0)) == 0.0
                and float(np.max(self.down_kw, initial=0.0)) == 0.0)


@dataclass
class IterationTrace:
    """Bookkeeping of one coordination round (canonical member order)."""

    day: int
    iteration: int
    offers: list[Shift]
    bounds: list[Shift]
    activations: list[Shift]
    remaining_up_kw: np.ndarray
    remaining_down_kw: np.ndarray
    activated_volume_kwh: float

    def to_dict(self) -> dict:
        def floats(values) -> list[float]:
            return np.asarray(values, dtype=np.float64).tolist()

        def vectors(items) -> dict:
            return {it.member_id: {"up": floats(it.up_kw), "down": floats(it.down_kw)}
                    for it in items}

        return {
            "day": self.day,
            "iteration": self.iteration,
            "offers": vectors(self.offers),
            "bounds": vectors(self.bounds),
            "activations": vectors(self.activations),
            "remaining_up_kw": floats(self.remaining_up_kw),
            "remaining_down_kw": floats(self.remaining_down_kw),
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
        up += m.series["eret"]
        down += m.series["iret"]
    up = np.where(up > REQUEST_DUST_KW, up, 0.0)
    down = np.where(down > REQUEST_DUST_KW, down, 0.0)
    return FlexRequest(up_kw=up, down_kw=down,
                       activation_price=billing.activation_price(prices))


def refine_bounds(offers: Sequence[Shift], request: FlexRequest, key: str) -> list[Shift]:
    """Split the request over the offers, per step and direction independently."""
    key_fn = get_key(key)
    shape = (len(offers), len(request.up_kw))
    up = key_fn(np.array([o.up_kw for o in offers]).reshape(shape), request.up_kw)
    down = key_fn(np.array([o.down_kw for o in offers]).reshape(shape), request.down_kw)
    return [Shift(member_id=o.member_id, up_kw=up[u], down_kw=down[u])
            for u, o in enumerate(offers)]


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
        if member.has_flexibility:
            self._build()

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

    def offer(self, request: FlexRequest) -> Shift:
        """Best-response capacity offer against the community request."""
        if not self.member.has_flexibility:
            return Shift(self.member.id, self._zero(), self._zero())
        x = self._solve(request.up_kw, request.down_kw)
        return Shift(self.member.id, self._publish(x[self._capu]), self._publish(x[self._capd]))

    def activate(self, bounds: Shift) -> Shift:
        """Re-solve under the refined bounds and commit the outcome."""
        if not self.member.has_flexibility or bounds.empty:  # keep the committed dispatch
            return Shift(self.member.id, self._zero(), self._zero())
        x = self._solve(bounds.up_kw, bounds.down_kw)
        up = self._publish(x[self._capu])
        down = self._publish(x[self._capd])
        # commit: the realized dispatch becomes the new reference
        self.schedule.series.update({tag: x[cols] for tag, cols in self._idx.items()})
        self.refs_total = self.schedule.total_flexible_kw
        self.revenue_eur += float(self.dt * np.sum(self.price * up))
        return Shift(self.member.id, up, down)


# ---------------------------------------------------------------------------
# The coordination loop


def run_ecflexit(solved: SolvedDay, key: str = "equal",
                 primed: bool = False, max_iterations: int = 100,
                 initial_states: Mapping[str, CarriedState] | None = None,
                 evaluation_order: Sequence[str] | None = None,
                 ) -> tuple[DaySchedule, list[IterationTrace]]:
    """Run the full decentralized coordination for the day of ``solved``.

    With ``primed``, members first re-optimize their references for
    individual self-consumption; the coordination then works on the residual.
    ``evaluation_order`` only schedules the member subproblem calls; any
    permutation produces identical results.  The centralized solves (the
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
    request = initial_request(ecfix, day_s.prices)

    member_ids = [m.id for m in day_s.members]
    order = list(evaluation_order) if evaluation_order is not None else list(member_ids)
    if sorted(order) != sorted(member_ids):
        raise DecentralError("evaluation_order must be a permutation of the member ids")

    agents = {
        m.id: MemberAgent(m, refs[m.id], states.get(m.id, {}), dt,
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
            raise IterationLimitError(traces)
        iteration += 1

        # each phase's member LPs run concurrently first; the loops read them
        run_ahead([agents[uid].stage(request.up_kw, request.down_kw)
                   for uid in order if agents[uid].member.has_flexibility], warm=True)
        offers_by = {uid: agents[uid].offer(request) for uid in order}
        offers = [offers_by[uid] for uid in member_ids]
        bounds = refine_bounds(offers, request, key)
        bounds_by = {b.member_id: b for b in bounds}
        run_ahead([agents[uid].stage(bounds_by[uid].up_kw, bounds_by[uid].down_kw)
                   for uid in order
                   if agents[uid].member.has_flexibility and not bounds_by[uid].empty],
                  warm=True)
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
