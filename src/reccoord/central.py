"""Centralized day-ahead planners for the community.

Four modes share one LP: the full community-coordinated flexible problem,
and three benchmark variants obtained by adding constraints:

* ``SoloFix``  - no community exchange, flexible loads pinned to reference;
* ``SoloFlex`` - no community exchange, flexible loads free;
* ``ECFix``    - community exchange allowed, flexible loads pinned;
* ``ECFlex``   - community exchange allowed, flexible loads free.

Each member only has nonnegative export and import columns tied to its
devices by one balance row per step.  Community exchanges are three columns
per step under two aggregate rows, ``sum(exports) = com + eret`` and
``sum(imports) = com + iret``, priced ``dt * (import * iret - export * eret +
2 * fee * com)``; ``com`` is fixed at 0 in the solo modes.  Because import
exceeds export plus twice the fee, the optimum matches
``min(sum(exports), sum(imports))``, so each member's retailer and community
legs follow in closed form from its net injection
(:func:`reccoord.billing.settle_community`) instead of from the LP vertex.

Batteries are always dispatchable.  PV production is data: each member's
balance row carries it on its right-hand side.  Multi-day runs solve day
problems sequentially: vehicle and thermal states carry over, batteries
re-anchor to their initial state each day because the day problem forces
end-of-day recovery.

ECFlex is solved in two phases on its own model: first with the device
powers pinned to the references (the ECFix LP), then relaxed and re-run
warm from that basis (:meth:`_DayModel.solve`).

Every solve works on a :class:`SolvedDay`, one day sliced once with the
schedules solved on it: each is solved once per mode, reference powers and
carried states, and handed to every later solve asking for the same.
ECFlex's pinned phase also gives ECFix's schedule when both modes start from
the same references and carried states, as on the first day.  A fresh
:class:`SolvedDay` shares nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from . import billing
from .devices import DEVICES, simulate_bss
from .lpcore import TOL_OPT, LpProblem, LpSolution, LpStatus, solve_lp
from .scenario import Member, Scenario


class PlannerMode(Enum):
    SOLO_FIX = "SoloFix"
    SOLO_FLEX = "SoloFlex"
    EC_FIX = "ECFix"
    EC_FLEX = "ECFlex"

    @property
    def community_allowed(self) -> bool:
        return self in (PlannerMode.EC_FIX, PlannerMode.EC_FLEX)

    @property
    def flexibility_pinned(self) -> bool:
        return self in (PlannerMode.SOLO_FIX, PlannerMode.EC_FIX)


class PlannerError(Exception):
    """Base class for planner failures."""


class DayLpError(PlannerError):
    """A day LP without an optimal solution.  The message names the planner
    ``mode``; ``reason`` is the message without it."""

    def __init__(self, mode: str, reason: str):
        self.mode = mode
        self.reason = reason
        super().__init__(f"{mode} {reason}")


class InfeasibleDayError(DayLpError):
    def __init__(self, mode: str, message: str = ""):
        super().__init__(mode, "infeasible" + (f": {message}" if message else ""))


class SolverFailureError(DayLpError):
    def __init__(self, mode: str, message: str):
        super().__init__(mode, f"solver failure: {message}")


#: One member's reference power profiles over one day, by device slot
#: (:attr:`~reccoord.devices.DeviceSpec.name`), for the devices it owns.
DeviceRefs = dict[str, np.ndarray]

FlexRefs = dict[str, DeviceRefs]

#: One member's initial device states for a day (EV SoC, temperatures),
#: carried over, by device slot; a device without an entry starts from its
#: scenario state.
CarriedState = dict[str, float]


def refs_of_powers(series: Mapping[str, np.ndarray]) -> DeviceRefs:
    """References equal to the device powers of a series table."""
    return {spec.name: series[spec.power] for spec in DEVICES if spec.power in series}


@dataclass
class MemberDaySchedule:
    """One member's optimized day: per-step series, references, money.

    ``series`` maps tags to per-step arrays and holds only what the member
    has: the net injection ``pinj``, PV production ``ppv``, the device series
    of :func:`add_device_block` and, once :func:`settle_day` has run, the
    retailer and community legs ``iret``, ``eret``, ``icom`` and ``ecom``
    (:data:`SERIES` names every tag), with ``bill_eur`` priced from them.
    """

    member_id: str
    series: dict[str, np.ndarray]
    refs: DeviceRefs = field(default_factory=dict)
    bill_eur: float | None = None
    flex_revenue_eur: float = 0.0

    @property
    def discomfort_total_eur(self) -> float:
        """The member's discomfort cost over the day's devices: the sum of its
        discomfort series, in :data:`DISCOMFORT_TAGS` order."""
        return sum((float(np.sum(self.series[tag])) for tag in DISCOMFORT_TAGS
                    if tag in self.series), 0.0)

    @property
    def total_flexible_kw(self) -> np.ndarray:
        """Controllable power: flexible devices plus battery charge minus discharge."""
        out = np.zeros_like(self.series["pinj"])
        for tag, sign in FLEX_TAGS:
            if tag in self.series:
                out = out + sign * self.series[tag]
        return out


#: Every member series tag and its variable in ``schedules.csv``.
SERIES = {
    "iret": "import_retailer_kw", "eret": "export_retailer_kw",
    "icom": "import_community_kw", "ecom": "export_community_kw",
    "pinj": "injection_kw", "ppv": "pv_kw",
    "pcha": "bss_charge_kw", "pdis": "bss_discharge_kw", "socb": "bss_soc",
    **{tag: variable for spec in DEVICES for tag, variable in (
        (spec.power, f"{spec.name}_power_kw"), (spec.state, spec.state_column),
        (spec.discomfort, f"{spec.name}_discomfort_eur"))},
}


@dataclass
class DaySchedule:
    """Community-wide result of one day under one mode; its bill and
    discomfort are its members', summed in member order."""

    mode: str
    day: int
    dt_hours: float
    members: list[MemberDaySchedule]
    objective_value: float

    @property
    def community_bill_eur(self) -> float:
        return sum(m.bill_eur for m in self.members)

    @property
    def community_discomfort_eur(self) -> float:
        return sum(m.discomfort_total_eur for m in self.members)

    def member(self, member_id: str) -> MemberDaySchedule:
        for m in self.members:
            if m.member_id == member_id:
                return m
        raise KeyError(member_id)


def default_refs(day_scenario: Scenario) -> FlexRefs:
    """Reference powers straight from the scenario's device profiles."""
    return {m.id: {spec.name: np.array(device.power_ref_kw) for spec in DEVICES
                   if (device := getattr(m, spec.name)) is not None}
            for m in day_scenario.members}


def _check_refs(refs: FlexRefs, day_scenario: Scenario) -> None:
    steps = day_scenario.horizon.steps_per_day
    for m in day_scenario.members:
        r = refs.get(m.id)
        if r is None:
            raise PlannerError(f"missing reference profiles for member {m.id}")
        owned = [spec.name for spec in DEVICES if getattr(m, spec.name) is not None]
        extra = sorted(set(r) - set(owned))
        if extra:
            raise PlannerError(f"member {m.id}: reference profiles for devices it does "
                               f"not own: {extra}")
        for name in owned:
            series = r.get(name)
            if series is None:
                raise PlannerError(f"member {m.id}: missing {name} reference profile")
            if len(series) != steps:
                raise PlannerError(f"member {m.id}: {name} reference length "
                                   f"{len(series)} != {steps}")


def add_device_block(p: LpProblem, m: Member, refs: DeviceRefs, state: CarriedState,
                     dt: float, pinned: bool = False) -> dict[str, np.ndarray]:
    """Add one member's battery and flexible-device variables and rows.

    Covers power/state bounds, state recurrences, end-of-day battery
    recovery, daily energy conservation against the references, and the
    discomfort epigraph rows.  Each flexible device's part is built from its
    :data:`~reccoord.devices.DEVICES` entry.  Returns column indexes per
    series tag.  The same block backs both the community planners and the
    per-member subproblems of the iterative coordination, so their physics
    cannot drift apart.
    """
    T = len(m.fixed_load_kw)
    idx: dict[str, np.ndarray] = {}
    after = np.arange(1, T)  # rows with a predecessor step

    def grid(tag: str, lb, ub) -> np.ndarray:
        idx[tag] = p.add_variables(f"{tag}.{m.id}", T, lb, ub)
        return idx[tag]

    if m.bss is not None:
        bss = m.bss
        pcha = grid("pcha", 0.0, bss.max_power_kw)
        pdis = grid("pdis", 0.0, bss.max_power_kw)
        soc = grid("socb", bss.soc_min, bss.soc_max)
        rhs = np.zeros(T)
        rhs[0] = bss.soc_init
        p.add_rows("=", rhs, [(soc, 1.0), (pcha, -dt * bss.efficiency / bss.capacity_kwh),
                              (pdis, dt / (bss.efficiency * bss.capacity_kwh)),
                              (soc[:-1], -1.0, after)])
        # end-of-day recovery of the initial level
        p.add_rows("=", bss.soc_init, [(soc[T - 1], 1.0)])

    for spec in DEVICES:
        device = getattr(m, spec.name)
        if device is None:
            continue
        ref = refs[spec.name]
        power = grid(spec.power, *((ref, ref) if pinned else (0.0, spec.max_power(device))))
        # states stay nonnegative; a hard floor may bind at some steps only
        floor = 0.0 if spec.floor is None else np.maximum(0.0, spec.floor(device))
        level = grid(spec.state, floor, np.inf if spec.ceiling is None else spec.ceiling(device))
        discomfort = grid(spec.discomfort, 0.0, np.inf)
        gain, keep, drift = spec.recurrence(device, dt)
        keep = np.broadcast_to(keep, T)
        start = state.get(spec.name)
        rhs = np.array(drift)
        rhs[0] += keep[0] * (getattr(device, spec.initial) if start is None else start)
        p.add_rows("=", rhs, [(level, 1.0), (power, -gain), (level[:-1], -keep[1:], after)])
        # daily energy equal to the reference's
        p.add_rows("=", float(np.sum(ref)), [(power, 1.0, 0)])
        # discomfort >= reluctance * (target - state)
        reluctance = device.reluctance_eur
        p.add_rows(">=", reluctance * spec.target(device),
                   [(discomfort, 1.0), (level, reluctance)])

    return idx


#: Series tags whose variables enter the member's controllable power, with sign.
FLEX_TAGS = tuple((spec.power, 1.0) for spec in DEVICES) + (("pcha", 1.0), ("pdis", -1.0))

#: Discomfort series tags.
DISCOMFORT_TAGS = tuple(spec.discomfort for spec in DEVICES)


class _DayModel:
    """LP for one day; keeps variable indexes so solutions map back to arrays."""

    def __init__(self, solved: SolvedDay, mode: PlannerMode, refs: FlexRefs | None,
                 initial_states: Mapping[str, CarriedState] | None):
        self.scenario = s = solved.scenario
        self.day = solved.day
        self.mode = mode
        self.refs = solved.defaults if refs is None else refs
        _check_refs(self.refs, s)
        self.initial_states = initial_states or {}
        self.problem = LpProblem("day")
        self.idx: dict[str, dict[str, np.ndarray]] = {}  # member id -> tag -> columns
        self._power: list[tuple[np.ndarray, np.ndarray]] = []  # device columns, reference
        self.pinned: LpSolution | None = None  # ECFlex's pinned phase, once solved
        self._build()

    def _build(self) -> None:
        s = self.scenario
        T = s.horizon.steps_per_day
        dt = s.horizon.dt_hours
        p = self.problem

        for m in s.members:
            uid = m.id
            state = self.initial_states.get(uid, {})
            idx = self.idx[uid] = {tag: p.add_variables(f"{tag}.{uid}", T)
                                   for tag in ("pexp", "pimp")}

            block = add_device_block(p, m, self.refs[uid], state, dt,
                                     pinned=self.mode.flexibility_pinned)
            idx.update(block)
            self._power += [(block[spec.power], self.refs[uid][spec.name])
                            for spec in DEVICES if spec.power in block]

            # per step, the physical balance at the point of common coupling
            terms = [(idx["pexp"], 1.0), (idx["pimp"], -1.0)]
            terms += [(block[tag], sign) for tag, sign in FLEX_TAGS if tag in block]
            p.add_rows("=", m.pv_max_kw - m.fixed_load_kw, terms)

            for tag in DISCOMFORT_TAGS:
                if tag in block:
                    p.add_objective(block[tag], 1.0)

        # community exchanges: exports and imports of all members, matched
        # internally up to the community volume, the rest with the retailer
        eret = p.add_variables("eret", T)
        iret = p.add_variables("iret", T)
        com = p.add_variables("com", T, 0.0, np.inf if self.mode.community_allowed else 0.0)
        for tag, retailer in (("pexp", eret), ("pimp", iret)):
            p.add_rows("=", np.zeros(T), [(self.idx[m.id][tag], 1.0) for m in s.members]
                       + [(com, -1.0), (retailer, -1.0)])
        p.add_objective(iret, dt * s.prices.import_price)
        p.add_objective(eret, -dt * s.prices.export_price)
        p.add_objective(com, 2.0 * dt * s.prices.community_fee)

    def solve(self) -> LpSolution:
        """The day's LP solved; ECFlex from its own pinned basis.

        ECFlex first solves its model with every device power bound to its
        reference, which is the ECFix LP.  That basis stays primal feasible
        once the flexible bounds are restored, so HiGHS re-runs warm from it
        instead of solving the relaxed model cold.  When the pinned phase is
        not optimal (carried states can make the references infeasible), the
        relaxed model is solved cold.  The pinned phase stays in ``pinned``.
        """
        p = self.problem
        if self.mode is not PlannerMode.EC_FLEX or not self._power:
            return solve_lp(p)
        cols = np.concatenate([c for c, _ in self._power])
        refs = np.concatenate([r for _, r in self._power])
        lb, ub = p.bounds()
        p.set_bounds(cols, refs, refs)
        self.pinned = solve_lp(p)
        p.set_bounds(cols, lb[cols], ub[cols])
        return solve_lp(p, warm=self.pinned.status is LpStatus.OPTIMAL)

    def extract(self, solution: LpSolution, mode: PlannerMode | None = None) -> DaySchedule:
        """The settled schedule of a solution, labelled ``mode`` (the model's
        own by default)."""
        s = self.scenario
        mode = mode or self.mode
        x = solution.x
        members = []
        for m in s.members:
            series = {tag: x[cols] for tag, cols in self.idx[m.id].items()}
            series["pinj"] = series.pop("pexp") - series.pop("pimp")
            series["ppv"] = np.array(m.pv_max_kw)
            members.append(MemberDaySchedule(m.id, series, refs=self.refs[m.id]))
        return settle_day(s, mode.value, self.day, members,
                          community=mode.community_allowed,
                          objective=float(solution.objective))


def settle_day(day_scenario: Scenario, mode: str, day: int,
               members: list[MemberDaySchedule], community: bool = True,
               objective: float | None = None) -> DaySchedule:
    """The day of fixed member dispatches, with exchanges and bills.

    Each member's retailer and community legs follow from the net injections
    in closed form (:func:`billing.settle_community`).  The objective defaults
    to the community bill plus discomfort.
    """
    dt = day_scenario.horizon.dt_hours
    legs = billing.settle_community({m.member_id: m.series["pinj"] for m in members},
                                    community=community)
    for m in members:
        leg = legs[m.member_id]
        m.series.update(leg)
        m.bill_eur = billing.compute_bill(prices=day_scenario.prices, dt_hours=dt, **leg)
    sched = DaySchedule(mode=mode, day=day, dt_hours=dt, members=members,
                        objective_value=objective)
    if objective is None:
        sched.objective_value = sched.community_bill_eur + sched.community_discomfort_eur
    return sched


class SolvedDay:
    """One day of a scenario and the schedules solved on it, keyed by their LP.

    ``scenario`` is the day's slice of the scenario, ``day`` its index and
    ``defaults`` its :func:`default_refs`.  The day LP is defined by the mode
    and every member's reference powers and carried state; a key compares them
    bit for bit per device slot, a slot missing from a mapping (or a member
    from the carried states) keying as no value.
    Only settled schedules are kept, never a HiGHS model, and never a failure.
    A hit hands back the stored :class:`DaySchedule` itself, which its users
    only read.
    """

    def __init__(self, scenario: Scenario, day: int):
        self.scenario = scenario.for_day(day)
        self.day = day
        self.schedules: dict[tuple, DaySchedule] = {}
        self.defaults = default_refs(self.scenario)

    def key(self, mode: PlannerMode, refs: FlexRefs | None,
            initial_states: Mapping[str, CarriedState] | None) -> tuple:
        refs = self.defaults if refs is None else refs
        states = initial_states or {}
        members = []
        for m in self.scenario.members:
            r = refs.get(m.id)
            state = states.get(m.id, {})
            members.append((m.id, None if r is None else
                            tuple(_bits(r.get(spec.name)) for spec in DEVICES),
                            tuple(_bits(state.get(spec.name)) for spec in DEVICES)))
        return mode, tuple(members)


def _bits(value) -> bytes | None:
    """A number or a series as its float64 bytes, so that equal means bit-equal."""
    return None if value is None else np.asarray(value, dtype=np.float64).tobytes()


def solve_centralized(solved: SolvedDay, mode: PlannerMode,
                      refs: FlexRefs | None = None,
                      initial_states: Mapping[str, CarriedState] | None = None) -> DaySchedule:
    """Solve the day of ``solved`` under one mode and return the full schedule.

    A schedule ``solved`` holds for the same LP is returned as it is;
    otherwise the solved schedule is stored there, and an ECFlex solve also
    stores its optimal pinned phase as ECFix's schedule: that phase is the
    ECFix LP, solved cold as ECFix solves it.
    """
    key = solved.key(mode, refs, initial_states)
    if key in solved.schedules:
        return solved.schedules[key]
    model = _DayModel(solved, mode, refs, initial_states)
    solution = model.solve()
    if model.pinned is not None and model.pinned.status is LpStatus.OPTIMAL:
        ecfix = solved.key(PlannerMode.EC_FIX, refs, initial_states)
        if ecfix not in solved.schedules:
            solved.schedules[ecfix] = model.extract(model.pinned, PlannerMode.EC_FIX)
    if solution.status is LpStatus.INFEASIBLE:
        raise InfeasibleDayError(mode.value, solution.message)
    if solution.status is not LpStatus.OPTIMAL:
        raise SolverFailureError(mode.value, f"{solution.status.value}: {solution.message}")
    solved.schedules[key] = sched = model.extract(solution)
    return sched


def prioritize_self_consumption(
        solved: SolvedDay,
        initial_states: Mapping[str, CarriedState] | None = None) -> FlexRefs:
    """Rewrite device references to each member's individually optimal dispatch.

    Solves the no-community flexible problem of the day of ``solved`` and
    returns its device schedules as new reference profiles.  Discomfort
    references (SoC and temperature targets) are left untouched, so
    discomfort created by the individual optimization is carried into any
    coordination built on top.
    """
    sched = solve_centralized(solved, PlannerMode.SOLO_FLEX, initial_states=initial_states)
    return {m.member_id: refs_of_powers(m.series) for m in sched.members}


#: How far a reference trajectory may leave a hard state window and still
#: count as feasible.
_TOL_REFERENCE_STATE = 1e-9


def _reference_state_feasible(m, refs: DeviceRefs, state: CarriedState, dt: float) -> bool:
    """Do the reference powers respect the hard state windows from this state?"""
    for spec in DEVICES:
        device = getattr(m, spec.name)
        if device is None or (spec.floor is None and spec.ceiling is None):
            continue
        traj = spec.simulate(device, refs[spec.name], dt, state.get(spec.name))
        if spec.ceiling is not None and np.max(traj - spec.ceiling(device)) > _TOL_REFERENCE_STATE:
            return False
        if spec.floor is not None and np.min(traj - spec.floor(device)) < -_TOL_REFERENCE_STATE:
            return False
    return True


def repair_refs_for_state(m, refs: DeviceRefs, state: CarriedState,
                          dt: float) -> DeviceRefs:
    """Closest feasible reference profile for a member's real initial state.

    Reference profiles are day-ahead plans; once states carry over from a day
    whose dispatch deviated from plan, yesterday's profile may violate a hard
    state window (a vehicle left emptier than planned cannot follow the
    planned charge and still hit its departure target).  The member then
    re-plans: minimize the L1 distance to the old profile subject to the full
    device constraints, keeping each device's daily energy.  Feasible
    references are returned unchanged.
    """
    if not m.has_flexibility or _reference_state_feasible(m, refs, state, dt):
        return refs

    T = len(m.fixed_load_kw)
    p = LpProblem(f"repair {m.id}")
    idx = add_device_block(p, m, refs, state, dt, pinned=False)
    for spec in DEVICES:
        if spec.power in idx:
            # deviation above and below the old profile, interleaved per step
            dev = p.add_variables(f"dev.{spec.power}", 2 * T)
            p.add_rows("=", refs[spec.name],
                       [(idx[spec.power], 1.0), (dev[0::2], -1.0), (dev[1::2], 1.0)])
            p.add_objective(dev, 1.0)

    solution = solve_lp(p)
    if solution.status is not LpStatus.OPTIMAL:
        raise PlannerError(
            f"member {m.id}: no feasible reference profile from the carried "
            f"state ({solution.status.value})")
    return refs_of_powers({tag: solution.x[cols] for tag, cols in idx.items()})


def final_states(sched: DaySchedule) -> dict[str, CarriedState]:
    """End-of-day device states, for carrying into the next day's problem."""
    return {m.member_id: {spec.name: float(m.series[spec.state][-1])
                          for spec in DEVICES if spec.state in m.series}
            for m in sched.members}


# ---------------------------------------------------------------------------
# Independent verification


#: The verifier's tolerance on every re-simulated quantity: powers, energies,
#: states, discomforts and bills.
TOL_VERIFY = 1e-6


def verify_day_schedule(day_scenario: Scenario, sched: DaySchedule,
                        initial_states: Mapping[str, CarriedState] | None = None) -> list[str]:
    """Check a day schedule against its day's scenario without reading LP internals.

    Re-derives each member's settled day and compares each derived group with
    the stored series once, one problem per member and group: the PV
    production (the scenario's ``pv_max_kw``), the net injection ``pinj``
    (the stored PV less the fixed load, the device powers and the battery's
    net charge), the battery's SoC, each device's state and hinge discomfort
    and, once every member is whole, the community's matched volume and each
    member's four legs in the settlement of the stored ``pinj``.  It checks
    the SoC window and its recovery, the power ratings, the state floors and
    ceilings, each device's daily energy against the schedule's reference and
    against the scenario's ``power_ref_kw``, each member's bill recomputed
    from its stored legs and the objective against the sum of the recomputed
    bills and discomforts (within ``TOL_OPT`` relative).
    Returns human-readable problems; empty = clean.

    The settlement is re-derived per step: the matched volume is
    ``min(supply, demand)`` of the members' exports and imports (the positive
    and negative parts of ``pinj``), 0 in a solo mode, and ``sum(ecom)`` and
    ``sum(icom)`` must equal it; each member's ``ecom`` and ``icom`` is its
    pro-rata share of it, and its ``eret`` and ``iret`` the rest of its
    export and import.  A member's legs are off by the larger of their gap to
    these and their residual in ``eret + ecom - iret - icom = pinj``.

    A device's daily energy may not leave the scenario's: a planner that
    changes a reference's energy to reach a carried state must hand that
    change to this check explicitly.

    A scenario member the schedule lacks or lists more than once, a schedule
    member the scenario lacks, a missing series, device reference or bill and
    a series or reference of another number of steps than the day's are
    problems too; a member lacking a series or reference, or holding one of
    the wrong length, is checked no further, and with any of these the
    settlement and the objective are not checked.
    """
    s = day_scenario
    dt, steps, prices = s.horizon.dt_hours, s.horizon.steps_per_day, s.prices
    tol = TOL_VERIFY
    problems: list[str] = []
    initial_states = initial_states or {}

    def check(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    def gap(derived, stored, axis=None):
        """The largest deviation (NaN if either holds one, so never within ``tol``)."""
        return np.max(np.abs(np.subtract(derived, stored)), axis=axis, initial=0.0)

    settled = []  # (member id, series) of each member checked in full
    bill_total = discomfort_total = 0.0

    listed = Counter(ms.member_id for ms in sched.members)
    for member_id, times in listed.items():
        if times > 1:
            problems.append(f"{member_id}: listed {times} times in the schedule")
    by_id = {ms.member_id: ms for ms in sched.members}
    for member_id in sorted(by_id.keys() - {m.id for m in s.members}):
        problems.append(f"{member_id}: not a member of the scenario")
    whole = not problems  # every member listed once, with all its arrays
    for m in s.members:
        ms = by_id.get(m.id)
        if ms is None:
            problems.append(f"{m.id}: missing from the schedule")
            whole = False
            continue
        ss = ms.series
        devices = [spec for spec in DEVICES if getattr(m, spec.name) is not None]
        tags = ["pinj", "ppv", "iret", "eret", "icom", "ecom"]
        if m.bss is not None:
            tags += ["pcha", "pdis", "socb"]
        tags += [tag for spec in devices for tag in (spec.power, spec.state, spec.discomfort)]
        missing = [tag for tag in tags if tag not in ss]
        missing += [f"{spec.name} reference" for spec in devices if spec.name not in ms.refs]
        if missing:
            problems.append(f"{m.id}: missing {', '.join(missing)}")
            whole = False
            continue
        arrays = [*ss.items()]
        arrays += [(f"{spec.name} reference", ms.refs[spec.name]) for spec in devices]
        wrong = [f"{m.id}: {name} has {np.size(arr)} steps, not {steps}"
                 for name, arr in arrays if np.shape(arr) != (steps,)]
        if wrong:
            problems += wrong
            whole = False
            continue
        settled.append((m.id, ss))
        state = initial_states.get(m.id, {})

        off = gap(m.pv_max_kw, ss["ppv"])
        check(off <= tol, f"{m.id}: PV production off its availability by {off:.3e}")
        off = gap(ss["ppv"] - m.fixed_load_kw - ms.total_flexible_kw, ss["pinj"])
        check(off <= tol, f"{m.id}: physical balance violated by {off:.3e}")

        bill = dt * float(np.sum(prices.import_price * ss["iret"] - prices.export_price * ss["eret"]
                                 + prices.community_fee * (ss["icom"] + ss["ecom"])))
        bill_total += bill
        if ms.bill_eur is None:
            problems.append(f"{m.id}: no bill")
        else:
            check(abs(bill - ms.bill_eur) <= tol,
                  f"{m.id}: stored bill {ms.bill_eur} != recomputed {bill}")

        if m.bss is not None:
            cha, dis, level = ss["pcha"], ss["pdis"], ss["socb"]
            soc = simulate_bss(m.bss, cha, dis, dt)
            off = gap(soc, level)
            check(off <= tol, f"{m.id}: battery SoC mismatch {off:.3e}")
            check(np.min(level) >= m.bss.soc_min - tol and np.max(level) <= m.bss.soc_max + tol,
                  f"{m.id}: battery SoC out of bounds")
            check(abs(soc[-1] - m.bss.soc_init) <= tol,
                  f"{m.id}: battery does not recover its initial level")
            check(np.min(cha) >= -tol and np.max(cha) <= m.bss.max_power_kw + tol,
                  f"{m.id}: battery charge power out of bounds")
            check(np.min(dis) >= -tol and np.max(dis) <= m.bss.max_power_kw + tol,
                  f"{m.id}: battery discharge power out of bounds")

        for spec in devices:
            device = getattr(m, spec.name)
            what = f"{m.id}: {spec.label}"
            power, level = ss[spec.power], ss[spec.state]
            traj = spec.simulate(device, power, dt, state.get(spec.name))
            off = gap(traj, level)
            check(off <= tol, f"{what} state mismatch {off:.3e}")
            if spec.ceiling is not None:
                check(np.max(traj - spec.ceiling(device)) <= tol, f"{what} state above ceiling")
            if spec.floor is not None:
                check(np.min(traj - spec.floor(device)) >= -tol, f"{what} state below floor")
            check(np.min(power) >= -tol and np.max(power - spec.max_power(device)) <= tol,
                  f"{what} power out of bounds")
            check(abs(float(np.sum(power - ms.refs[spec.name]))) * dt <= tol,
                  f"{what} daily energy not conserved")
            check(abs(float(np.sum(power - device.power_ref_kw))) * dt <= tol,
                  f"{what} daily energy off the scenario's")
            hinge = spec.hinge(device, traj)
            discomfort_total += float(np.sum(hinge))
            check(gap(hinge, ss[spec.discomfort]) <= tol, f"{what} discomfort mismatch")

    if whole:
        inj, iret, eret, icom, ecom = (np.reshape([ss[tag] for _, ss in settled], (-1, steps))
                                       for tag in ("pinj", "iret", "eret", "icom", "ecom"))
        exports, imports = np.maximum(inj, 0.0), np.maximum(-inj, 0.0)
        supply, demand = exports.sum(axis=0), imports.sum(axis=0)
        solo = sched.mode.startswith(("SoloFix", "SoloFlex"))
        matched = np.zeros(steps) if solo else np.minimum(supply, demand)
        ecom_due = exports * np.divide(matched, supply, out=np.zeros(steps), where=supply > 0.0)
        icom_due = imports * np.divide(matched, demand, out=np.zeros(steps), where=demand > 0.0)
        sold, bought = ecom.sum(axis=0), icom.sum(axis=0)
        off = gap([matched, matched, sold], [sold, bought, bought])
        check(off <= tol, f"community legs off the matched volume by {off:.3e}")
        due = [ecom_due, icom_due, exports - ecom_due, imports - icom_due, inj]
        stored = [ecom, icom, eret, iret, eret + ecom - iret - icom]
        for (member_id, _), off in zip(settled, gap(due, stored, axis=(0, 2))):
            check(off <= tol, f"{member_id}: legs off the settlement by {off:.3e}")
        objective = bill_total + discomfort_total
        check(abs(sched.objective_value - objective)
              <= TOL_OPT * max(1.0, abs(sched.objective_value)),
              f"objective {sched.objective_value} != bill plus discomfort {objective}")
    return problems
