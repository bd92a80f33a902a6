"""Centralized day-ahead planners for the community.

Four modes share one LP: the full community-coordinated flexible problem,
and three benchmark variants obtained by adding constraints:

* ``SoloFix``  - no community exchange, flexible loads pinned to reference;
* ``SoloFlex`` - no community exchange, flexible loads free;
* ``ECFix``    - community exchange allowed, flexible loads pinned;
* ``ECFlex``   - community exchange allowed, flexible loads free.

Batteries are always dispatchable.  PV is treated as data (no curtailment)
unless explicitly allowed, in which case production becomes a bounded
variable.  Multi-day runs solve day problems sequentially: vehicle and
thermal states carry over, batteries re-anchor to their initial state each
day because the day problem forces end-of-day recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from . import billing, devices
from .lpcore import LpProblem, LpSolution, LpStatus, solve_lp
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


class InfeasibleDayError(PlannerError):
    def __init__(self, mode: str, day: int, message: str = ""):
        self.mode = mode
        self.day = day
        super().__init__(f"{mode} infeasible on day {day}" + (f": {message}" if message else ""))


class SolverFailureError(PlannerError):
    def __init__(self, mode: str, day: int, message: str):
        self.mode = mode
        self.day = day
        super().__init__(f"{mode} solver failure on day {day}: {message}")


@dataclass(frozen=True)
class DeviceRefs:
    """Per-device reference power profiles for one member over one day."""

    ev: np.ndarray | None = None
    wb: np.ndarray | None = None
    hp: np.ndarray | None = None


FlexRefs = dict[str, DeviceRefs]


@dataclass(frozen=True)
class CarriedState:
    """Initial device states for a day, carried from the previous day's end."""

    ev_soc: float | None = None
    wb_temp: float | None = None
    hp_temp: float | None = None


@dataclass
class MemberDaySchedule:
    """One member's optimized day: exchanges, device dispatch, states, money."""

    member_id: str
    import_retailer_kw: np.ndarray
    export_retailer_kw: np.ndarray
    import_community_kw: np.ndarray
    export_community_kw: np.ndarray
    injection_kw: np.ndarray
    pv_kw: np.ndarray
    bss_charge_kw: np.ndarray | None = None
    bss_discharge_kw: np.ndarray | None = None
    bss_soc: np.ndarray | None = None
    ev_power_kw: np.ndarray | None = None
    ev_soc: np.ndarray | None = None
    ev_discomfort_eur: np.ndarray | None = None
    wb_power_kw: np.ndarray | None = None
    wb_temp_c: np.ndarray | None = None
    wb_discomfort_eur: np.ndarray | None = None
    hp_power_kw: np.ndarray | None = None
    hp_temp_c: np.ndarray | None = None
    hp_discomfort_eur: np.ndarray | None = None
    ref_ev_kw: np.ndarray | None = None
    ref_wb_kw: np.ndarray | None = None
    ref_hp_kw: np.ndarray | None = None
    bill: billing.Bill | None = None
    lp_bill_eur: float = 0.0
    discomfort_total_eur: float = 0.0
    flex_revenue_eur: float = 0.0

    @property
    def total_flexible_kw(self) -> np.ndarray:
        """Controllable power: flexible devices plus battery charge minus discharge."""
        out = np.zeros_like(self.injection_kw)
        for tag, sign in FLEX_TAGS:
            series = getattr(self, SERIES_FIELDS[tag])
            if series is not None:
                out = out + sign * series
        return out


@dataclass
class DaySchedule:
    """Community-wide result of one day under one mode."""

    mode: str
    day: int
    dt_hours: float
    members: list[MemberDaySchedule]
    objective_value: float
    community_bill_eur: float
    community_discomfort_eur: float

    def member(self, member_id: str) -> MemberDaySchedule:
        for m in self.members:
            if m.member_id == member_id:
                return m
        raise KeyError(member_id)


def default_refs(day_scenario: Scenario) -> FlexRefs:
    """Reference powers straight from the scenario's device profiles."""
    refs: FlexRefs = {}
    for m in day_scenario.members:
        refs[m.id] = DeviceRefs(
            ev=None if m.ev is None else np.array(m.ev.power_ref_kw),
            wb=None if m.wb is None else np.array(m.wb.power_ref_kw),
            hp=None if m.hp is None else np.array(m.hp.power_ref_kw),
        )
    return refs


def _check_refs(refs: FlexRefs, day_scenario: Scenario) -> None:
    steps = day_scenario.horizon.steps_per_day
    for m in day_scenario.members:
        r = refs.get(m.id)
        if r is None:
            raise PlannerError(f"missing reference profiles for member {m.id}")
        for name, series, dev in (("ev", r.ev, m.ev), ("wb", r.wb, m.wb), ("hp", r.hp, m.hp)):
            if dev is not None:
                if series is None:
                    raise PlannerError(f"member {m.id}: missing {name} reference profile")
                if len(series) != steps:
                    raise PlannerError(
                        f"member {m.id}: {name} reference length {len(series)} != {steps}")


def add_device_block(p: LpProblem, m: Member, refs: DeviceRefs, state: CarriedState,
                     dt: float, pinned: bool = False) -> dict[str, np.ndarray]:
    """Add one member's battery and flexible-device variables and rows.

    Covers power/state bounds, state recurrences, end-of-day battery
    recovery, daily energy conservation against the references, and the
    discomfort epigraph rows.  Returns column indexes per series tag.
    The same block backs both the community planners and the per-member
    subproblems of the iterative coordination, so their physics cannot
    drift apart.
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

    def flexible(tags, max_kw, ref, state_lb, state_ub, gain, keep, rhs, reluctance,
                 target) -> None:
        """Power, state and discomfort series of one flexible device:
        ``state[t] = keep[t-1] * state[t-1] + gain * power[t] + rhs[t]`` (the
        initial state is in ``rhs[0]``), daily energy equal to the reference,
        discomfort >= ``reluctance * (target - state)``."""
        power = grid(tags[0], *((ref, ref) if pinned else (0.0, max_kw)))
        level = grid(tags[1], state_lb, state_ub)
        discomfort = grid(tags[2], 0.0, np.inf)
        p.add_rows("=", rhs, [(level, 1.0), (power, -gain), (level[:-1], -keep, after)])
        p.add_rows("=", float(np.sum(ref)), [(power, 1.0, 0)])
        p.add_rows(">=", reluctance * target, [(discomfort, 1.0), (level, reluctance)])

    if m.ev is not None:
        ev = m.ev
        rhs = ev.arrival * ev.soc_arrival
        rhs[0] += (1.0 - ev.arrival[0]) * (
            state.ev_soc if state.ev_soc is not None else ev.soc_init)
        flexible(("pev", "sev", "jev"), ev.plugged * ev.max_charge_kw, refs.ev,
                 ev.departure * ev.soc_ref, 1.0, dt * ev.efficiency / ev.capacity_kwh,
                 1.0 - ev.arrival[1:], rhs, ev.reluctance_eur, ev.soc_ref)

    if m.wb is not None:
        wb = m.wb
        k = dt * wb.thermal_coeff
        rhs = -k * (wb.usage_loss_kw + wb.envelope_loss_kw)
        rhs[0] += state.wb_temp if state.wb_temp is not None else wb.temp_init
        # hard floor only at usage events; temperatures stay nonnegative
        flexible(("pwb", "twb", "jwb"), wb.max_power_kw, refs.wb,
                 np.maximum(0.0, wb.usage_event * wb.temp_limit), wb.temp_max, k, 1.0, rhs,
                 wb.reluctance_eur, wb.temp_limit)

    if m.hp is not None:
        hp = m.hp
        k = dt * hp.thermal_coeff
        rhs = -k * hp.wall_loss_kw
        rhs[0] += state.hp_temp if state.hp_temp is not None else hp.temp_init
        flexible(("php", "thp", "jhp"), hp.max_power_kw, refs.hp, 0.0, np.inf, k * hp.cop,
                 1.0, rhs, hp.reluctance_eur, hp.temp_limit)

    return idx


#: Series tags whose variables enter the member's controllable power, with sign.
FLEX_TAGS = (("pev", 1.0), ("pwb", 1.0), ("php", 1.0), ("pcha", 1.0), ("pdis", -1.0))

#: Discomfort series tags.
DISCOMFORT_TAGS = ("jev", "jwb", "jhp")

#: Schedule field of each series tag :func:`add_device_block` returns.
SERIES_FIELDS = {
    "pcha": "bss_charge_kw", "pdis": "bss_discharge_kw", "socb": "bss_soc",
    "pev": "ev_power_kw", "sev": "ev_soc", "jev": "ev_discomfort_eur",
    "pwb": "wb_power_kw", "twb": "wb_temp_c", "jwb": "wb_discomfort_eur",
    "php": "hp_power_kw", "thp": "hp_temp_c", "jhp": "hp_discomfort_eur",
}


def discomfort_eur(sched: MemberDaySchedule) -> float:
    """A member's total discomfort cost over the day's devices."""
    series = (getattr(sched, SERIES_FIELDS[tag]) for tag in DISCOMFORT_TAGS)
    return sum((float(np.sum(s)) for s in series if s is not None), 0.0)


class _DayModel:
    """LP for one day; keeps variable indexes so solutions map back to arrays."""

    def __init__(self, day_scenario: Scenario, mode: PlannerMode, refs: FlexRefs,
                 allow_curtailment: bool, initial_states: Mapping[str, CarriedState]):
        self.scenario = day_scenario
        self.mode = mode
        self.refs = refs
        self.allow_curtailment = allow_curtailment
        self.initial_states = initial_states
        self.problem = LpProblem(name=mode.value.lower())
        self.idx: dict[tuple[str, str], np.ndarray] = {}
        self.bill_idx: dict[str, int] = {}
        self._build()

    def _build(self) -> None:
        s = self.scenario
        T = s.horizon.steps_per_day
        dt = s.horizon.dt_hours
        p = self.problem
        even, odd = np.arange(0, 2 * T, 2), np.arange(1, 2 * T, 2)

        for m in s.members:
            uid = m.id
            state = self.initial_states.get(uid, CarriedState())

            def grid(tag: str, lb, ub) -> np.ndarray:
                self.idx[(uid, tag)] = p.add_variables(f"{tag}.{uid}", T, lb, ub)
                return self.idx[(uid, tag)]

            iret = grid("iret", 0.0, np.inf)
            eret = grid("eret", 0.0, np.inf)
            com_ub = np.inf if self.mode.community_allowed else 0.0
            icom = grid("icom", 0.0, com_ub)
            ecom = grid("ecom", 0.0, com_ub)
            pinj = grid("pinj", -np.inf, np.inf)
            bill = self.bill_idx[uid] = p.add_variable(f"bill.{uid}", -np.inf, np.inf)
            if self.allow_curtailment:
                grid("ppv", 0.0, m.pv_max_kw)

            block = add_device_block(p, m, self.refs[uid], state, dt,
                                     pinned=self.mode.flexibility_pinned)
            self.idx.update({(uid, tag): cols for tag, cols in block.items()})

            # per step, the physical balance at the point of common coupling
            # (even rows) and the split of the injection over retailer and
            # community legs (odd rows)
            rhs = np.zeros(2 * T)
            rhs[even] = -m.fixed_load_kw
            terms = [(pinj, 1.0, even)]
            if self.allow_curtailment:
                terms.append((self.idx[(uid, "ppv")], -1.0, even))
            else:
                rhs[even] += m.pv_max_kw
            terms += [(block[tag], sign, even) for tag, sign in FLEX_TAGS if tag in block]
            terms += [(pinj, 1.0, odd), (eret, -1.0, odd), (ecom, -1.0, odd),
                      (iret, 1.0, odd), (icom, 1.0, odd)]
            p.add_rows("=", rhs, terms)

            # bill definition
            p.add_rows("=", 0.0, [(bill, 1.0), (iret, -dt * s.prices.import_price, 0),
                                  (eret, dt * s.prices.export_price, 0),
                                  (icom, -dt * s.prices.community_fee, 0),
                                  (ecom, -dt * s.prices.community_fee, 0)])

            p.add_objective(bill, 1.0)
            for tag in DISCOMFORT_TAGS:
                if tag in block:
                    p.add_objective(block[tag], 1.0)

        # community-level balance of shared volumes
        terms = []
        for m in s.members:
            terms += [(self.idx[(m.id, "ecom")], 1.0), (self.idx[(m.id, "icom")], -1.0)]
        p.add_rows("=", np.zeros(T), terms)

    def extract(self, solution: LpSolution, day: int) -> DaySchedule:
        s = self.scenario
        dt = s.horizon.dt_hours
        x = solution.x

        def series(uid: str, tag: str) -> np.ndarray:
            return x[self.idx[(uid, tag)]]

        members = []
        total_disc = 0.0
        for m in s.members:
            uid = m.id
            r = self.refs[uid]
            pv = series(uid, "ppv") if self.allow_curtailment else np.array(m.pv_max_kw)
            sched = MemberDaySchedule(
                member_id=uid,
                import_retailer_kw=series(uid, "iret"),
                export_retailer_kw=series(uid, "eret"),
                import_community_kw=series(uid, "icom"),
                export_community_kw=series(uid, "ecom"),
                injection_kw=series(uid, "pinj"),
                pv_kw=pv,
            )
            for tag, field in SERIES_FIELDS.items():
                if (uid, tag) in self.idx:
                    setattr(sched, field, series(uid, tag))
            sched.ref_ev_kw = None if m.ev is None else np.array(r.ev)
            sched.ref_wb_kw = None if m.wb is None else np.array(r.wb)
            sched.ref_hp_kw = None if m.hp is None else np.array(r.hp)

            sched.bill = billing.compute_bill(
                uid, sched.import_retailer_kw, sched.export_retailer_kw,
                sched.import_community_kw, sched.export_community_kw, s.prices, dt)
            sched.lp_bill_eur = float(x[self.bill_idx[uid]])
            sched.discomfort_total_eur = discomfort_eur(sched)
            total_disc += sched.discomfort_total_eur
            members.append(sched)

        return DaySchedule(
            mode=self.mode.value,
            day=day,
            dt_hours=dt,
            members=members,
            objective_value=float(solution.objective),
            community_bill_eur=sum(m.bill.total_eur for m in members),
            community_discomfort_eur=total_disc,
        )


def build_day_problem(scenario: Scenario, day: int, mode: PlannerMode,
                      refs: FlexRefs | None = None,
                      allow_curtailment: bool = False,
                      initial_states: Mapping[str, CarriedState] | None = None) -> LpProblem:
    """Build a single day's LP for the given mode, without solving it."""
    day_scenario = scenario.for_day(day)
    refs = default_refs(day_scenario) if refs is None else refs
    _check_refs(refs, day_scenario)
    model = _DayModel(day_scenario, mode, refs, allow_curtailment, initial_states or {})
    return model.problem


def solve_centralized(scenario: Scenario, day: int, mode: PlannerMode,
                      refs: FlexRefs | None = None,
                      allow_curtailment: bool = False,
                      initial_states: Mapping[str, CarriedState] | None = None) -> DaySchedule:
    """Solve one day under one mode and return the full schedule."""
    day_scenario = scenario.for_day(day)
    refs = default_refs(day_scenario) if refs is None else refs
    _check_refs(refs, day_scenario)
    model = _DayModel(day_scenario, mode, refs, allow_curtailment, initial_states or {})
    solution = solve_lp(model.problem)
    if solution.status is LpStatus.INFEASIBLE:
        raise InfeasibleDayError(mode.value, day, solution.message)
    if solution.status is not LpStatus.OPTIMAL:
        raise SolverFailureError(mode.value, day, f"{solution.status.value}: {solution.message}")
    return model.extract(solution, day)


def prioritize_self_consumption(scenario: Scenario, day: int,
                                initial_states: Mapping[str, CarriedState] | None = None,
                                allow_curtailment: bool = False) -> FlexRefs:
    """Rewrite device references to each member's individually optimal dispatch.

    Solves the no-community flexible problem and returns its device schedules
    as new reference profiles.  Discomfort references (SoC and temperature
    targets) are left untouched, so discomfort created by the individual
    optimization is carried into any coordination built on top.
    """
    sched = solve_centralized(scenario, day, PlannerMode.SOLO_FLEX,
                              allow_curtailment=allow_curtailment,
                              initial_states=initial_states)
    refs: FlexRefs = {}
    for m in sched.members:
        refs[m.member_id] = DeviceRefs(
            ev=None if m.ev_power_kw is None else np.array(m.ev_power_kw),
            wb=None if m.wb_power_kw is None else np.array(m.wb_power_kw),
            hp=None if m.hp_power_kw is None else np.array(m.hp_power_kw),
        )
    return refs


def _reference_state_feasible(m, refs: DeviceRefs, state: CarriedState,
                              dt: float, tol: float = 1e-9) -> bool:
    """Do the reference powers respect the hard state windows from this state?"""
    if m.ev is not None:
        traj = devices.simulate_ev(m.ev, refs.ev, dt, soc_start=state.ev_soc)
        if np.max(traj) > 1.0 + tol:
            return False
        if np.min(traj - m.ev.departure * m.ev.soc_ref) < -tol:
            return False
    if m.wb is not None:
        traj = devices.simulate_wb(m.wb, refs.wb, dt, temp_start=state.wb_temp)
        if np.max(traj - m.wb.temp_max) > tol:
            return False
        if np.min(traj - m.wb.usage_event * m.wb.temp_limit) < -tol:
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
    p = LpProblem("refrepair")
    idx = add_device_block(p, m, refs, state, dt, pinned=False)
    for tag, ref in (("pev", refs.ev), ("pwb", refs.wb), ("php", refs.hp)):
        if tag in idx:
            # deviation above and below the old profile, interleaved per step
            dev = p.add_variables(f"dev.{tag}", 2 * T)
            p.add_rows("=", ref, [(idx[tag], 1.0), (dev[0::2], -1.0), (dev[1::2], 1.0)])
            p.add_objective(dev, 1.0)

    solution = solve_lp(p)
    if solution.status is not LpStatus.OPTIMAL:
        raise PlannerError(
            f"member {m.id}: no feasible reference profile from the carried "
            f"state ({solution.status.value})")
    x = solution.x
    return DeviceRefs(
        ev=x[idx["pev"]] if "pev" in idx else None,
        wb=x[idx["pwb"]] if "pwb" in idx else None,
        hp=x[idx["php"]] if "php" in idx else None,
    )


def final_states(sched: DaySchedule) -> dict[str, CarriedState]:
    """End-of-day device states, for carrying into the next day's problem."""
    out: dict[str, CarriedState] = {}
    for m in sched.members:
        out[m.member_id] = CarriedState(
            ev_soc=None if m.ev_soc is None else float(m.ev_soc[-1]),
            wb_temp=None if m.wb_temp_c is None else float(m.wb_temp_c[-1]),
            hp_temp=None if m.hp_temp_c is None else float(m.hp_temp_c[-1]),
        )
    return out


def run_mode(scenario: Scenario, mode: PlannerMode, num_days: int | None = None,
             primed: bool = False, allow_curtailment: bool = False) -> list[DaySchedule]:
    """Solve consecutive days with state carry-over.

    With ``primed``, each day's references are first rewritten to the
    individually self-consumption-optimal profiles.
    """
    days = scenario.horizon.num_days if num_days is None else num_days
    out: list[DaySchedule] = []
    carried: dict[str, CarriedState] = {}
    for day in range(days):
        refs = None
        if primed:
            refs = prioritize_self_consumption(scenario, day, initial_states=carried,
                                               allow_curtailment=allow_curtailment)
        sched = solve_centralized(scenario, day, mode, refs=refs,
                                  allow_curtailment=allow_curtailment,
                                  initial_states=carried)
        out.append(sched)
        carried = final_states(sched)
    return out


# ---------------------------------------------------------------------------
# Independent verification


def verify_day_schedule(scenario: Scenario, day: int, sched: DaySchedule,
                        initial_states: Mapping[str, CarriedState] | None = None,
                        tol: float = 1e-6) -> list[str]:
    """Check a day schedule against the scenario without reading LP internals.

    Re-simulates every device from its power schedule, recomputes hinge
    discomforts and bills, and checks the power balances, daily conservation
    and community matching.  Returns human-readable problems; empty = clean.
    """
    s = scenario.for_day(day)
    dt = s.horizon.dt_hours
    problems: list[str] = []
    initial_states = initial_states or {}

    def check(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    ecom_total = np.zeros(s.horizon.steps_per_day)
    icom_total = np.zeros(s.horizon.steps_per_day)

    for m in s.members:
        ms = sched.member(m.id)
        state = initial_states.get(m.id, CarriedState())
        flex = np.zeros_like(ms.injection_kw)
        cha = ms.bss_charge_kw if ms.bss_charge_kw is not None else 0.0
        dis = ms.bss_discharge_kw if ms.bss_discharge_kw is not None else 0.0
        for series in (ms.ev_power_kw, ms.wb_power_kw, ms.hp_power_kw):
            if series is not None:
                flex = flex + series

        check(np.min(ms.pv_kw) >= -tol and np.max(ms.pv_kw - m.pv_max_kw) <= tol,
              f"{m.id}: PV production outside availability")

        phys = ms.pv_kw + dis - m.fixed_load_kw - flex - cha - ms.injection_kw
        check(np.max(np.abs(phys)) <= tol,
              f"{m.id}: physical balance violated by {np.max(np.abs(phys)):.3e}")

        virt = (ms.export_retailer_kw + ms.export_community_kw
                - ms.import_retailer_kw - ms.import_community_kw - ms.injection_kw)
        check(np.max(np.abs(virt)) <= tol,
              f"{m.id}: virtual balance violated by {np.max(np.abs(virt)):.3e}")

        for name, arr in (("import_retailer", ms.import_retailer_kw),
                          ("export_retailer", ms.export_retailer_kw),
                          ("import_community", ms.import_community_kw),
                          ("export_community", ms.export_community_kw)):
            check(np.min(arr) >= -tol, f"{m.id}: negative {name}")

        ecom_total += ms.export_community_kw
        icom_total += ms.import_community_kw

        if sched.mode.startswith(("SoloFix", "SoloFlex")):
            check(np.max(ms.import_community_kw) <= tol
                  and np.max(ms.export_community_kw) <= tol,
                  f"{m.id}: community exchange in a solo mode")

        bill = billing.compute_bill(m.id, ms.import_retailer_kw, ms.export_retailer_kw,
                                    ms.import_community_kw, ms.export_community_kw,
                                    s.prices, dt)
        check(abs(bill.total_eur - ms.bill.total_eur) <= 1e-6,
              f"{m.id}: stored bill {ms.bill.total_eur} != recomputed {bill.total_eur}")

        if m.bss is not None:
            soc = devices.simulate_bss(m.bss, ms.bss_charge_kw, ms.bss_discharge_kw, dt)
            check(np.max(np.abs(soc - ms.bss_soc)) <= tol,
                  f"{m.id}: battery SoC mismatch {np.max(np.abs(soc - ms.bss_soc)):.3e}")
            check(np.min(ms.bss_soc) >= m.bss.soc_min - tol
                  and np.max(ms.bss_soc) <= m.bss.soc_max + tol,
                  f"{m.id}: battery SoC out of bounds")
            check(abs(soc[-1] - m.bss.soc_init) <= tol,
                  f"{m.id}: battery does not recover its initial level")
            check(np.min(ms.bss_charge_kw) >= -tol
                  and np.max(ms.bss_charge_kw) <= m.bss.max_power_kw + tol,
                  f"{m.id}: battery charge power out of bounds")
            check(np.min(ms.bss_discharge_kw) >= -tol
                  and np.max(ms.bss_discharge_kw) <= m.bss.max_power_kw + tol,
                  f"{m.id}: battery discharge power out of bounds")

        if m.ev is not None:
            soc = devices.simulate_ev(m.ev, ms.ev_power_kw, dt, soc_start=state.ev_soc)
            check(np.max(np.abs(soc - ms.ev_soc)) <= tol,
                  f"{m.id}: EV SoC mismatch {np.max(np.abs(soc - ms.ev_soc)):.3e}")
            check(np.max(soc) <= 1.0 + tol, f"{m.id}: EV SoC above 1")
            dep = m.ev.departure * m.ev.soc_ref
            check(np.min(soc - dep) >= -tol, f"{m.id}: EV misses departure target")
            check(np.min(ms.ev_power_kw) >= -tol, f"{m.id}: negative EV power")
            check(np.max(ms.ev_power_kw - m.ev.plugged * m.ev.max_charge_kw) <= tol,
                  f"{m.id}: EV charging beyond availability")
            check(abs(float(np.sum(ms.ev_power_kw - ms.ref_ev_kw))) * dt <= tol,
                  f"{m.id}: EV daily energy not conserved")
            hinge = devices.discomfort_ev(soc, m.ev.soc_ref, m.ev.reluctance_eur)
            check(np.max(np.abs(hinge.per_step - ms.ev_discomfort_eur)) <= tol,
                  f"{m.id}: EV discomfort mismatch")

        if m.wb is not None:
            temp = devices.simulate_wb(m.wb, ms.wb_power_kw, dt, temp_start=state.wb_temp)
            check(np.max(np.abs(temp - ms.wb_temp_c)) <= tol,
                  f"{m.id}: boiler temperature mismatch {np.max(np.abs(temp - ms.wb_temp_c)):.3e}")
            check(np.max(temp - m.wb.temp_max) <= tol, f"{m.id}: boiler above maximum")
            floor = m.wb.usage_event * m.wb.temp_limit
            check(np.min(temp - floor) >= -tol, f"{m.id}: boiler below usage floor")
            check(np.min(ms.wb_power_kw) >= -tol
                  and np.max(ms.wb_power_kw) <= m.wb.max_power_kw + tol,
                  f"{m.id}: boiler power out of bounds")
            check(abs(float(np.sum(ms.wb_power_kw - ms.ref_wb_kw))) * dt <= tol,
                  f"{m.id}: boiler daily energy not conserved")
            hinge = devices.discomfort_thermal(temp, m.wb.temp_limit, m.wb.reluctance_eur)
            check(np.max(np.abs(hinge.per_step - ms.wb_discomfort_eur)) <= tol,
                  f"{m.id}: boiler discomfort mismatch")

        if m.hp is not None:
            temp = devices.simulate_hp(m.hp, ms.hp_power_kw, dt, temp_start=state.hp_temp)
            check(np.max(np.abs(temp - ms.hp_temp_c)) <= tol,
                  f"{m.id}: heat pump temperature mismatch {np.max(np.abs(temp - ms.hp_temp_c)):.3e}")
            check(np.min(ms.hp_power_kw) >= -tol
                  and np.max(ms.hp_power_kw) <= m.hp.max_power_kw + tol,
                  f"{m.id}: heat pump power out of bounds")
            check(abs(float(np.sum(ms.hp_power_kw - ms.ref_hp_kw))) * dt <= tol,
                  f"{m.id}: heat pump daily energy not conserved")
            hinge = devices.discomfort_thermal(temp, m.hp.temp_limit, m.hp.reluctance_eur)
            check(np.max(np.abs(hinge.per_step - ms.hp_discomfort_eur)) <= tol,
                  f"{m.id}: heat pump discomfort mismatch")

    check(np.max(np.abs(ecom_total - icom_total)) <= tol,
          f"community exchange imbalance {np.max(np.abs(ecom_total - icom_total)):.3e}")
    return problems
