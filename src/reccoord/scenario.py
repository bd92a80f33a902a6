"""Community scenario model: domain types, JSON ingestion, validation, synthesis.

A :class:`Scenario` bundles everything a planner needs for one community:
the time grid, retail/community prices, and the per-member fixed loads, PV
availability and flexible-device parameters.  All per-timestep series are
flat arrays of length ``steps_per_day * num_days``.

Types are immutable after construction (arrays are locked read-only) and
deliberately permissive: semantic checks live in :func:`validate_scenario`,
which returns machine-readable violations instead of raising.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Any, Sequence

import numpy as np

SCHEMA_VERSION = 1

#: Entries of indicator series must be exactly 0.0 or 1.0.
_BINARY = (0.0, 1.0)


class ScenarioError(Exception):
    """Base class for scenario ingestion failures."""


class ScenarioParseError(ScenarioError):
    """The document is malformed: bad JSON, wrong schema, missing fields."""


class SyntheticConfigError(ValueError):
    """A synthetic generator setting is out of range."""


class ScenarioValidationError(ScenarioError):
    """The document parsed but violates scenario invariants."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        preview = "; ".join(str(v) for v in violations[:3])
        more = "" if len(violations) <= 3 else f" (+{len(violations) - 3} more)"
        super().__init__(f"invalid scenario: {preview}{more}")


@dataclass(frozen=True)
class Violation:
    """One invariant breach, located by a dotted/indexed path."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def _series(values: Any) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ScenarioParseError(f"expected a flat numeric array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _freeze_series_fields(obj: Any, names: Sequence[str]) -> None:
    for name in names:
        object.__setattr__(obj, name, _series(getattr(obj, name)))


class _DeviceSeries:
    """Device parameters whose ``_SERIES`` fields are per-step arrays."""

    _SERIES: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _freeze_series_fields(self, self._SERIES)

    def sliced(self, sl: slice):
        return replace(self, **{name: getattr(self, name)[sl] for name in self._SERIES})


@dataclass(frozen=True)
class Horizon:
    """Time grid: per-day step count, step duration in hours, day count."""

    steps_per_day: int
    dt_hours: float
    num_days: int = 1

    @property
    def total_steps(self) -> int:
        return self.steps_per_day * self.num_days

    def day_slice(self, day: int) -> slice:
        if not 0 <= day < self.num_days:
            raise IndexError(f"day {day} outside horizon of {self.num_days} day(s)")
        return slice(day * self.steps_per_day, (day + 1) * self.steps_per_day)


@dataclass(frozen=True, eq=False)
class Prices:
    """Per-timestep tariffs in EUR/kWh: retailer import/export and community fee."""

    import_price: np.ndarray
    export_price: np.ndarray
    community_fee: np.ndarray

    def __post_init__(self) -> None:
        _freeze_series_fields(self, ("import_price", "export_price", "community_fee"))

    def sliced(self, sl: slice) -> "Prices":
        return Prices(self.import_price[sl], self.export_price[sl], self.community_fee[sl])


@dataclass(frozen=True, eq=False)
class BssParams:
    """Stationary battery: capacity, symmetric power limit, round-trip split efficiency."""

    capacity_kwh: float
    max_power_kw: float
    efficiency: float
    soc_init: float
    soc_min: float = 0.0
    soc_max: float = 1.0

    def sliced(self, sl: slice) -> "BssParams":
        return self


@dataclass(frozen=True, eq=False)
class EvParams(_DeviceSeries):
    """Electric vehicle charger with plug-in windows, trips and a charge target.

    ``arrival``/``departure`` are indicator series; several trips per day are
    allowed.  ``soc_arrival`` is read only at arrival steps.  ``soc_ref`` is
    both the discomfort reference trajectory and, at departure steps, a hard
    minimum state of charge.
    """

    capacity_kwh: float
    max_charge_kw: float
    efficiency: float
    soc_init: float
    plugged: np.ndarray
    arrival: np.ndarray
    departure: np.ndarray
    soc_arrival: np.ndarray
    soc_ref: np.ndarray
    power_ref_kw: np.ndarray
    reluctance_eur: float
    energy_cap_kwh: float | None = None

    _SERIES = ("plugged", "arrival", "departure", "soc_arrival", "soc_ref", "power_ref_kw")


@dataclass(frozen=True, eq=False)
class WbParams(_DeviceSeries):
    """Hot-water boiler as an equivalent thermal battery.

    ``thermal_coeff`` converts energy to temperature (degC per kWh).  The tank
    must stay below ``temp_max`` always and above ``temp_limit`` whenever a
    usage event fires; staying below ``temp_limit`` at other times is merely
    penalized through the discomfort hinge.
    """

    thermal_coeff: float
    max_power_kw: float
    temp_init: float
    temp_max: np.ndarray
    temp_limit: np.ndarray
    usage_event: np.ndarray
    usage_loss_kw: np.ndarray
    envelope_loss_kw: np.ndarray
    power_ref_kw: np.ndarray
    reluctance_eur: float
    energy_cap_kwh: float | None = None

    _SERIES = ("temp_max", "temp_limit", "usage_event", "usage_loss_kw",
               "envelope_loss_kw", "power_ref_kw")


@dataclass(frozen=True, eq=False)
class HpParams(_DeviceSeries):
    """Heat pump heating a single-state indoor air mass.

    Electrical input times ``cop`` gives thermal power; there is no hard upper
    temperature bound, only the discomfort hinge below ``temp_limit``.
    """

    thermal_coeff: float
    max_power_kw: float
    cop: float
    temp_init: float
    temp_limit: np.ndarray
    wall_loss_kw: np.ndarray
    power_ref_kw: np.ndarray
    reluctance_eur: float
    energy_cap_kwh: float | None = None

    _SERIES = ("temp_limit", "wall_loss_kw", "power_ref_kw")


@dataclass(frozen=True, eq=False)
class Member:
    """One community member: fixed load, PV availability, optional devices."""

    id: str
    fixed_load_kw: np.ndarray
    pv_max_kw: np.ndarray
    bss: BssParams | None = None
    ev: EvParams | None = None
    wb: WbParams | None = None
    hp: HpParams | None = None
    flexible_energy_cap_kwh: float | None = None

    def __post_init__(self) -> None:
        _freeze_series_fields(self, ("fixed_load_kw", "pv_max_kw"))

    @property
    def has_flexibility(self) -> bool:
        """Whether the member owns any controllable asset (device or battery)."""
        return any(d is not None for d in (self.bss, self.ev, self.wb, self.hp))

    def sliced(self, sl: slice) -> "Member":
        return Member(
            id=self.id,
            fixed_load_kw=self.fixed_load_kw[sl],
            pv_max_kw=self.pv_max_kw[sl],
            bss=self.bss.sliced(sl) if self.bss else None,
            ev=self.ev.sliced(sl) if self.ev else None,
            wb=self.wb.sliced(sl) if self.wb else None,
            hp=self.hp.sliced(sl) if self.hp else None,
            flexible_energy_cap_kwh=self.flexible_energy_cap_kwh,
        )


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete community scenario: horizon, prices and members."""

    horizon: Horizon
    prices: Prices
    members: tuple[Member, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))

    def member(self, member_id: str) -> Member:
        for m in self.members:
            if m.id == member_id:
                return m
        raise KeyError(member_id)

    def for_day(self, day: int) -> "Scenario":
        """A one-day scenario holding views on this scenario's arrays."""
        sl = self.horizon.day_slice(day)
        return Scenario(
            horizon=Horizon(self.horizon.steps_per_day, self.horizon.dt_hours, 1),
            prices=self.prices.sliced(sl),
            members=tuple(m.sliced(sl) for m in self.members),
        )


# ---------------------------------------------------------------------------
# Validation


def _check_series(out: list[Violation], path: str, arr: np.ndarray, n: int,
                  nonneg: bool = False, binary: bool = False,
                  unit_interval: bool = False) -> bool:
    """Length and per-entry domain checks. Returns False on length mismatch."""
    if len(arr) != n:
        out.append(Violation(path, f"series length {len(arr)} != horizon length {n}"))
        return False
    if not np.all(np.isfinite(arr)):
        t = int(np.flatnonzero(~np.isfinite(arr))[0])
        out.append(Violation(f"{path}[{t}]", "non-finite value"))
        return False
    if nonneg and np.any(arr < 0):
        t = int(np.flatnonzero(arr < 0)[0])
        out.append(Violation(f"{path}[{t}]", f"negative value {arr[t]}"))
    if binary and not np.all(np.isin(arr, _BINARY)):
        t = int(np.flatnonzero(~np.isin(arr, _BINARY))[0])
        out.append(Violation(f"{path}[{t}]", f"indicator value {arr[t]} not in {{0,1}}"))
    if unit_interval and np.any((arr < 0) | (arr > 1)):
        t = int(np.flatnonzero((arr < 0) | (arr > 1))[0])
        out.append(Violation(f"{path}[{t}]", f"value {arr[t]} out of [0,1]"))
    return True


def _check_fraction(out: list[Violation], path: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        out.append(Violation(path, f"value {value} out of [0,1]"))


def _validate_bss(out: list[Violation], path: str, bss: BssParams) -> None:
    if not bss.capacity_kwh > 0:
        out.append(Violation(f"{path}.capacity_kwh", "must be > 0"))
    if bss.max_power_kw < 0:
        out.append(Violation(f"{path}.max_power_kw", "must be >= 0"))
    if not 0.0 < bss.efficiency <= 1.0:
        out.append(Violation(f"{path}.efficiency", f"value {bss.efficiency} out of (0,1]"))
    _check_fraction(out, f"{path}.soc_min", bss.soc_min)
    _check_fraction(out, f"{path}.soc_max", bss.soc_max)
    if bss.soc_min > bss.soc_max:
        out.append(Violation(f"{path}.soc_min", "soc_min > soc_max"))
    if not bss.soc_min <= bss.soc_init <= bss.soc_max:
        out.append(Violation(f"{path}.soc_init", "soc_init out of [soc_min,soc_max]"))


def _validate_ev(out: list[Violation], path: str, ev: EvParams, n: int,
                 steps_per_day: int) -> None:
    if not ev.capacity_kwh > 0:
        out.append(Violation(f"{path}.capacity_kwh", "must be > 0"))
    if ev.max_charge_kw < 0:
        out.append(Violation(f"{path}.max_charge_kw", "must be >= 0"))
    if not 0.0 < ev.efficiency <= 1.0:
        out.append(Violation(f"{path}.efficiency", f"value {ev.efficiency} out of (0,1]"))
    _check_fraction(out, f"{path}.soc_init", ev.soc_init)
    if ev.reluctance_eur < 0:
        out.append(Violation(f"{path}.reluctance_eur", "must be >= 0"))

    ok = _check_series(out, f"{path}.plugged", ev.plugged, n, binary=True)
    ok &= _check_series(out, f"{path}.arrival", ev.arrival, n, binary=True)
    ok &= _check_series(out, f"{path}.departure", ev.departure, n, binary=True)
    ok &= _check_series(out, f"{path}.soc_arrival", ev.soc_arrival, n, unit_interval=True)
    ok &= _check_series(out, f"{path}.soc_ref", ev.soc_ref, n, unit_interval=True)
    ok &= _check_series(out, f"{path}.power_ref_kw", ev.power_ref_kw, n, nonneg=True)
    if not ok:
        return

    for t in range(n):
        if ev.arrival[t] == 1.0 and ev.plugged[t] != 1.0:
            out.append(Violation(f"{path}.arrival[{t}]", "arrival while not plugged"))
        if ev.departure[t] == 1.0:
            if ev.plugged[t] != 1.0:
                out.append(Violation(f"{path}.departure[{t}]", "departure while not plugged"))
            nxt = t + 1
            if nxt % steps_per_day != 0 and nxt < n and ev.plugged[nxt] != 0.0:
                out.append(Violation(f"{path}.departure[{t}]",
                                     "still plugged at the step after departure"))
        if ev.power_ref_kw[t] > 0 and ev.plugged[t] != 1.0:
            out.append(Violation(f"{path}.power_ref_kw[{t}]",
                                 "positive reference power while not plugged"))
        if ev.power_ref_kw[t] > ev.max_charge_kw + 1e-9:
            out.append(Violation(f"{path}.power_ref_kw[{t}]",
                                 f"reference power {ev.power_ref_kw[t]} above charger limit"))


def _validate_wb(out: list[Violation], path: str, wb: WbParams, n: int) -> None:
    if not wb.thermal_coeff > 0:
        out.append(Violation(f"{path}.thermal_coeff", "must be > 0"))
    if wb.max_power_kw < 0:
        out.append(Violation(f"{path}.max_power_kw", "must be >= 0"))
    if wb.reluctance_eur < 0:
        out.append(Violation(f"{path}.reluctance_eur", "must be >= 0"))

    ok = _check_series(out, f"{path}.temp_max", wb.temp_max, n)
    ok &= _check_series(out, f"{path}.temp_limit", wb.temp_limit, n)
    ok &= _check_series(out, f"{path}.usage_event", wb.usage_event, n, binary=True)
    ok &= _check_series(out, f"{path}.usage_loss_kw", wb.usage_loss_kw, n, nonneg=True)
    ok &= _check_series(out, f"{path}.envelope_loss_kw", wb.envelope_loss_kw, n, nonneg=True)
    ok &= _check_series(out, f"{path}.power_ref_kw", wb.power_ref_kw, n, nonneg=True)
    if not ok:
        return

    bad = np.flatnonzero(wb.temp_limit > wb.temp_max)
    if bad.size:
        t = int(bad[0])
        out.append(Violation(f"{path}.temp_limit[{t}]", "temp_limit above temp_max"))
    bad = np.flatnonzero(wb.power_ref_kw > wb.max_power_kw + 1e-9)
    if bad.size:
        t = int(bad[0])
        out.append(Violation(f"{path}.power_ref_kw[{t}]", "reference power above rating"))


def _validate_hp(out: list[Violation], path: str, hp: HpParams, n: int) -> None:
    if not hp.thermal_coeff > 0:
        out.append(Violation(f"{path}.thermal_coeff", "must be > 0"))
    if not hp.cop > 0:
        out.append(Violation(f"{path}.cop", "must be > 0"))
    if hp.max_power_kw < 0:
        out.append(Violation(f"{path}.max_power_kw", "must be >= 0"))
    if hp.reluctance_eur < 0:
        out.append(Violation(f"{path}.reluctance_eur", "must be >= 0"))

    ok = _check_series(out, f"{path}.temp_limit", hp.temp_limit, n)
    ok &= _check_series(out, f"{path}.wall_loss_kw", hp.wall_loss_kw, n, nonneg=True)
    ok &= _check_series(out, f"{path}.power_ref_kw", hp.power_ref_kw, n, nonneg=True)
    if not ok:
        return

    bad = np.flatnonzero(hp.power_ref_kw > hp.max_power_kw + 1e-9)
    if bad.size:
        t = int(bad[0])
        out.append(Violation(f"{path}.power_ref_kw[{t}]", "reference power above rating"))


def validate_scenario(scenario: Scenario) -> list[Violation]:
    """Check every scenario invariant; an empty list means the scenario is valid."""
    out: list[Violation] = []
    hor = scenario.horizon

    if hor.steps_per_day <= 0:
        out.append(Violation("horizon.steps_per_day", "must be > 0"))
    if hor.dt_hours <= 0:
        out.append(Violation("horizon.dt_hours", "must be > 0"))
    if hor.num_days <= 0:
        out.append(Violation("horizon.num_days", "must be > 0"))
    if out:
        return out
    if not math.isclose(hor.steps_per_day * hor.dt_hours, 24.0, rel_tol=0, abs_tol=1e-9):
        out.append(Violation(
            "horizon", f"steps_per_day*dt_hours = {hor.steps_per_day * hor.dt_hours} != 24"))

    n = hor.total_steps
    ok = _check_series(out, "prices.import_price", scenario.prices.import_price, n, nonneg=True)
    ok &= _check_series(out, "prices.export_price", scenario.prices.export_price, n, nonneg=True)
    ok &= _check_series(out, "prices.community_fee", scenario.prices.community_fee, n, nonneg=True)
    if ok:
        from . import billing  # local import: billing depends on this module

        reward = billing.activation_price_values(
            scenario.prices.import_price, scenario.prices.export_price,
            scenario.prices.community_fee)
        bad = np.flatnonzero(reward <= 0)
        if bad.size:
            t = int(bad[0])
            out.append(Violation(
                f"prices[{t}]",
                "non-positive activation reward: import_price must exceed "
                "export_price + 2*community_fee"))

    seen: set[str] = set()
    for i, m in enumerate(scenario.members):
        path = f"members[{i}]"
        if m.id in seen:
            out.append(Violation(f"{path}.id", f"duplicate member id {m.id!r}"))
        seen.add(m.id)
        _check_series(out, f"{path}.fixed_load_kw", m.fixed_load_kw, n, nonneg=True)
        _check_series(out, f"{path}.pv_max_kw", m.pv_max_kw, n, nonneg=True)
        if m.bss is not None:
            _validate_bss(out, f"{path}.bss", m.bss)
        if m.ev is not None:
            _validate_ev(out, f"{path}.ev", m.ev, n, hor.steps_per_day)
        if m.wb is not None:
            _validate_wb(out, f"{path}.wb", m.wb, n)
        if m.hp is not None:
            _validate_hp(out, f"{path}.hp", m.hp, n)

    return out


# ---------------------------------------------------------------------------
# JSON ingestion / serialization


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ScenarioParseError(f"{where}: missing required field {key!r}")
    return obj[key]


def _opt_float(obj: dict, key: str) -> float | None:
    v = obj.get(key)
    return None if v is None else float(v)


def _parse_thermal_limit(obj: dict, where: str) -> np.ndarray:
    """Accept ``temp_limit`` directly or the (temp_ref, temp_set) pair.

    When the pair is given, the effective limit is the elementwise minimum of
    the two series.
    """
    if "temp_limit" in obj and obj["temp_limit"] is not None:
        return _series(obj["temp_limit"])
    if "temp_ref" in obj and "temp_set" in obj:
        ref = _series(obj["temp_ref"])
        set_ = _series(obj["temp_set"])
        if len(ref) != len(set_):
            raise ScenarioParseError(f"{where}: temp_ref and temp_set lengths differ")
        return np.minimum(ref, set_)
    raise ScenarioParseError(f"{where}: need temp_limit or the (temp_ref, temp_set) pair")


def _parse_member(obj: dict, idx: int) -> Member:
    where = f"members[{idx}]"
    if not isinstance(obj, dict):
        raise ScenarioParseError(f"{where}: expected an object")
    member_id = str(_require(obj, "id", where))
    where = f"members[{idx}] (id={member_id})"

    bss = ev = wb = hp = None
    if obj.get("bss") is not None:
        b = obj["bss"]
        bss = BssParams(
            capacity_kwh=float(_require(b, "capacity_kwh", f"{where}.bss")),
            max_power_kw=float(_require(b, "max_power_kw", f"{where}.bss")),
            efficiency=float(_require(b, "efficiency", f"{where}.bss")),
            soc_init=float(_require(b, "soc_init", f"{where}.bss")),
            soc_min=float(b.get("soc_min", 0.0)),
            soc_max=float(b.get("soc_max", 1.0)),
        )
    if obj.get("ev") is not None:
        e = obj["ev"]
        ev = EvParams(
            capacity_kwh=float(_require(e, "capacity_kwh", f"{where}.ev")),
            max_charge_kw=float(_require(e, "max_charge_kw", f"{where}.ev")),
            efficiency=float(_require(e, "efficiency", f"{where}.ev")),
            soc_init=float(_require(e, "soc_init", f"{where}.ev")),
            plugged=_series(_require(e, "plugged", f"{where}.ev")),
            arrival=_series(_require(e, "arrival", f"{where}.ev")),
            departure=_series(_require(e, "departure", f"{where}.ev")),
            soc_arrival=_series(_require(e, "soc_arrival", f"{where}.ev")),
            soc_ref=_series(_require(e, "soc_ref", f"{where}.ev")),
            power_ref_kw=_series(_require(e, "power_ref_kw", f"{where}.ev")),
            reluctance_eur=float(_require(e, "reluctance_eur", f"{where}.ev")),
            energy_cap_kwh=_opt_float(e, "energy_cap_kwh"),
        )
    if obj.get("wb") is not None:
        w = obj["wb"]
        wb = WbParams(
            thermal_coeff=float(_require(w, "thermal_coeff", f"{where}.wb")),
            max_power_kw=float(_require(w, "max_power_kw", f"{where}.wb")),
            temp_init=float(_require(w, "temp_init", f"{where}.wb")),
            temp_max=_series(_require(w, "temp_max", f"{where}.wb")),
            temp_limit=_parse_thermal_limit(w, f"{where}.wb"),
            usage_event=_series(_require(w, "usage_event", f"{where}.wb")),
            usage_loss_kw=_series(_require(w, "usage_loss_kw", f"{where}.wb")),
            envelope_loss_kw=_series(_require(w, "envelope_loss_kw", f"{where}.wb")),
            power_ref_kw=_series(_require(w, "power_ref_kw", f"{where}.wb")),
            reluctance_eur=float(_require(w, "reluctance_eur", f"{where}.wb")),
            energy_cap_kwh=_opt_float(w, "energy_cap_kwh"),
        )
    if obj.get("hp") is not None:
        h = obj["hp"]
        hp = HpParams(
            thermal_coeff=float(_require(h, "thermal_coeff", f"{where}.hp")),
            max_power_kw=float(_require(h, "max_power_kw", f"{where}.hp")),
            cop=float(_require(h, "cop", f"{where}.hp")),
            temp_init=float(_require(h, "temp_init", f"{where}.hp")),
            temp_limit=_parse_thermal_limit(h, f"{where}.hp"),
            wall_loss_kw=_series(_require(h, "wall_loss_kw", f"{where}.hp")),
            power_ref_kw=_series(_require(h, "power_ref_kw", f"{where}.hp")),
            reluctance_eur=float(_require(h, "reluctance_eur", f"{where}.hp")),
            energy_cap_kwh=_opt_float(h, "energy_cap_kwh"),
        )

    return Member(
        id=member_id,
        fixed_load_kw=_series(_require(obj, "fixed_load_kw", where)),
        pv_max_kw=_series(_require(obj, "pv_max_kw", where)),
        bss=bss, ev=ev, wb=wb, hp=hp,
        flexible_energy_cap_kwh=_opt_float(obj, "flexible_energy_cap_kwh"),
    )


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a parsed document, without validating invariants."""
    if not isinstance(doc, dict):
        raise ScenarioParseError("top-level document must be an object")
    schema = _require(doc, "schema", "document")
    if schema != SCHEMA_VERSION:
        raise ScenarioParseError(f"unsupported schema version {schema!r}, expected {SCHEMA_VERSION}")

    h = _require(doc, "horizon", "document")
    horizon = Horizon(
        steps_per_day=int(_require(h, "steps_per_day", "horizon")),
        dt_hours=float(_require(h, "dt_hours", "horizon")),
        num_days=int(h.get("num_days", 1)),
    )
    p = _require(doc, "prices", "document")
    prices = Prices(
        import_price=_series(_require(p, "import_price", "prices")),
        export_price=_series(_require(p, "export_price", "prices")),
        community_fee=_series(_require(p, "community_fee", "prices")),
    )
    raw_members = _require(doc, "members", "document")
    if not isinstance(raw_members, list):
        raise ScenarioParseError("members: expected an array")
    members = tuple(_parse_member(m, i) for i, m in enumerate(raw_members))
    return Scenario(horizon=horizon, prices=prices, members=members)


def load_scenario(data: bytes | str) -> Scenario:
    """Parse and fully validate a scenario document.

    Raises :class:`ScenarioParseError` on malformed documents and
    :class:`ScenarioValidationError` (carrying all violations) on invariant
    breaches.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"not valid JSON: {exc}") from exc
    scenario = scenario_from_dict(doc)
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioValidationError(violations)
    return scenario


def _list(arr: np.ndarray) -> list[float]:
    return [float(v) for v in arr]


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical document form; field order is fixed for byte-stable dumps."""
    members = []
    for m in s.members:
        obj: dict[str, Any] = {
            "id": m.id,
            "fixed_load_kw": _list(m.fixed_load_kw),
            "pv_max_kw": _list(m.pv_max_kw),
            "bss": None, "ev": None, "wb": None, "hp": None,
            "flexible_energy_cap_kwh": m.flexible_energy_cap_kwh,
        }
        if m.bss:
            obj["bss"] = {
                "capacity_kwh": m.bss.capacity_kwh,
                "max_power_kw": m.bss.max_power_kw,
                "efficiency": m.bss.efficiency,
                "soc_init": m.bss.soc_init,
                "soc_min": m.bss.soc_min,
                "soc_max": m.bss.soc_max,
            }
        if m.ev:
            obj["ev"] = {
                "capacity_kwh": m.ev.capacity_kwh,
                "max_charge_kw": m.ev.max_charge_kw,
                "efficiency": m.ev.efficiency,
                "soc_init": m.ev.soc_init,
                "plugged": _list(m.ev.plugged),
                "arrival": _list(m.ev.arrival),
                "departure": _list(m.ev.departure),
                "soc_arrival": _list(m.ev.soc_arrival),
                "soc_ref": _list(m.ev.soc_ref),
                "power_ref_kw": _list(m.ev.power_ref_kw),
                "reluctance_eur": m.ev.reluctance_eur,
                "energy_cap_kwh": m.ev.energy_cap_kwh,
            }
        if m.wb:
            obj["wb"] = {
                "thermal_coeff": m.wb.thermal_coeff,
                "max_power_kw": m.wb.max_power_kw,
                "temp_init": m.wb.temp_init,
                "temp_max": _list(m.wb.temp_max),
                "temp_limit": _list(m.wb.temp_limit),
                "usage_event": _list(m.wb.usage_event),
                "usage_loss_kw": _list(m.wb.usage_loss_kw),
                "envelope_loss_kw": _list(m.wb.envelope_loss_kw),
                "power_ref_kw": _list(m.wb.power_ref_kw),
                "reluctance_eur": m.wb.reluctance_eur,
                "energy_cap_kwh": m.wb.energy_cap_kwh,
            }
        if m.hp:
            obj["hp"] = {
                "thermal_coeff": m.hp.thermal_coeff,
                "max_power_kw": m.hp.max_power_kw,
                "cop": m.hp.cop,
                "temp_init": m.hp.temp_init,
                "temp_limit": _list(m.hp.temp_limit),
                "wall_loss_kw": _list(m.hp.wall_loss_kw),
                "power_ref_kw": _list(m.hp.power_ref_kw),
                "reluctance_eur": m.hp.reluctance_eur,
                "energy_cap_kwh": m.hp.energy_cap_kwh,
            }
        members.append(obj)

    return {
        "schema": SCHEMA_VERSION,
        "horizon": {
            "steps_per_day": s.horizon.steps_per_day,
            "dt_hours": s.horizon.dt_hours,
            "num_days": s.horizon.num_days,
        },
        "prices": {
            "import_price": _list(s.prices.import_price),
            "export_price": _list(s.prices.export_price),
            "community_fee": _list(s.prices.community_fee),
        },
        "members": members,
    }


def dump_scenario(s: Scenario) -> bytes:
    """Serialize to canonical UTF-8 JSON; identical scenarios give identical bytes."""
    return json.dumps(scenario_to_dict(s), ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8")


def load_bundled_scenario(name: str = "community20") -> Scenario:
    """Load one of the scenarios shipped with the package.

    ``community20`` is a 20-member, 7-day community at 15-minute resolution
    with 70%/60%/50%/25% boiler/EV/heat-pump/battery penetration and 15 PV
    owners totaling 147 kWp.
    """
    data = resources.files("reccoord").joinpath(f"data/{name}.json").read_bytes()
    return load_scenario(data)


# ---------------------------------------------------------------------------
# Synthetic generator


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the deterministic synthetic community generator."""

    members: int
    wb_rate: float = 0.7
    ev_rate: float = 0.6
    hp_rate: float = 0.5
    bss_rate: float = 0.25
    pv_rate: float = 0.75
    pv_total_kwp: float = 147.0
    steps_per_day: int = 96
    dt_hours: float = 0.25
    num_days: int = 1
    import_price: float = 0.4
    export_price: float = 0.1
    community_fee: float = 0.01
    seed: int = 0


def _round6(arr: np.ndarray) -> np.ndarray:
    return np.round(arr, 6)


def _gauss_bump(hours: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((hours - center) / width) ** 2)


def _thermostat_wb(wb_kwargs: dict, hours_len: int, dt: float) -> np.ndarray:
    """Reference boiler heating: top the tank back up whenever it cools below
    a deadband under the initial temperature. Guarantees a limit-respecting
    reference trajectory by construction."""
    coeff = wb_kwargs["thermal_coeff"]
    pmax = wb_kwargs["max_power_kw"]
    target = wb_kwargs["temp_init"]
    usage = wb_kwargs["usage_loss_kw"]
    envelope = wb_kwargs["envelope_loss_kw"]
    power = np.zeros(hours_len)
    temp = target
    for t in range(hours_len):
        loss = usage[t] + envelope[t]
        drift = temp - dt * loss * coeff
        if drift < target - 0.5:
            need = (target - drift) / (dt * coeff)
            power[t] = min(pmax, need)
        temp = temp + dt * (power[t] - loss) * coeff
    return power


def _thermostat_hp(hp_kwargs: dict, hours_len: int, dt: float) -> np.ndarray:
    coeff = hp_kwargs["thermal_coeff"]
    pmax = hp_kwargs["max_power_kw"]
    cop = hp_kwargs["cop"]
    target = hp_kwargs["temp_init"]
    loss = hp_kwargs["wall_loss_kw"]
    power = np.zeros(hours_len)
    temp = target
    for t in range(hours_len):
        drift = temp - dt * loss[t] * coeff
        if drift < target - 0.25:
            need = (target - drift) / (dt * coeff * cop)
            power[t] = min(pmax, need)
        temp = temp + dt * (cop * power[t] - loss[t]) * coeff
    return power


def generate_synthetic(config: SyntheticConfig) -> Scenario:
    """Deterministically synthesize a valid community scenario.

    The same config (including seed) always produces byte-identical output.
    Device counts are ``floor(rate * members)``; PV peak capacities sum to
    ``pv_total_kwp`` across owners.  Reference profiles come from simple
    thermostat / plug-and-charge controllers, so they are feasible for the
    device constraints by construction.
    """
    if config.members <= 0:
        raise SyntheticConfigError("synthetic config needs at least one member")
    for name in ("wb_rate", "ev_rate", "hp_rate", "bss_rate", "pv_rate"):
        rate = getattr(config, name)
        if not 0.0 <= rate <= 1.0:
            raise SyntheticConfigError(f"{name} must be in [0,1], got {rate}")

    rng = np.random.default_rng(config.seed)
    n_members = config.members
    steps = config.steps_per_day
    dt = config.dt_hours
    total = steps * config.num_days
    hours = ((np.arange(total) % steps) + 0.5) * dt  # step-center hour of day
    day_index = np.arange(total) // steps

    def pick(rate: float) -> set[int]:
        count = math.floor(rate * n_members)
        return set(rng.choice(n_members, size=count, replace=False).tolist())

    wb_owners = pick(config.wb_rate)
    ev_owners = pick(config.ev_rate)
    hp_owners = pick(config.hp_rate)
    bss_owners = pick(config.bss_rate)
    pv_owners = sorted(pick(config.pv_rate))

    # PV nominal capacities: uniform draws rescaled to the exact community total.
    kwp = np.zeros(n_members)
    if pv_owners and config.pv_total_kwp > 0:
        draws = rng.uniform(2.0, 20.0, size=len(pv_owners))
        draws *= config.pv_total_kwp / draws.sum()
        for i, owner in enumerate(pv_owners):
            kwp[owner] = draws[i]

    # Clear-sky bell with its peak pinned on the step grid so that the
    # per-member series maximum equals the nominal kWp exactly.
    peak_hour = hours[np.argmin(np.abs(hours[:steps] - 12.5))]
    bell = np.cos(np.pi * (hours - peak_hour) / 13.0) ** 2
    bell[np.abs(hours - peak_hour) > 6.5] = 0.0
    cloud = np.ones(config.num_days)
    if config.num_days > 1:
        cloud[1:] = rng.uniform(0.55, 0.95, size=config.num_days - 1)
    bell = bell * cloud[day_index]

    members = []
    for i in range(n_members):
        member_id = f"u{i + 1:02d}"
        base = rng.uniform(0.12, 0.3)
        morning = rng.uniform(0.3, 0.8) * _gauss_bump(hours, rng.uniform(6.8, 8.2), 1.4)
        evening = rng.uniform(0.5, 1.3) * _gauss_bump(hours, rng.uniform(18.0, 20.5), 2.0)
        noise = rng.uniform(0.0, 0.05, size=total)
        fixed = _round6(base + morning + evening + noise)

        pv = _round6(kwp[i] * bell) if kwp[i] > 0 else np.zeros(total)

        bss = None
        if i in bss_owners:
            bss = BssParams(
                capacity_kwh=round(rng.uniform(5.0, 14.0), 3),
                max_power_kw=round(rng.uniform(3.0, 6.0), 3),
                efficiency=0.95,
                soc_init=0.5,
                soc_min=0.1,
                soc_max=0.95,
            )

        ev = None
        if i in ev_owners:
            ev = _make_ev(rng, steps, config.num_days, dt)

        wb = None
        if i in wb_owners:
            wb = _make_wb(rng, hours, total, dt)

        hp = None
        if i in hp_owners:
            hp = _make_hp(rng, hours, total, dt)

        flex_cap = 0.0
        for dev in (ev, wb, hp):
            if dev is not None:
                flex_cap += float(np.sum(dev.power_ref_kw)) * dt
        members.append(Member(
            id=member_id,
            fixed_load_kw=fixed,
            pv_max_kw=pv,
            bss=bss, ev=ev, wb=wb, hp=hp,
            flexible_energy_cap_kwh=round(flex_cap, 6) if flex_cap else None,
        ))

    n = total
    prices = Prices(
        import_price=np.full(n, config.import_price),
        export_price=np.full(n, config.export_price),
        community_fee=np.full(n, config.community_fee),
    )
    return Scenario(
        horizon=Horizon(steps, dt, config.num_days),
        prices=prices,
        members=tuple(members),
    )


def _make_ev(rng: np.random.Generator, steps: int, num_days: int, dt: float) -> EvParams:
    total = steps * num_days
    capacity = round(rng.uniform(40.0, 70.0), 3)
    pmax = round(rng.uniform(4.0, 9.0), 3)
    eta = 0.92
    away_start_h = rng.uniform(7.5, 9.0)
    away_end_h = rng.uniform(17.0, 19.0)
    trip_frac = rng.uniform(0.08, 0.2)  # SoC consumed per round trip
    target = rng.uniform(0.8, 0.9)

    plugged = np.ones(total)
    arrival = np.zeros(total)
    departure = np.zeros(total)
    # coarse grids can collapse the away window; then the vehicle just stays
    # plugged with no trips
    away_from = max(1, int(away_start_h / dt))
    away_to = min(steps - 1, int(away_end_h / dt))
    if away_to > away_from:
        for d in range(num_days):
            a = d * steps + away_from
            b = d * steps + away_to
            plugged[a:b] = 0.0
            departure[a - 1] = 1.0
            arrival[b] = 1.0

    # Plug-and-charge reference: charge at a comfortable rate whenever plugged
    # and below target; the resulting trajectory doubles as the SoC reference.
    power_ref = np.zeros(total)
    soc_arrival = np.zeros(total)
    soc_ref = np.zeros(total)
    soc = target
    rate = round(0.7 * pmax, 6)
    for t in range(total):
        if arrival[t] == 1.0:
            soc = max(0.05, soc - trip_frac)  # post-trip level replaces the state
            soc_arrival[t] = soc
        if plugged[t] == 1.0 and soc < target:
            headroom = (target - soc) * capacity / (dt * eta)
            power_ref[t] = min(rate, round(headroom, 6))
        soc = soc + dt * eta * power_ref[t] / capacity
        soc_ref[t] = soc

    return EvParams(
        capacity_kwh=capacity,
        max_charge_kw=pmax,
        efficiency=eta,
        soc_init=target,
        plugged=plugged,
        arrival=arrival,
        departure=departure,
        soc_arrival=soc_arrival,
        soc_ref=np.minimum(soc_ref, 1.0),
        power_ref_kw=power_ref,
        reluctance_eur=round(rng.uniform(0.5, 2.0), 3),
        energy_cap_kwh=round(float(np.sum(power_ref)) * dt, 6),
    )


def _make_wb(rng: np.random.Generator, hours: np.ndarray, total: int, dt: float) -> WbParams:
    coeff = round(rng.uniform(3.5, 5.0), 3)
    pmax = round(rng.uniform(2.2, 3.0), 3)
    usage = np.zeros(total)
    morning = rng.uniform(6.5, 8.0)
    evening = rng.uniform(19.0, 21.0)
    draw = round(rng.uniform(1.2, 2.0), 3)
    in_event = (np.abs(hours - morning) < 0.4) | (np.abs(hours - evening) < 0.4)
    usage[in_event] = draw
    usage_event = (usage > 0).astype(float)
    envelope = np.full(total, round(rng.uniform(0.04, 0.09), 6))

    kwargs = dict(
        thermal_coeff=coeff,
        max_power_kw=pmax,
        temp_init=60.0,
        usage_loss_kw=usage,
        envelope_loss_kw=envelope,
    )
    power_ref = _round6(_thermostat_wb(kwargs, total, dt))
    return WbParams(
        thermal_coeff=coeff,
        max_power_kw=pmax,
        temp_init=60.0,
        temp_max=np.full(total, 80.0),
        temp_limit=np.full(total, 50.0),
        usage_event=usage_event,
        usage_loss_kw=usage,
        envelope_loss_kw=envelope,
        power_ref_kw=power_ref,
        reluctance_eur=1.0,
        energy_cap_kwh=round(float(np.sum(power_ref)) * dt, 6),
    )


def _make_hp(rng: np.random.Generator, hours: np.ndarray, total: int, dt: float) -> HpParams:
    coeff = round(rng.uniform(0.15, 0.3), 3)
    pmax = round(rng.uniform(2.5, 4.0), 3)
    cop = round(rng.uniform(2.5, 3.5), 3)
    base_loss = rng.uniform(0.8, 1.8)
    # Colder (larger losses) at night, mildest mid-afternoon.
    loss = _round6(base_loss * (1.0 + 0.35 * np.cos(2 * np.pi * (hours - 14.0) / 24.0)))

    kwargs = dict(
        thermal_coeff=coeff,
        max_power_kw=pmax,
        cop=cop,
        temp_init=20.5,
        wall_loss_kw=loss,
    )
    power_ref = _round6(_thermostat_hp(kwargs, total, dt))
    return HpParams(
        thermal_coeff=coeff,
        max_power_kw=pmax,
        cop=cop,
        temp_init=20.5,
        temp_limit=np.full(total, 19.5),
        wall_loss_kw=loss,
        power_ref_kw=power_ref,
        reluctance_eur=1.0,
        energy_cap_kwh=round(float(np.sum(power_ref)) * dt, 6),
    )
