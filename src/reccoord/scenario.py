"""Community scenario model: domain types, JSON ingestion, validation, synthesis.

A :class:`Scenario` bundles everything a planner needs for one community:
the time grid, retail/community prices, and the per-member fixed loads, PV
availability and flexible-device parameters.  All per-timestep series are
flat arrays of length ``steps_per_day * num_days``.

Types are immutable after construction (arrays are locked read-only) and
deliberately permissive: semantic checks live in :func:`validate_scenario`,
which returns machine-readable violations instead of raising.

The dataclasses are also the document format: a scenario document's keys are
their field names, and a key is optional when its field has a default.  Both
directions walk the fields: :func:`scenario_from_dict` reads each one's key,
and :func:`dump_scenario` writes them in declaration order.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources
from typing import Any

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


def _series(values: Any, path: str) -> np.ndarray:
    """``values`` as a read-only float64 vector.  A read-only view of a
    read-only float64 vector is kept as it is, so slices share memory; any
    other input is copied and locked."""
    if (isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1
            and not values.flags.writeable and isinstance(values.base, np.ndarray)
            and not values.base.flags.writeable):
        return values
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise ScenarioParseError(f"{path}: expected a flat numeric array") from None
    except OverflowError:
        raise ScenarioParseError(f"{path}: a number is out of the float range") from None
    if arr.ndim != 1:
        raise ScenarioParseError(f"{path}: expected a flat numeric array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr.view()


def _document_series(values: Any, path: str) -> np.ndarray:
    """A document's series through :func:`_series`; a list holding a string,
    a boolean or null is a parse error naming ``path``.  A nested list is
    left to :func:`_series`, which names its shape."""
    if isinstance(values, list) and not set(map(type, values)) <= {int, float, list}:
        raise ScenarioParseError(f"{path}: expected a flat numeric array")
    return _series(values, path)


def _scalar(conv: type, value: Any, path: str) -> Any:
    """``conv(value)``; a value it cannot convert exactly is a parse error
    naming ``path``: a bool, a string, for ``int`` a float with a fractional
    part, and a number out of the float range (the horizon's arithmetic is in
    floats)."""
    try:
        if isinstance(value, (bool, str)) or (conv is int and isinstance(value, float)
                                              and not value.is_integer()):
            raise ValueError
        if conv is int:
            float(value)  # an OverflowError beyond the float range
        return conv(value)
    except (TypeError, ValueError):
        raise ScenarioParseError(f"{path}: expected {conv.__name__}, got {value!r}") from None
    except OverflowError:
        raise ScenarioParseError(f"{path}: expected {conv.__name__}, got a number out of "
                                 f"the float range") from None


class _Series:
    """Dataclass whose ``_SERIES`` fields are per-step arrays, locked read-only.

    ``_DOMAINS`` maps fields to the value range :func:`validate_scenario`
    enforces on them (on every entry of a series): ``">0"``, ``">=0"``,
    ``"(0,1]"``, ``"[0,1]"`` or ``"{0,1}"``.
    """

    _SERIES: tuple[str, ...] = ()
    _DOMAINS: dict[str, str] = {}

    def __post_init__(self) -> None:
        for name in self._SERIES:
            object.__setattr__(self, name, _series(getattr(self, name), name))

    def sliced(self, sl: slice):
        """A copy holding views on ``sl`` of every series, its devices' too."""
        changes: dict[str, Any] = {}
        for name, value in vars(self).items():
            if name in self._SERIES:
                changes[name] = value[sl]
            elif isinstance(value, _Series):
                changes[name] = value.sliced(sl)
        return replace(self, **changes)


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
class Prices(_Series):
    """Per-timestep tariffs in EUR/kWh: retailer import/export and community fee."""

    import_price: np.ndarray
    export_price: np.ndarray
    community_fee: np.ndarray

    _SERIES = ("import_price", "export_price", "community_fee")
    _DOMAINS = dict.fromkeys(_SERIES, ">=0")


@dataclass(frozen=True, eq=False)
class BssParams(_Series):
    """Stationary battery: capacity, symmetric power limit, round-trip split efficiency."""

    capacity_kwh: float
    max_power_kw: float
    efficiency: float
    soc_init: float
    soc_min: float = 0.0
    soc_max: float = 1.0

    _DOMAINS = {"capacity_kwh": ">0", "max_power_kw": ">=0", "efficiency": "(0,1]",
                "soc_min": "[0,1]", "soc_max": "[0,1]"}


@dataclass(frozen=True, eq=False)
class EvParams(_Series):
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

    _SERIES = ("plugged", "arrival", "departure", "soc_arrival", "soc_ref", "power_ref_kw")
    _DOMAINS = {"capacity_kwh": ">0", "max_charge_kw": ">=0", "efficiency": "(0,1]",
                "soc_init": "[0,1]", "reluctance_eur": ">=0", "plugged": "{0,1}",
                "arrival": "{0,1}", "departure": "{0,1}", "soc_arrival": "[0,1]",
                "soc_ref": "[0,1]", "power_ref_kw": ">=0"}


@dataclass(frozen=True, eq=False)
class WbParams(_Series):
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

    _SERIES = ("temp_max", "temp_limit", "usage_event", "usage_loss_kw",
               "envelope_loss_kw", "power_ref_kw")
    _DOMAINS = {"thermal_coeff": ">0", "max_power_kw": ">=0", "reluctance_eur": ">=0",
                "usage_event": "{0,1}", "usage_loss_kw": ">=0", "envelope_loss_kw": ">=0",
                "power_ref_kw": ">=0"}


@dataclass(frozen=True, eq=False)
class HpParams(_Series):
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

    _SERIES = ("temp_limit", "wall_loss_kw", "power_ref_kw")
    _DOMAINS = {"thermal_coeff": ">0", "cop": ">0", "max_power_kw": ">=0",
                "reluctance_eur": ">=0", "wall_loss_kw": ">=0", "power_ref_kw": ">=0"}


#: Each member's device slots: attribute and document key -> parameter class.
DEVICE_PARAMS = {"bss": BssParams, "ev": EvParams, "wb": WbParams, "hp": HpParams}


@dataclass(frozen=True, eq=False)
class Member(_Series):
    """One community member: fixed load, PV availability, optional devices."""

    id: str
    fixed_load_kw: np.ndarray
    pv_max_kw: np.ndarray
    bss: BssParams | None = None
    ev: EvParams | None = None
    wb: WbParams | None = None
    hp: HpParams | None = None

    _SERIES = ("fixed_load_kw", "pv_max_kw")
    _DOMAINS = dict.fromkeys(_SERIES, ">=0")

    def devices(self) -> dict[str, _Series]:
        """The member's devices by slot name, in :data:`DEVICE_PARAMS` order."""
        return {name: d for name in DEVICE_PARAMS if (d := getattr(self, name)) is not None}

    @property
    def has_flexibility(self) -> bool:
        """Whether the member owns any controllable asset (device or battery)."""
        return bool(self.devices())


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


#: Scalar value ranges: domain -> (holds, message).
_SCALAR_DOMAINS = {
    ">0": (lambda v: v > 0, "must be > 0"),
    ">=0": (lambda v: v >= 0, "must be >= 0"),
    "(0,1]": (lambda v: 0.0 < v <= 1.0, "value {} out of (0,1]"),
    "[0,1]": (lambda v: 0.0 <= v <= 1.0, "value {} out of [0,1]"),
}

#: Per-entry series value ranges: domain -> (entries that hold, message).
_SERIES_DOMAINS = {
    ">=0": (lambda a: a >= 0, "negative value {}"),
    "{0,1}": (lambda a: np.isin(a, _BINARY), "indicator value {} not in {{0,1}}"),
    "[0,1]": (lambda a: (a >= 0) & (a <= 1), "value {} out of [0,1]"),
}


def _check_series(out: list[Violation], path: str, arr: np.ndarray, n: int,
                  domain: str | None) -> bool:
    """Length and per-entry domain checks. Returns False on length mismatch."""
    if len(arr) != n:
        out.append(Violation(path, f"series length {len(arr)} != horizon length {n}"))
        return False
    if not np.all(np.isfinite(arr)):
        t = int(np.flatnonzero(~np.isfinite(arr))[0])
        out.append(Violation(f"{path}[{t}]", "non-finite value"))
        return False
    if domain is not None:
        holds, message = _SERIES_DOMAINS[domain]
        bad = np.flatnonzero(~holds(arr))
        if bad.size:
            t = int(bad[0])
            out.append(Violation(f"{path}[{t}]", message.format(arr[t])))
    return True


def _every(out: list[Violation], path: str, bad: np.ndarray, message: str) -> None:
    """A violation at every step flagged in ``bad``."""
    out.extend(Violation(f"{path}[{t}]", message) for t in np.flatnonzero(bad).tolist())


def _check_domains(out: list[Violation], path: str, obj: _Series, n: int) -> bool:
    """Every scalar's finiteness and declared domain, then every series' length
    and domain.  Returns False when a field is unusable (a non-finite scalar,
    a series of the wrong length or with a non-finite entry)."""
    ok = True
    for f in fields(obj):
        if f.name in obj._SERIES:
            continue
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            out.append(Violation(f"{path}.{f.name}", "non-finite value"))
            ok = False
        elif f.name in obj._DOMAINS:
            holds, message = _SCALAR_DOMAINS[obj._DOMAINS[f.name]]
            if not holds(value):
                out.append(Violation(f"{path}.{f.name}", message.format(value)))
    for name in obj._SERIES:
        ok &= _check_series(out, f"{path}.{name}", getattr(obj, name), n,
                            obj._DOMAINS.get(name))
    return ok


def _validate_device(out: list[Violation], path: str, d: _Series, n: int,
                     steps_per_day: int) -> None:
    """The declared domains, then the rules that relate several fields."""
    if not _check_domains(out, path, d, n):
        return

    if isinstance(d, BssParams):
        if d.soc_min > d.soc_max:
            out.append(Violation(f"{path}.soc_min", "soc_min > soc_max"))
        if not d.soc_min <= d.soc_init <= d.soc_max:
            out.append(Violation(f"{path}.soc_init", "soc_init out of [soc_min,soc_max]"))
    elif isinstance(d, EvParams):
        unplugged = d.plugged != 1.0
        plugged_next = np.append(d.plugged[1:] != 0.0, False)
        plugged_next[steps_per_day - 1::steps_per_day] = False  # a new day starts over
        _every(out, f"{path}.arrival", (d.arrival == 1.0) & unplugged,
               "arrival while not plugged")
        _every(out, f"{path}.departure", (d.departure == 1.0) & unplugged,
               "departure while not plugged")
        _every(out, f"{path}.departure", (d.departure == 1.0) & plugged_next,
               "still plugged at the step after departure")
        _every(out, f"{path}.power_ref_kw", (d.power_ref_kw > 0) & unplugged,
               "positive reference power while not plugged")
        for t in np.flatnonzero(d.power_ref_kw > d.max_charge_kw + 1e-9).tolist():
            out.append(Violation(f"{path}.power_ref_kw[{t}]",
                                 f"reference power {d.power_ref_kw[t]} above charger limit"))
    else:
        # the first offending step only
        if isinstance(d, WbParams) and np.any(bad := d.temp_limit > d.temp_max):
            out.append(Violation(f"{path}.temp_limit[{np.argmax(bad)}]",
                                 "temp_limit above temp_max"))
        if np.any(bad := d.power_ref_kw > d.max_power_kw + 1e-9):
            out.append(Violation(f"{path}.power_ref_kw[{np.argmax(bad)}]",
                                 "reference power above rating"))


class _FieldReads:
    """A device's parameters, recording the names of the fields read."""

    def __init__(self, device: _Series):
        self._device = device
        self.names: list[str] = []

    def __getattr__(self, name: str) -> Any:
        self.names.append(name)
        return getattr(self._device, name)


def _check_lp_coefficients(out: list[Violation], path: str, name: str, d: _Series,
                           dt: float) -> None:
    """Each coefficient the LP device block derives from ``d``, a device that
    passes every other rule, is finite.

    Finite fields in their domains can still overflow in a product or a
    quotient (a capacity of 1e-310 in a state gain); each non-finite
    coefficient is reported once, naming the fields it comes from.
    """
    from .devices import DEVICES  # local import: devices depends on this module

    if name == "bss":  # the state gains of the charge and discharge powers
        coefficients = {
            "charge gain": lambda bss: dt * bss.efficiency / bss.capacity_kwh,
            "discharge gain": lambda bss: dt / (bss.efficiency * bss.capacity_kwh)}
    else:
        spec = next(spec for spec in DEVICES if spec.name == name)
        coefficients = {
            "state recurrence": lambda params: spec.recurrence(params, dt),
            "power rating": spec.max_power, "state floor": spec.floor,
            "state ceiling": spec.ceiling,
            "discomfort offset": lambda params: params.reluctance_eur * spec.target(params)}
    for what, coefficient in coefficients.items():
        if coefficient is None:
            continue
        reads = _FieldReads(d)
        with np.errstate(over="ignore", invalid="ignore"):
            values = coefficient(reads)
        if not all(np.isfinite(v).all() for v in
                   (values if isinstance(values, tuple) else (values,))):
            out.append(Violation(path, f"non-finite LP {what} coefficient from "
                                       f"{', '.join(dict.fromkeys(reads.names))}"))


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
    if _check_domains(out, "prices", scenario.prices, n):
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

    if not scenario.members:
        out.append(Violation("members", "needs at least one member"))
    seen: set[str] = set()
    for i, m in enumerate(scenario.members):
        path = f"members[{i}]"
        if m.id in seen:
            out.append(Violation(f"{path}.id", f"duplicate member id {m.id!r}"))
        seen.add(m.id)
        _check_domains(out, path, m, n)
        for name, device in m.devices().items():
            found = len(out)
            _validate_device(out, f"{path}.{name}", device, n, hor.steps_per_day)
            if len(out) == found:
                _check_lp_coefficients(out, f"{path}.{name}", name, device, hor.dt_hours)

    return out


# ---------------------------------------------------------------------------
# JSON ingestion / serialization


def _require(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ScenarioParseError(f"{where}: expected an object")
    if key not in obj:
        raise ScenarioParseError(f"{where}: missing required field {key!r}")
    return obj[key]


#: Scalar field annotations -> the type a document value must convert to.
_SCALAR_TYPES = {"int": int, "float": float}


def _parse(cls: type, obj: Any, where: str, **given: Any) -> Any:
    """A ``cls`` instance from document object ``obj``, one key per field in
    declaration order; ``given`` holds fields already read.  A series goes
    through :func:`_document_series`, a scalar through :func:`_scalar` with its
    annotated type and a device slot (unless absent or null) through its
    class; a missing key with a default takes the default, and unknown keys
    are ignored."""
    if not isinstance(obj, dict):
        raise ScenarioParseError(f"{where}: expected an object")
    for f in fields(cls):
        name, path = f.name, f"{where}.{f.name}"
        if name in given or (name not in obj and f.default is not MISSING):
            continue
        if name in DEVICE_PARAMS:
            if obj[name] is not None:
                given[name] = _parse(DEVICE_PARAMS[name], obj[name], path)
        elif name in getattr(cls, "_SERIES", ()):
            given[name] = _document_series(_require(obj, name, where), path)
        else:
            given[name] = _scalar(_SCALAR_TYPES[f.type], _require(obj, name, where), path)
    return cls(**given)


def _parse_member(obj: Any, idx: int) -> Member:
    member_id = _require(obj, "id", f"members[{idx}]")
    if not isinstance(member_id, str):
        raise ScenarioParseError(f"members[{idx}].id: expected a string, got {member_id!r}")
    return _parse(Member, obj, f"members[{idx}] (id={member_id})", id=member_id)


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a parsed document, without validating invariants."""
    if not isinstance(doc, dict):
        raise ScenarioParseError("top-level document must be an object")
    schema = _require(doc, "schema", "document")
    if schema != SCHEMA_VERSION:
        raise ScenarioParseError(f"unsupported schema version {schema!r}, expected {SCHEMA_VERSION}")

    horizon = _parse(Horizon, _require(doc, "horizon", "document"), "horizon")
    prices = _parse(Prices, _require(doc, "prices", "document"), "prices")
    raw_members = _require(doc, "members", "document")
    if not isinstance(raw_members, list):
        raise ScenarioParseError("members: expected an array")
    members = tuple(_parse_member(m, i) for i, m in enumerate(raw_members))
    return Scenario(horizon=horizon, prices=prices, members=members)


#: Document keys whose arrays :func:`load_scenario` decodes straight into
#: read-only float64 vectors: every per-step series field.
_SERIES_KEYS = frozenset(
    name for cls in (Prices, Member, *DEVICE_PARAMS.values()) for name in cls._SERIES
)


def _decode_series(obj: dict) -> dict:
    """``json.loads`` object hook: each flat list of JSON numbers under a
    series key as a read-only float64 vector, made as soon as the object
    holding it closes.  A list that does not convert stays a list, for the
    parser to reject naming its field."""
    for key in _SERIES_KEYS.intersection(obj):
        if isinstance(obj[key], list):
            try:
                obj[key] = _document_series(obj[key], key)
            except ScenarioParseError:
                pass
    return obj


def load_scenario(data: bytes | str) -> Scenario:
    """Parse and fully validate a scenario document.

    Series are decoded straight into read-only float64 arrays, one object at
    a time, so the numbers never all exist as Python floats: a load peaks at
    about 2.5 times the document's size.

    Raises :class:`ScenarioParseError` on malformed documents and
    :class:`ScenarioValidationError` (carrying all violations) on invariant
    breaches.
    """
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data,
                         object_hook=_decode_series)
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"document is not UTF-8: {exc}") from None
    except ValueError as exc:  # also an integer literal beyond Python's digit limit
        raise ScenarioParseError(f"not valid JSON: {exc}") from exc
    scenario = scenario_from_dict(doc)
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioValidationError(violations)
    return scenario


def _to_dict(obj: Any) -> dict[str, Any]:
    """A dataclass's fields in declaration order: arrays as lists, devices as
    nested objects and absent devices as ``null``."""
    out: dict[str, Any] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, _Series):
            value = _to_dict(value)
        out[f.name] = value
    return out


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical document form; field order is fixed for byte-stable dumps."""
    return {"schema": SCHEMA_VERSION, "horizon": _to_dict(s.horizon),
            "prices": _to_dict(s.prices), "members": [_to_dict(m) for m in s.members]}


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
    dt_hours: float = 0.25
    num_days: int = 1
    seed: int = 0


#: Flat prices of every generated scenario, EUR/kWh.
SYNTHETIC_IMPORT_PRICE = 0.4
SYNTHETIC_EXPORT_PRICE = 0.1
SYNTHETIC_COMMUNITY_FEE = 0.01

#: The generator's finest resolution: one-minute steps.
SYNTHETIC_MAX_STEPS_PER_DAY = 1440


def _round6(arr: np.ndarray) -> np.ndarray:
    return np.round(arr, 6)


def _gauss_bump(hours: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((hours - center) / width) ** 2)


def _thermostat(loss_kw: np.ndarray, gain: float, coeff: float, pmax: float, target: float,
                deadband: float, dt: float) -> np.ndarray:
    """Reference heating: top the temperature back up to ``target`` whenever
    it would drift more than ``deadband`` below it, ``gain`` kW of heat per kW
    of input.  Guarantees a limit-respecting reference trajectory by
    construction."""
    power = np.zeros(len(loss_kw))
    temp = target
    for t in range(len(loss_kw)):
        drift = temp - dt * loss_kw[t] * coeff
        if drift < target - deadband:
            need = (target - drift) / (dt * coeff * gain)
            power[t] = min(pmax, need)
        temp = temp + dt * (gain * power[t] - loss_kw[t]) * coeff
    return power


def generate_synthetic(config: SyntheticConfig) -> Scenario:
    """Deterministically synthesize a valid community scenario.

    The same config (including seed) always produces byte-identical output.
    Device counts are ``floor(rate * members)``; PV peak capacities sum to
    ``pv_total_kwp`` across owners.  Reference profiles come from simple
    thermostat / plug-and-charge controllers, so they are feasible for the
    device constraints by construction.  ``dt_hours`` must split the day into
    whole steps, at most :data:`SYNTHETIC_MAX_STEPS_PER_DAY` of them.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        integral = f.type == "int"
        if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if integral else numbers.Real):
            raise SyntheticConfigError(f"{f.name} must be "
                                       f"{'an integer' if integral else 'a real number'}, "
                                       f"got {value!r}")
    if config.members <= 0:
        raise SyntheticConfigError("synthetic config needs at least one member")
    for name in ("wb_rate", "ev_rate", "hp_rate", "bss_rate", "pv_rate"):
        rate = getattr(config, name)
        if not 0.0 <= rate <= 1.0:
            raise SyntheticConfigError(f"{name} must be in [0,1], got {rate}")
    if not 0.0 <= config.pv_total_kwp < math.inf:
        raise SyntheticConfigError(f"pv_total_kwp must be finite and >= 0, got {config.pv_total_kwp}")
    dt = config.dt_hours
    if not 0.0 < dt <= 24.0:
        raise SyntheticConfigError(f"dt_hours must be in (0, 24], got {dt}")
    per_day = 24.0 / dt
    if per_day > SYNTHETIC_MAX_STEPS_PER_DAY:
        raise SyntheticConfigError(f"dt_hours {dt} makes more than "
                                   f"{SYNTHETIC_MAX_STEPS_PER_DAY} steps a day")
    if abs(per_day - round(per_day)) > 1e-9:
        raise SyntheticConfigError(f"dt_hours {dt} does not divide 24 hours evenly")
    steps = round(per_day)
    if config.num_days < 1:
        raise SyntheticConfigError(f"num_days must be at least 1, got {config.num_days}")
    if config.seed < 0:
        raise SyntheticConfigError(f"seed must be nonnegative, got {config.seed}")

    rng = np.random.default_rng(config.seed)
    n_members = config.members
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

        # devices draw from the generator in this order: bss, ev, wb, hp
        bss = BssParams(
            capacity_kwh=round(rng.uniform(5.0, 14.0), 3),
            max_power_kw=round(rng.uniform(3.0, 6.0), 3),
            efficiency=0.95,
            soc_init=0.5,
            soc_min=0.1,
            soc_max=0.95,
        ) if i in bss_owners else None
        ev = _make_ev(rng, steps, config.num_days, dt) if i in ev_owners else None
        wb = _make_wb(rng, hours, total, dt) if i in wb_owners else None
        hp = _make_hp(rng, hours, total, dt) if i in hp_owners else None
        members.append(Member(id=member_id, fixed_load_kw=fixed, pv_max_kw=pv,
                              bss=bss, ev=ev, wb=wb, hp=hp))

    n = total
    prices = Prices(
        import_price=np.full(n, SYNTHETIC_IMPORT_PRICE),
        export_price=np.full(n, SYNTHETIC_EXPORT_PRICE),
        community_fee=np.full(n, SYNTHETIC_COMMUNITY_FEE),
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

    power_ref = _round6(_thermostat(usage + envelope, 1.0, coeff, pmax, 60.0, 0.5, dt))
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
    )


def _make_hp(rng: np.random.Generator, hours: np.ndarray, total: int, dt: float) -> HpParams:
    coeff = round(rng.uniform(0.15, 0.3), 3)
    pmax = round(rng.uniform(2.5, 4.0), 3)
    cop = round(rng.uniform(2.5, 3.5), 3)
    base_loss = rng.uniform(0.8, 1.8)
    # Colder (larger losses) at night, mildest mid-afternoon.
    loss = _round6(base_loss * (1.0 + 0.35 * np.cos(2 * np.pi * (hours - 14.0) / 24.0)))

    power_ref = _round6(_thermostat(loss, cop, coeff, pmax, 20.5, 0.25, dt))
    return HpParams(
        thermal_coeff=coeff,
        max_power_kw=pmax,
        cop=cop,
        temp_init=20.5,
        temp_limit=np.full(total, 19.5),
        wall_loss_kw=loss,
        power_ref_kw=power_ref,
        reluctance_eur=1.0,
    )
