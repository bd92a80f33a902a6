"""Scenario ingestion, validation, serialization and the synthetic generator."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest

from reccoord.scenario import (DEVICE_PARAMS, Member, ScenarioParseError,
                               ScenarioValidationError, SyntheticConfig, SyntheticConfigError,
                               Violation, dump_scenario, generate_synthetic,
                               load_bundled_scenario, load_scenario, scenario_from_dict,
                               scenario_to_dict, validate_scenario)
from helpers import (make_member, make_scenario, simple_bss, simple_ev, simple_hp,
                     simple_wb)

MINIMAL_DOC = {
    "schema": 1,
    "horizon": {"steps_per_day": 4, "dt_hours": 6.0, "num_days": 1},
    "prices": {
        "import_price": [0.4] * 4,
        "export_price": [0.1] * 4,
        "community_fee": [0.01] * 4,
    },
    "members": [
        {"id": "u01", "fixed_load_kw": [0.5, 0.4, 0.3, 0.6], "pv_max_kw": [0, 1, 2, 0]},
    ],
}


def test_minimal_document_loads():
    s = load_scenario(json.dumps(MINIMAL_DOC))
    assert len(s.members) == 1
    assert s.horizon.total_steps == 4
    assert s.members[0].bss is None
    assert validate_scenario(s) == []


def test_malformed_json_is_a_parse_error():
    with pytest.raises(ScenarioParseError, match="not valid JSON"):
        load_scenario(b"{nope")


def test_missing_field_is_a_parse_error():
    doc = dict(MINIMAL_DOC)
    doc.pop("prices")
    with pytest.raises(ScenarioParseError, match="prices"):
        load_scenario(json.dumps(doc))


def test_wrong_schema_version_rejected():
    doc = dict(MINIMAL_DOC, schema=2)
    with pytest.raises(ScenarioParseError, match="schema"):
        load_scenario(json.dumps(doc))


def _edited(edit) -> bytes:
    """:data:`MINIMAL_DOC` after ``edit``, as document bytes."""
    doc = json.loads(json.dumps(MINIMAL_DOC))
    edit(doc)
    return json.dumps(doc).encode()


def _member_bss(doc, **changes):
    doc["members"][0]["bss"] = {"capacity_kwh": 10.0, "max_power_kw": 5.0, "efficiency": 0.9,
                                "soc_init": 0.5, **changes}


#: Edits that put a value other than a JSON number where a number belongs,
#: with the parse error each one makes.
_NOT_NUMBERS = [
    (lambda d: d["horizon"].update(dt_hours="6"), "horizon.dt_hours: expected float, got '6'"),
    (lambda d: d["horizon"].update(num_days="1"), "horizon.num_days: expected int, got '1'"),
    (lambda d: d["members"][0]["fixed_load_kw"].__setitem__(1, "0.4"),
     "members[0] (id=u01).fixed_load_kw: expected a flat numeric array"),
    (lambda d: d["prices"].update(community_fee=[True] * 4),
     "prices.community_fee: expected a flat numeric array"),
    (lambda d: d["members"][0]["pv_max_kw"].__setitem__(2, True),
     "members[0] (id=u01).pv_max_kw: expected a flat numeric array"),
    (lambda d: d["members"][0]["fixed_load_kw"].__setitem__(0, None),
     "members[0] (id=u01).fixed_load_kw: expected a flat numeric array"),
]
_NOT_NUMBER_IDS = ["float-numeric-string", "int-numeric-string", "series-string",
                   "series-all-bool", "series-bool-among-floats", "series-null"]


@pytest.mark.parametrize("data, message", [
    (json.dumps(MINIMAL_DOC).encode().replace(b"u01", b"u\xff1"),
     "document is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    (_edited(lambda d: d["members"][0].update(fixed_load_kw=["x", "y"])),
     "members[0] (id=u01).fixed_load_kw: expected a flat numeric array"),
    (_edited(lambda d: d["prices"].update(community_fee=[[0.01]] * 4)),
     "prices.community_fee: expected a flat numeric array, got shape (4, 1)"),
    (_edited(lambda d: _member_bss(d, capacity_kwh="big")),
     "members[0] (id=u01).bss.capacity_kwh: expected float, got 'big'"),
    (_edited(lambda d: _member_bss(d, soc_min=None)),
     "members[0] (id=u01).bss.soc_min: expected float, got None"),
    (_edited(lambda d: d["horizon"].update(steps_per_day="two")),
     "horizon.steps_per_day: expected int, got 'two'"),
    (_edited(lambda d: d["horizon"].update(num_days=1.9)),
     "horizon.num_days: expected int, got 1.9"),
    (_edited(lambda d: d["horizon"].update(num_days=True)),
     "horizon.num_days: expected int, got True"),
    (_edited(lambda d: d["horizon"].update(steps_per_day=float("inf"))),
     "horizon.steps_per_day: expected int, got inf"),
    (_edited(lambda d: d["horizon"].update(dt_hours=False)),
     "horizon.dt_hours: expected float, got False"),
    (_edited(lambda d: _member_bss(d, efficiency=True)),
     "members[0] (id=u01).bss.efficiency: expected float, got True"),
    (_edited(lambda d: d.update(prices=None)), "prices: expected an object"),
    (_edited(lambda d: d.update(horizon=[4, 6.0])), "horizon: expected an object"),
    (_edited(lambda d: d["members"][0]["fixed_load_kw"].__setitem__(1, 10**400)),
     "members[0] (id=u01).fixed_load_kw: a number is out of the float range"),
    (_edited(lambda d: _member_bss(d, capacity_kwh=10**400)),
     "members[0] (id=u01).bss.capacity_kwh: expected float, got a number out of the "
     "float range"),
    (_edited(lambda d: d["horizon"].update(steps_per_day=10**400)),
     "horizon.steps_per_day: expected int, got a number out of the float range"),
    (json.dumps(MINIMAL_DOC).replace('"num_days": 1', '"num_days": 1' + "0" * 5000),
     "not valid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
    (_edited(lambda d: d["members"][0].update(id=None)),
     "members[0].id: expected a string, got None"),
    (_edited(lambda d: d["members"].append(dict(d["members"][0], id=1))),
     "members[1].id: expected a string, got 1"),
    *[(_edited(edit), message) for edit, message in _NOT_NUMBERS],
], ids=["not-utf8", "series-of-strings", "nested-series", "scalar-string", "scalar-null",
        "int-string", "int-fraction", "int-bool", "int-infinite", "float-bool",
        "device-float-bool", "prices-null", "horizon-array", "series-overflow",
        "float-overflow", "int-overflow", "int-beyond-digit-limit", "id-null", "id-number",
        *_NOT_NUMBER_IDS])
def test_malformed_document_is_a_parse_error_naming_the_field(data, message):
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(data)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("edit, message", _NOT_NUMBERS, ids=_NOT_NUMBER_IDS)
def test_a_parsed_document_must_hold_json_numbers_too(edit, message):
    """The dictionary path, without the loader's decoding of series."""
    doc = json.loads(json.dumps(MINIMAL_DOC))
    edit(doc)
    with pytest.raises(ScenarioParseError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == message


def test_integral_float_is_an_int():
    s = load_scenario(_edited(lambda d: d["horizon"].update(num_days=1.0, steps_per_day=4.0)))
    assert (s.horizon.num_days, s.horizon.steps_per_day) == (1, 4)
    assert type(s.horizon.num_days) is int and type(s.horizon.steps_per_day) is int


def test_a_community_without_members_is_a_validation_error():
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(_edited(lambda d: d.update(members=[])))
    assert err.value.violations == [Violation("members", "needs at least one member")]


def test_soc_init_out_of_window_is_a_validation_error():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["members"][0]["bss"] = {
        "capacity_kwh": 10.0, "max_power_kw": 5.0, "efficiency": 0.95,
        "soc_init": 1.2, "soc_min": 0.1, "soc_max": 0.9,
    }
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(json.dumps(doc))
    assert any("soc_init out of [soc_min,soc_max]" in str(v) for v in err.value.violations)


def test_thermal_limit_given_as_ref_set_pair_is_a_parse_error():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["members"][0]["hp"] = {
        "thermal_coeff": 0.2, "max_power_kw": 3.0, "cop": 3.0, "temp_init": 20.0,
        "temp_ref": [20.0, 20.0, 19.0, 20.0],
        "temp_set": [19.0, 21.0, 21.0, 19.5],
        "wall_loss_kw": [0.1] * 4,
        "power_ref_kw": [0.1] * 4,
        "reluctance_eur": 1.0,
    }
    with pytest.raises(ScenarioParseError, match="missing required field 'temp_limit'"):
        load_scenario(json.dumps(doc))


def test_ev_reference_power_while_unplugged_is_flagged():
    n = 4
    ev = simple_ev(n, power_ref=[0, 2.0, 0, 0], plugged=[1, 0, 0, 1])
    s = make_scenario([make_member("u01", n, ev=ev)], steps=n)
    violations = validate_scenario(s)
    assert any(v.path == "members[0].ev.power_ref_kw[1]" for v in violations)


def test_departure_invariants_checked():
    n = 4
    ev = simple_ev(n, power_ref=np.zeros(n), plugged=[1, 1, 1, 1],
                   departure=[0, 1, 0, 0])
    s = make_scenario([make_member("u01", n, ev=ev)], steps=n)
    violations = validate_scenario(s)
    assert any("still plugged at the step after departure" in v.message
               for v in violations)


def test_nonpositive_activation_reward_is_flagged():
    s = make_scenario([make_member("u01", 4)], steps=4, imp=0.1, exp=0.1, fee=0.01)
    violations = validate_scenario(s)
    assert any("non-positive activation reward" in v.message for v in violations)
    # 0.12 - 0.1 - 0.02 == 0 exactly: zero reward is also rejected
    s = make_scenario([make_member("u01", 4)], steps=4, imp=0.12, exp=0.1, fee=0.01)
    assert any("non-positive activation reward" in v.message
               for v in validate_scenario(s))


def test_duplicate_member_ids_flagged():
    s = make_scenario([make_member("u01", 4), make_member("u01", 4)], steps=4)
    assert any("duplicate member id" in v.message for v in validate_scenario(s))


def test_series_length_mismatch_flagged():
    member = make_member("u01", 4)
    s = make_scenario([member], steps=4, num_days=2)  # prices get 8 steps, member has 4
    assert any("length" in v.message for v in validate_scenario(s))


def test_temp_limit_above_max_flagged():
    n = 4
    wb = simple_wb(n, power_ref=np.zeros(n), limit=85.0, temp_max=80.0)
    s = make_scenario([make_member("u01", n, wb=wb)], steps=n)
    assert any("temp_limit above temp_max" in v.message for v in validate_scenario(s))


#: sha256 of the canonical dump of each round-trip document that has devices
#: (the dump has no energy-cap keys; see test_energy_cap_keys_are_ignored).
DUMP_SHA256 = {
    "community20": "84933c8bf4be6c33a41bb1af6107ced76d7b3c434d4044718265bf17a79c9651",
    "generated80": "db792dc002d9800f5ee1016febf6f192b30d0924964bce088dfab8696675ea1a",
}

ROUND_TRIP_SOURCES = {
    "minimal": lambda: json.dumps(MINIMAL_DOC),
    "community20": lambda: resources.files("reccoord").joinpath(
        "data/community20.json").read_bytes(),
    "generated80": lambda: dump_scenario(generate_synthetic(SyntheticConfig(members=80, seed=3))),
}


@pytest.mark.parametrize("source", list(ROUND_TRIP_SOURCES))
def test_round_trip_preserves_document(source):
    raw = ROUND_TRIP_SOURCES[source]()
    s = load_scenario(raw)
    dumped = dump_scenario(s)
    s2 = load_scenario(dumped)
    assert scenario_to_dict(s) == scenario_to_dict(s2)
    assert dump_scenario(s2) == dumped
    if source in DUMP_SHA256:
        assert hashlib.sha256(dumped).hexdigest() == DUMP_SHA256[source]


def test_energy_cap_keys_are_ignored():
    """Older documents carry per-device and per-member energy caps; no model
    reads them, so they load exactly like the document without them."""
    doc = json.loads(json.dumps(MINIMAL_DOC))
    member = doc["members"][0]
    member["hp"] = {
        "thermal_coeff": 0.2, "max_power_kw": 3.0, "cop": 3.0, "temp_init": 20.0,
        "temp_limit": [19.0] * 4, "wall_loss_kw": [0.1] * 4, "power_ref_kw": [0.1] * 4,
        "reluctance_eur": 1.0,
    }
    plain = dump_scenario(load_scenario(json.dumps(doc)))
    member["hp"]["energy_cap_kwh"] = 2.4
    member["flexible_energy_cap_kwh"] = 2.4
    assert dump_scenario(load_scenario(json.dumps(doc))) == plain


def test_for_day_slices_all_series():
    cfg = SyntheticConfig(members=3, seed=1, dt_hours=1.0, num_days=3)
    s = generate_synthetic(cfg)
    day1 = s.for_day(1)
    assert day1.horizon.num_days == 1
    assert len(day1.prices.import_price) == 24
    m_full, m_day = s.members[0], day1.members[0]
    assert m_day.fixed_load_kw == pytest.approx(m_full.fixed_load_kw[24:48])
    if m_full.ev is not None:
        assert m_day.ev.plugged == pytest.approx(m_full.ev.plugged[24:48])


def test_loading_the_bundled_week_peaks_below_3_5_times_the_document():
    """Series are decoded straight into arrays, not held as one Python float
    per number (6.5 times the document when they were)."""
    data = resources.files("reccoord").joinpath("data/community20.json").read_bytes()
    load_scenario(data)  # the validators' first-call imports are not the load's
    tracemalloc.start()
    try:
        load_scenario(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * len(data)


def _series_arrays(s) -> list[np.ndarray]:
    """Every per-step series of ``s``: prices, members and devices."""
    holders = [s.prices, *s.members, *(d for m in s.members for d in m.devices().values())]
    return [getattr(h, name) for h in holders for name in h._SERIES]


def test_a_day_slice_shares_the_scenario_arrays_read_only():
    s = load_bundled_scenario("community20")
    week, day = _series_arrays(s), _series_arrays(s.for_day(3))
    assert len(day) == len(week)
    for full, part in zip(week, day):
        assert np.shares_memory(full, part)
        assert not part.flags.writeable
        assert np.array_equal(part, full[3 * 96:4 * 96])


@pytest.mark.parametrize("view", [False, True], ids=["writable", "locked-view-of-writable"])
def test_a_member_copies_an_array_someone_can_still_write(view):
    load = np.array([0.5, 0.4, 0.3, 0.6])
    given = load
    if view:
        given = load[:]
        given.flags.writeable = False
    m = Member(id="u01", fixed_load_kw=given, pv_max_kw=np.zeros(4))
    load[0] = 9.0
    assert m.fixed_load_kw.tolist() == [0.5, 0.4, 0.3, 0.6]
    assert not m.fixed_load_kw.flags.writeable


class TestGenerator:
    def test_reference_scale_counts(self):
        cfg = SyntheticConfig(members=20, wb_rate=0.7, ev_rate=0.6, hp_rate=0.5,
                              bss_rate=0.25, pv_rate=0.75, pv_total_kwp=147.0,
                              dt_hours=0.25, seed=42)
        s = generate_synthetic(cfg)
        assert sum(m.wb is not None for m in s.members) == 14
        assert sum(m.ev is not None for m in s.members) == 12
        assert sum(m.hp is not None for m in s.members) == 10
        assert sum(m.bss is not None for m in s.members) == 5
        pv_owners = [m for m in s.members if m.pv_max_kw.max() > 0]
        assert len(pv_owners) == 15
        assert sum(m.pv_max_kw.max() for m in pv_owners) == pytest.approx(147.0, rel=1e-9)

    def test_same_seed_is_byte_identical(self):
        cfg = SyntheticConfig(members=6, seed=42, dt_hours=1.0)
        assert dump_scenario(generate_synthetic(cfg)) == dump_scenario(generate_synthetic(cfg))

    def test_different_seed_changes_profiles(self):
        a = generate_synthetic(SyntheticConfig(members=6, seed=42, dt_hours=1.0))
        b = generate_synthetic(SyntheticConfig(members=6, seed=43, dt_hours=1.0))
        assert not np.allclose(a.members[0].fixed_load_kw, b.members[0].fixed_load_kw)

    def test_zero_members_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            generate_synthetic(SyntheticConfig(members=0))

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="wb_rate"):
            generate_synthetic(SyntheticConfig(members=3, wb_rate=1.5))

    @pytest.mark.parametrize("dt, steps", [(1.0, 24), (1 / 60, 1440)])
    def test_the_step_length_sets_the_steps_of_a_day(self, dt, steps):
        s = generate_synthetic(SyntheticConfig(members=3, dt_hours=dt))
        assert (s.horizon.steps_per_day, s.horizon.dt_hours) == (steps, dt)
        assert validate_scenario(s) == []

    @pytest.mark.parametrize("change, message", [
        ({"dt_hours": 0.0}, "dt_hours must be in (0, 24], got 0.0"),
        ({"dt_hours": 25.0}, "dt_hours must be in (0, 24], got 25.0"),
        ({"dt_hours": float("nan")}, "dt_hours must be in (0, 24], got nan"),
        ({"dt_hours": 7.0}, "dt_hours 7.0 does not divide 24 hours evenly"),
        ({"dt_hours": 1e-300}, "dt_hours 1e-300 makes more than 1440 steps a day"),
        ({"dt_hours": 5e-324}, "dt_hours 5e-324 makes more than 1440 steps a day"),
        ({"num_days": 0}, "num_days must be at least 1, got 0"),
        ({"seed": -1}, "seed must be nonnegative, got -1"),
        ({"members": 2.5}, "members must be an integer, got 2.5"),
        ({"members": True}, "members must be an integer, got True"),
        ({"num_days": 1.5}, "num_days must be an integer, got 1.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"wb_rate": "x"}, "wb_rate must be a real number, got 'x'"),
        ({"pv_total_kwp": None}, "pv_total_kwp must be a real number, got None"),
        ({"dt_hours": "1"}, "dt_hours must be a real number, got '1'"),
    ], ids=["zero-dt", "dt-above-a-day", "nan-dt", "uneven-dt", "tiny-dt", "subnormal-dt",
            "no-days", "negative-seed", "fractional-members", "bool-members",
            "fractional-days", "fractional-seed", "string-rate", "null-pv", "string-dt"])
    def test_a_bad_step_or_seed_is_a_config_error(self, change, message):
        with pytest.raises(SyntheticConfigError) as err:
            generate_synthetic(SyntheticConfig(**{"members": 3, **change}))
        assert str(err.value) == message

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_scenarios_are_always_valid(self, seed):
        cfg = SyntheticConfig(members=5, seed=seed, dt_hours=1.0, num_days=2, pv_total_kwp=25.0)
        s = generate_synthetic(cfg)
        assert validate_scenario(s) == []


def test_bundled_community20():
    s = load_bundled_scenario("community20")
    assert len(s.members) == 20
    assert s.horizon.steps_per_day == 96
    assert s.horizon.num_days == 7
    assert sum(m.wb is not None for m in s.members) == 14
    assert sum(m.ev is not None for m in s.members) == 12
    assert sum(m.hp is not None for m in s.members) == 10
    assert sum(m.bss is not None for m in s.members) == 5
    assert sum(m.pv_max_kw.max() for m in s.members) == pytest.approx(147.0, rel=1e-9)


def _all_devices_scenario(device: str | None = None, **changes):
    """One member owning every device, with one device's parameters changed."""
    n = 4
    devices = {"bss": simple_bss(), "ev": simple_ev(n, np.zeros(n)),
               "wb": simple_wb(n, np.zeros(n)), "hp": simple_hp(n, np.zeros(n))}
    if device is not None:
        devices[device] = replace(devices[device], **changes)
    return make_scenario([make_member("u01", n, **devices)], steps=n)


def test_a_member_with_every_device_is_valid():
    assert validate_scenario(_all_devices_scenario()) == []


@pytest.mark.parametrize("device,field,value,path,message", [
    ("bss", "capacity_kwh", 0.0, "capacity_kwh", "must be > 0"),
    ("bss", "max_power_kw", -1.0, "max_power_kw", "must be >= 0"),
    ("bss", "efficiency", 1.5, "efficiency", "value 1.5 out of (0,1]"),
    ("bss", "soc_min", -0.1, "soc_min", "value -0.1 out of [0,1]"),
    ("bss", "soc_max", 1.2, "soc_max", "value 1.2 out of [0,1]"),
    ("ev", "capacity_kwh", 0.0, "capacity_kwh", "must be > 0"),
    ("ev", "max_charge_kw", -1.0, "max_charge_kw", "must be >= 0"),
    ("ev", "efficiency", 0.0, "efficiency", "value 0.0 out of (0,1]"),
    ("ev", "soc_init", 1.5, "soc_init", "value 1.5 out of [0,1]"),
    ("ev", "reluctance_eur", -1.0, "reluctance_eur", "must be >= 0"),
    ("ev", "plugged", [1, 0.5, 1, 1], "plugged[1]", "indicator value 0.5 not in {0,1}"),
    ("ev", "arrival", [0, 0, 2, 0], "arrival[2]", "indicator value 2.0 not in {0,1}"),
    ("ev", "departure", [0, 0, 0, -1], "departure[3]", "indicator value -1.0 not in {0,1}"),
    ("ev", "soc_arrival", [0, 1.5, 0, 0], "soc_arrival[1]", "value 1.5 out of [0,1]"),
    ("ev", "soc_ref", [-0.5, 0, 0, 0], "soc_ref[0]", "value -0.5 out of [0,1]"),
    ("ev", "power_ref_kw", [0, 0, -1, 0], "power_ref_kw[2]", "negative value -1.0"),
    ("wb", "thermal_coeff", 0.0, "thermal_coeff", "must be > 0"),
    ("wb", "max_power_kw", -1.0, "max_power_kw", "must be >= 0"),
    ("wb", "reluctance_eur", -1.0, "reluctance_eur", "must be >= 0"),
    ("wb", "temp_max", [80, 80, 80], "temp_max", "series length 3 != horizon length 4"),
    ("wb", "usage_event", [0, 0.5, 0, 0], "usage_event[1]", "indicator value 0.5 not in {0,1}"),
    ("wb", "usage_loss_kw", [0, -2, 0, 0], "usage_loss_kw[1]", "negative value -2.0"),
    ("wb", "envelope_loss_kw", [-1, 0, 0, 0], "envelope_loss_kw[0]", "negative value -1.0"),
    ("wb", "power_ref_kw", [0, 0, 0, -1], "power_ref_kw[3]", "negative value -1.0"),
    ("hp", "thermal_coeff", 0.0, "thermal_coeff", "must be > 0"),
    ("hp", "cop", 0.0, "cop", "must be > 0"),
    ("hp", "max_power_kw", -1.0, "max_power_kw", "must be >= 0"),
    ("hp", "reluctance_eur", -1.0, "reluctance_eur", "must be >= 0"),
    ("hp", "temp_limit", [19, float("nan"), 19, 19], "temp_limit[1]", "non-finite value"),
    ("hp", "wall_loss_kw", [0, 0, -3, 0], "wall_loss_kw[2]", "negative value -3.0"),
    ("hp", "power_ref_kw", [-1, 0, 0, 0], "power_ref_kw[0]", "negative value -1.0"),
])
def test_each_domain_rule_names_its_field(device, field, value, path, message):
    s = _all_devices_scenario(device, **{field: value})
    assert Violation(f"members[0].{device}.{path}", message) in validate_scenario(s)


@pytest.mark.parametrize("device,field", [
    (device, f.name) for device, cls in DEVICE_PARAMS.items() for f in fields(cls)
    if f.name not in cls._SERIES])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_each_non_finite_scalar_names_its_field(device, field, value):
    s = _all_devices_scenario(device, **{field: value})
    assert Violation(f"members[0].{device}.{field}", "non-finite value") in validate_scenario(s)


def _ev_plug_rules_by_step(ev, steps_per_day: int, path: str = "members[0].ev") -> set:
    """The EV plug, trip and reference-power rules as a plain per-step loop."""
    n = len(ev.plugged)
    out = set()
    for t in range(n):
        if ev.arrival[t] == 1.0 and ev.plugged[t] != 1.0:
            out.add((f"{path}.arrival[{t}]", "arrival while not plugged"))
        if ev.departure[t] == 1.0:
            if ev.plugged[t] != 1.0:
                out.add((f"{path}.departure[{t}]", "departure while not plugged"))
            nxt = t + 1
            if nxt % steps_per_day != 0 and nxt < n and ev.plugged[nxt] != 0.0:
                out.add((f"{path}.departure[{t}]", "still plugged at the step after departure"))
        if ev.power_ref_kw[t] > 0 and ev.plugged[t] != 1.0:
            out.add((f"{path}.power_ref_kw[{t}]", "positive reference power while not plugged"))
        if ev.power_ref_kw[t] > ev.max_charge_kw + 1e-9:
            out.add((f"{path}.power_ref_kw[{t}]",
                     f"reference power {ev.power_ref_kw[t]} above charger limit"))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_ev_plug_rules_match_the_per_step_loop(seed):
    rng = np.random.default_rng(seed)
    steps, days = 6, 2
    n = steps * days
    ev = simple_ev(n, power_ref=rng.choice([0.0, 1.0, 6.0], n), plugged=rng.integers(0, 2, n),
                   arrival=rng.integers(0, 2, n), departure=rng.integers(0, 2, n), pmax=5.0)
    s = make_scenario([make_member("u01", n, ev=ev)], steps=steps, num_days=days)
    want = _ev_plug_rules_by_step(ev, steps)
    assert want, "the random pattern should break some rule"
    assert {(v.path, v.message) for v in validate_scenario(s)} == want
