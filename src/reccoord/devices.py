"""Forward simulation of the four equivalent-battery device models.

These are exact recurrences over power schedules: given a schedule they
reproduce the state trajectory (SoC fraction for batteries and vehicles,
degrees Celsius for thermal devices) with no clipping and no feasibility
repair.  Planners use them to cross-check optimizer output, so they must stay
independent of any LP machinery.

:data:`DEVICES` describes the three flexible devices (EV, boiler, heat pump)
once.  Each :class:`DeviceSpec` names the device's slot (the attribute of
``Member``, and the key of a member's references and carried states), its
power, state and discomfort series tags, its simulator, its initial state,
its state recurrence as LP coefficients, its hard state floor and ceiling,
its power rating and its discomfort target.  The LP device block
(:func:`reccoord.central.add_device_block`), reference handling, carried
state, the verifier and the report tables loop over it; the battery, with two
powers and no discomfort, stays outside.  The simulators are written out on
their own rather than from the recurrence: they are the verifier's
independent check of the LP.

Conventions:

* the state stored at index ``t`` is the state at the *end* of step ``t``;
* the predecessor of step 0 is the device's initial state (overridable for
  day-to-day carry-over);
* thermal coefficients are degC per kWh and multiply the net energy flux.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .scenario import BssParams, EvParams, HpParams, WbParams


def _as_schedule(power_kw, n_expected: int | None = None) -> np.ndarray:
    arr = np.asarray(power_kw, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"schedule must be 1-D, got shape {arr.shape}")
    if n_expected is not None and len(arr) != n_expected:
        raise ValueError(f"schedule length {len(arr)} != series length {n_expected}")
    return arr


def simulate_bss(params: BssParams, charge_kw, discharge_kw, dt_hours: float,
                 soc_start: float | None = None) -> np.ndarray:
    """Battery SoC trajectory under charge/discharge schedules.

    Charging is derated and discharging inflated by the efficiency, both
    applied on the storage side.
    """
    charge = _as_schedule(charge_kw)
    discharge = _as_schedule(discharge_kw, len(charge))
    s0 = params.soc_init if soc_start is None else soc_start
    eta = params.efficiency
    delta = dt_hours * (eta * charge - discharge / eta) / params.capacity_kwh
    return s0 + np.cumsum(delta)


def simulate_ev(params: EvParams, power_kw, dt_hours: float,
                soc_start: float | None = None) -> np.ndarray:
    """EV SoC trajectory; at arrival steps the incoming state is replaced by
    the post-trip arrival SoC before charging is applied."""
    power = _as_schedule(power_kw, len(params.plugged))
    s = params.soc_init if soc_start is None else soc_start
    out = np.empty(len(power))
    gain = dt_hours * params.efficiency / params.capacity_kwh
    for t in range(len(power)):
        if params.arrival[t] == 1.0:
            s = params.soc_arrival[t]
        s = s + gain * power[t]
        out[t] = s
    return out


def simulate_wb(params: WbParams, power_kw, dt_hours: float,
                temp_start: float | None = None) -> np.ndarray:
    """Boiler temperature trajectory: heating minus usage and envelope losses."""
    power = _as_schedule(power_kw, len(params.usage_loss_kw))
    t0 = params.temp_init if temp_start is None else temp_start
    net = power - params.usage_loss_kw - params.envelope_loss_kw
    return t0 + np.cumsum(dt_hours * net * params.thermal_coeff)


def simulate_hp(params: HpParams, power_kw, dt_hours: float,
                temp_start: float | None = None) -> np.ndarray:
    """Indoor temperature trajectory: thermal output (COP * electrical input)
    minus wall losses."""
    power = _as_schedule(power_kw, len(params.wall_loss_kw))
    t0 = params.temp_init if temp_start is None else temp_start
    net = params.cop * power - params.wall_loss_kw
    return t0 + np.cumsum(dt_hours * net * params.thermal_coeff)


def _hinge(state: np.ndarray, reference: np.ndarray, reluctance: float) -> np.ndarray:
    state = np.asarray(state, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if state.shape != reference.shape:
        raise ValueError(f"state length {state.shape} != reference length {reference.shape}")
    return reluctance * np.maximum(0.0, reference - state)


@dataclass(frozen=True)
class DeviceSpec:
    """One flexible device: slot name, series tags and physics accessors.

    ``label`` names the device in verifier messages, ``state_column`` its
    state in ``schedules.csv`` and ``initial`` the parameter holding its
    initial state.  The accessors take the device's parameters:
    ``recurrence(params, dt)`` gives ``(gain, keep, drift)`` of
    ``state[t] = keep[t] * state[t-1] + gain * power[t] + drift[t]``, where
    ``keep[0]`` weighs the start state and a scalar ``keep`` holds for every
    step; ``floor`` and ``ceiling`` bound the state hard (``None``:
    unbounded), ``max_power`` bounds the power and ``target`` is the state
    below which discomfort accrues at ``reluctance_eur`` per unit.
    """

    name: str
    label: str
    power: str
    state: str
    discomfort: str
    state_column: str
    simulator: str
    initial: str
    recurrence: Callable[[Any, float], tuple]
    floor: Callable[[Any], Any] | None
    ceiling: Callable[[Any], Any] | None
    max_power: Callable[[Any], Any]
    target: Callable[[Any], np.ndarray]

    def simulate(self, params, power_kw, dt_hours: float, start: float | None = None):
        """State trajectory from ``start`` (the initial state when ``None``)."""
        # looked up at call time, so a rebound module attribute is honoured
        return globals()[self.simulator](params, power_kw, dt_hours, start)

    def hinge(self, params, trajectory) -> np.ndarray:
        """Per-step linear penalty (EUR) for a state trajectory below the target
        (above it is free)."""
        return _hinge(trajectory, self.target(params), params.reluctance_eur)


#: The flexible devices, in the order their series enter every table.
DEVICES = (
    DeviceSpec("ev", "EV", power="pev", state="sev", discomfort="jev",
               state_column="ev_soc", simulator="simulate_ev", initial="soc_init",
               # an arrival replaces the incoming state by the arrival SoC
               recurrence=lambda ev, dt: (dt * ev.efficiency / ev.capacity_kwh,
                                          1.0 - ev.arrival, ev.arrival * ev.soc_arrival),
               floor=lambda ev: ev.departure * ev.soc_ref, ceiling=lambda ev: 1.0,
               max_power=lambda ev: ev.plugged * ev.max_charge_kw,
               target=lambda ev: ev.soc_ref),
    DeviceSpec("wb", "boiler", power="pwb", state="twb", discomfort="jwb",
               state_column="wb_temp_c", simulator="simulate_wb", initial="temp_init",
               recurrence=lambda wb, dt: (
                   dt * wb.thermal_coeff, 1.0,
                   -(dt * wb.thermal_coeff) * (wb.usage_loss_kw + wb.envelope_loss_kw)),
               floor=lambda wb: wb.usage_event * wb.temp_limit, ceiling=lambda wb: wb.temp_max,
               max_power=lambda wb: wb.max_power_kw, target=lambda wb: wb.temp_limit),
    DeviceSpec("hp", "heat pump", power="php", state="thp", discomfort="jhp",
               state_column="hp_temp_c", simulator="simulate_hp", initial="temp_init",
               recurrence=lambda hp, dt: (dt * hp.thermal_coeff * hp.cop, 1.0,
                                          -(dt * hp.thermal_coeff) * hp.wall_loss_kw),
               floor=None, ceiling=None,
               max_power=lambda hp: hp.max_power_kw, target=lambda hp: hp.temp_limit),
)
