"""Device simulators: recurrence arithmetic, hinge penalties, linearity."""

from __future__ import annotations

import numpy as np
import pytest

from reccoord.devices import DEVICES, simulate_bss, simulate_ev, simulate_hp, simulate_wb
from helpers import simple_bss, simple_ev, simple_hp, simple_wb


class TestBss:
    def test_idle_battery_holds_state(self):
        p = simple_bss(soc_init=0.37)
        traj = simulate_bss(p, np.zeros(6), np.zeros(6), dt_hours=1.0)
        assert traj == pytest.approx(np.full(6, 0.37))

    def test_lossless_charge_step(self):
        p = simple_bss(capacity=10.0, eta=1.0, soc_init=0.5)
        traj = simulate_bss(p, [2.0], [0.0], dt_hours=1.0)
        assert traj[-1] == pytest.approx(0.7)

    def test_lossy_discharge_step(self):
        p = simple_bss(capacity=10.0, eta=0.95, soc_init=0.5)
        traj = simulate_bss(p, [0.0], [1.0], dt_hours=1.0)
        assert traj[-1] == pytest.approx(0.5 - (1.0 / 0.95) / 10.0)

    def test_soc_start_override(self):
        p = simple_bss(capacity=10.0, eta=1.0, soc_init=0.5)
        traj = simulate_bss(p, [1.0], [0.0], dt_hours=1.0, soc_start=0.0)
        assert traj[-1] == pytest.approx(0.1)


class TestEv:
    def test_constant_without_charging_or_trips(self):
        p = simple_ev(4, power_ref=np.zeros(4), soc_init=0.6)
        traj = simulate_ev(p, np.zeros(4), dt_hours=1.0)
        assert traj == pytest.approx(np.full(4, 0.6))

    def test_arrival_replaces_state(self):
        n = 8
        arrival = np.zeros(n)
        arrival[5] = 1.0
        soc_arrival = np.zeros(n)
        soc_arrival[5] = 0.3
        p = simple_ev(n, power_ref=np.zeros(n), arrival=arrival,
                      soc_arrival=soc_arrival, soc_init=0.9)
        traj = simulate_ev(p, np.zeros(n), dt_hours=1.0)
        assert traj[:5] == pytest.approx(np.full(5, 0.9))
        assert traj[5:] == pytest.approx(np.full(3, 0.3))

    def test_charging_energy_arithmetic(self):
        p = simple_ev(2, power_ref=np.zeros(2), capacity=50.0, eta=1.0, soc_init=0.2)
        traj = simulate_ev(p, [5.0, 5.0], dt_hours=1.0)
        assert traj[-1] == pytest.approx(0.4)

    def test_multiple_trips_in_one_day(self):
        n = 6
        arrival = np.array([0, 1, 0, 0, 1, 0], dtype=float)
        soc_arrival = np.array([0, 0.5, 0, 0, 0.25, 0], dtype=float)
        p = simple_ev(n, power_ref=np.zeros(n), arrival=arrival,
                      soc_arrival=soc_arrival, soc_init=0.8)
        traj = simulate_ev(p, np.zeros(n), dt_hours=1.0)
        assert traj == pytest.approx([0.8, 0.5, 0.5, 0.5, 0.25, 0.25])


class TestWb:
    def test_power_matching_losses_holds_temperature(self):
        n = 5
        p = simple_wb(n, power_ref=np.zeros(n), usage_loss=np.full(n, 0.7),
                      envelope=np.full(n, 0.3), temp_init=55.0, coeff=2.0)
        traj = simulate_wb(p, np.full(n, 1.0), dt_hours=1.0)
        assert traj == pytest.approx(np.full(n, 55.0))

    def test_net_heating_step(self):
        p = simple_wb(1, power_ref=[0.0], coeff=2.0, temp_init=55.0)
        traj = simulate_wb(p, [1.0], dt_hours=1.0)
        assert traj[-1] == pytest.approx(57.0)

    def test_usage_draw_cools_symmetrically(self):
        p = simple_wb(1, power_ref=[0.0], coeff=2.0, temp_init=55.0,
                      usage_loss=[1.0])
        traj = simulate_wb(p, [0.0], dt_hours=1.0)
        assert traj[-1] == pytest.approx(53.0)


class TestHp:
    def test_thermal_balance_holds_temperature(self):
        n = 4
        p = simple_hp(n, power_ref=np.zeros(n), cop=3.0, coeff=0.5,
                      wall_loss=np.full(n, 3.0), temp_init=20.0)
        traj = simulate_hp(p, np.full(n, 1.0), dt_hours=1.0)
        assert traj == pytest.approx(np.full(n, 20.0))

    def test_cop_amplifies_heating(self):
        p = simple_hp(1, power_ref=[0.0], cop=3.0, coeff=0.5, temp_init=20.0)
        traj = simulate_hp(p, [1.0], dt_hours=1.0)
        assert traj[-1] == pytest.approx(21.5)

    def test_losses_cool_without_heating(self):
        n = 3
        p = simple_hp(n, power_ref=np.zeros(n), coeff=0.5,
                      wall_loss=np.full(n, 2.0), temp_init=20.0)
        traj = simulate_hp(p, np.zeros(n), dt_hours=1.0)
        assert traj == pytest.approx([19.0, 18.0, 17.0])


class TestDiscomfort:
    """The hinge of each device: below its target, reluctance per unit."""

    EV, WB, HP = DEVICES

    def test_inactive_hinge_costs_nothing(self):
        ev = simple_ev(2, power_ref=np.zeros(2), soc_ref=[0.8, 0.8])
        d = self.EV.hinge(ev, np.array([0.9, 0.8]))
        assert d.sum() == 0.0

    def test_hinge_arithmetic(self):
        ev = simple_ev(1, power_ref=np.zeros(1), soc_ref=[0.8])
        d = self.EV.hinge(ev, np.array([0.7]))
        assert d.sum() == pytest.approx(0.1)
        assert d == pytest.approx([0.1])

    def test_overheat_then_cool_above_limit_is_free(self):
        traj = np.array([70.0, 66.0, 61.0, 55.0, 51.0])
        wb = simple_wb(5, power_ref=np.zeros(5), limit=50.0)
        hp = simple_hp(5, power_ref=np.zeros(5), limit=50.0)
        assert self.WB.hinge(wb, traj).sum() == 0.0
        assert self.HP.hinge(hp, traj).sum() == 0.0

    def test_reluctance_scales_penalty(self):
        wb = simple_wb(1, power_ref=np.zeros(1), limit=50.0, reluctance=2.5)
        hp = simple_hp(1, power_ref=np.zeros(1), limit=50.0, reluctance=2.5)
        assert self.WB.hinge(wb, np.array([48.0])).sum() == pytest.approx(5.0)
        assert self.HP.hinge(hp, np.array([48.0])).sum() == pytest.approx(5.0)

    def test_length_mismatch_rejected(self):
        ev = simple_ev(4, power_ref=np.zeros(4))
        with pytest.raises(ValueError):
            self.EV.hinge(ev, np.zeros(3))


def test_lossless_simulators_are_affine_in_the_schedule():
    """With unit efficiency, state deviations from the idle trajectory scale
    linearly with the schedule."""
    rng = np.random.default_rng(7)
    n = 12
    schedule = rng.uniform(0.0, 2.0, size=n)

    bss = simple_bss(capacity=8.0, eta=1.0, soc_init=0.4)
    base = simulate_bss(bss, np.zeros(n), np.zeros(n), 0.5)
    one = simulate_bss(bss, schedule, np.zeros(n), 0.5)
    lam = simulate_bss(bss, 1.7 * schedule, np.zeros(n), 0.5)
    assert lam - base == pytest.approx(1.7 * (one - base))

    wb = simple_wb(n, power_ref=np.zeros(n), coeff=1.3,
                   envelope=rng.uniform(0.0, 0.4, size=n))
    base = simulate_wb(wb, np.zeros(n), 0.5)
    one = simulate_wb(wb, schedule, 0.5)
    lam = simulate_wb(wb, 1.7 * schedule, 0.5)
    assert lam - base == pytest.approx(1.7 * (one - base))

    hp = simple_hp(n, power_ref=np.zeros(n), cop=2.8, coeff=0.3,
                   wall_loss=rng.uniform(0.0, 1.0, size=n))
    base = simulate_hp(hp, np.zeros(n), 0.5)
    one = simulate_hp(hp, schedule, 0.5)
    lam = simulate_hp(hp, 1.7 * schedule, 0.5)
    assert lam - base == pytest.approx(1.7 * (one - base))


def test_schedule_length_checked_against_series():
    p = simple_ev(4, power_ref=np.zeros(4))
    with pytest.raises(ValueError, match="length"):
        simulate_ev(p, np.zeros(3), dt_hours=1.0)
