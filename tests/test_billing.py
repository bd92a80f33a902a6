"""Bill arithmetic, activation pricing, summaries and benefit splits."""

from __future__ import annotations

import numpy as np
import pytest

from reccoord.billing import (BillingError, activation_price, compute_bill,
                              individual_benefits, summarize)
from reccoord.central import DaySchedule, MemberDaySchedule
from helpers import flat_prices


def test_zero_exchanges_cost_nothing():
    prices = flat_prices(4)
    bill = compute_bill("u", np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4),
                        prices, dt_hours=6.0)
    assert bill.total_eur == 0.0


def test_one_kwh_retail_import_at_reference_tariffs():
    prices = flat_prices(1)
    bill = compute_bill("u", [1.0], [0.0], [0.0], [0.0], prices, dt_hours=1.0)
    assert bill.total_eur == pytest.approx(0.40)
    assert bill.retailer_cost_eur == pytest.approx(0.40)


def test_community_fee_charged_both_ways():
    prices = flat_prices(1)
    bill = compute_bill("u", [0.0], [0.0], [1.0], [1.0], prices, dt_hours=1.0)
    assert bill.total_eur == pytest.approx(0.02)
    assert bill.community_fees_eur == pytest.approx(0.02)


def test_total_is_cost_minus_revenue_plus_fees():
    prices = flat_prices(3, imp=0.37, exp=0.13, fee=0.02)
    rng = np.random.default_rng(3)
    iret, eret, icom, ecom = rng.uniform(0, 2, size=(4, 3))
    bill = compute_bill("u", iret, eret, icom, ecom, prices, dt_hours=0.5)
    assert bill.total_eur == bill.retailer_cost_eur - bill.retailer_revenue_eur \
        + bill.community_fees_eur


def test_bill_is_linear_in_volumes():
    prices = flat_prices(4)
    rng = np.random.default_rng(11)
    iret, eret, icom, ecom = rng.uniform(0, 3, size=(4, 4))
    one = compute_bill("u", iret, eret, icom, ecom, prices, 0.25)
    two = compute_bill("u", 2 * iret, 2 * eret, 2 * icom, 2 * ecom, prices, 0.25)
    assert two.total_eur == pytest.approx(2 * one.total_eur)


def test_length_mismatch_rejected():
    prices = flat_prices(4)
    with pytest.raises(BillingError, match="length"):
        compute_bill("u", np.zeros(3), np.zeros(4), np.zeros(4), np.zeros(4), prices, 1.0)


def test_activation_price_reference_tariffs_exact():
    reward = activation_price(flat_prices(3))
    assert list(reward) == [0.28, 0.28, 0.28]


def test_activation_price_formula():
    reward = activation_price(flat_prices(2, imp=0.3, exp=0.1, fee=0.0))
    assert list(reward) == [0.2, 0.2]


def test_activation_price_zero_margin_rejected():
    with pytest.raises(BillingError, match="non-positive activation reward"):
        activation_price(flat_prices(2, imp=0.12, exp=0.1, fee=0.01))


# ---------------------------------------------------------------------------
# Aggregation over handmade schedules


def _member(member_id: str, n: int, *, bill_total: float = 0.0,
            wb_power=None, ref_wb=None, ev_power=None, ref_ev=None,
            discomfort: float = 0.0, revenue: float = 0.0,
            bss_discharge=None) -> MemberDaySchedule:
    from reccoord.billing import Bill

    def arr(values):
        return None if values is None else np.asarray(values, dtype=float)

    series = {tag: np.zeros(n) for tag in ("iret", "eret", "icom", "ecom", "pinj", "ppv")}
    optional = {"pwb": arr(wb_power), "pev": arr(ev_power), "pdis": arr(bss_discharge),
                "jev": np.full(n, discomfort / n) if discomfort else None}
    series.update({tag: values for tag, values in optional.items() if values is not None})
    return MemberDaySchedule(
        member_id=member_id,
        series=series,
        refs={name: arr(ref) for name, ref in (("ev", ref_ev), ("wb", ref_wb))
              if ref is not None},
        bill=Bill(member_id, max(bill_total, 0.0), max(-bill_total, 0.0), 0.0, bill_total),
        discomfort_total_eur=discomfort,
        flex_revenue_eur=revenue,
    )


def _day(mode: str, members, dt: float = 1.0) -> DaySchedule:
    bill = sum(m.bill.total_eur for m in members)
    disc = sum(m.discomfort_total_eur for m in members)
    return DaySchedule(mode=mode, day=0, dt_hours=dt, members=list(members),
                       objective_value=bill + disc, community_bill_eur=bill,
                       community_discomfort_eur=disc)


def test_shifted_energy_counts_each_displaced_kwh_once():
    """Moving 2 kWh of boiler load: |power-ref| sums to 4 kWh, halved to 2."""
    sched = _day("ECFlex", [_member(
        "u1", 4, wb_power=[2.0, 0.0, 0.0, 0.0], ref_wb=[0.0, 0.0, 2.0, 0.0])])
    report = summarize({"ECFlex": [sched]})
    assert report.mode("ECFlex").activated_wb_kwh == pytest.approx(2.0)
    assert report.mode("ECFlex").activated_kwh == pytest.approx(2.0)


def test_unchanged_schedules_report_zero_activation():
    sched = _day("ECFix", [_member("u1", 4, wb_power=[1, 0, 1, 0], ref_wb=[1, 0, 1, 0])])
    report = summarize({"ECFix": [sched]})
    assert report.mode("ECFix").activated_kwh == 0.0


def test_bss_discharge_energy_totalled():
    sched = _day("SoloFlex", [_member("u1", 4, bss_discharge=[1.0, 0.5, 0.0, 0.0])])
    report = summarize({"SoloFlex": [sched]})
    assert report.mode("SoloFlex").bss_discharge_kwh == pytest.approx(1.5)


def test_gap_metrics_on_both_bases():
    results = {
        "SoloFix": [_day("SoloFix", [_member("u1", 2, bill_total=10.0)])],
        "ECFlex": [_day("ECFlex", [_member("u1", 2, bill_total=6.0)])],
        "ECFlexIt": [_day("ECFlexIt", [_member("u1", 2, bill_total=7.0)])],
    }
    report = summarize(results)
    assert report.gaps["ECFlexIt_raw_deviation"] == pytest.approx(1.0 / 6.0)
    assert report.gaps["ECFlexIt_savings_gap"] == pytest.approx(0.25)


def test_summarize_requires_a_mode():
    with pytest.raises(BillingError):
        summarize({})


def test_benefits_baseline_deltas_are_zero():
    results = {"SoloFix": [_day("SoloFix", [_member("u1", 2, bill_total=5.0)])]}
    benefits = individual_benefits(results, "SoloFix")
    assert benefits["SoloFix"][0].bill_delta_eur == 0.0
    assert benefits["SoloFix"][0].discomfort_delta_eur == 0.0


def test_identical_members_get_identical_deltas():
    base = _day("SoloFix", [_member("a", 2, bill_total=5.0),
                            _member("b", 2, bill_total=5.0)])
    mode = _day("ECFlex", [_member("a", 2, bill_total=3.0, discomfort=0.2),
                           _member("b", 2, bill_total=3.0, discomfort=0.2)])
    benefits = individual_benefits({"SoloFix": [base], "ECFlex": [mode]}, "SoloFix")
    a, b = benefits["ECFlex"]
    assert a.bill_delta_eur == b.bill_delta_eur == pytest.approx(2.0)
    assert a.discomfort_delta_eur == b.discomfort_delta_eur == pytest.approx(0.2)


def test_decentral_revenue_itemized():
    base = _day("ECFix", [_member("a", 2, bill_total=5.0)])
    mode = _day("ECFlexIt", [_member("a", 2, bill_total=4.0, revenue=0.28)])
    benefits = individual_benefits({"ECFix": [base], "ECFlexIt": [mode]}, "ECFix")
    assert benefits["ECFlexIt"][0].flex_revenue_eur == pytest.approx(0.28)


def test_missing_baseline_rejected():
    results = {"ECFlex": [_day("ECFlex", [_member("a", 2)])]}
    with pytest.raises(BillingError, match="baseline"):
        individual_benefits(results, "SoloFix")
