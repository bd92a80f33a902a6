"""Member bills, exchange settlement, activation pricing, benefit
individualization, summaries.

Money arithmetic that feeds user-facing numbers (the activation reward in
particular) runs on :mod:`decimal` so that flat tariffs combine without
binary-float residue; schedule-dependent aggregation stays in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .devices import DEVICES
from .scenario import Prices

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .central import DaySchedule


class BillingError(ValueError):
    """Inconsistent billing inputs (length mismatch, non-positive reward)."""


def compute_bill(iret, eret, icom, ecom, prices: Prices, dt_hours: float) -> float:
    """One member's bill over one horizon slice, in EUR: retailer cost minus
    retailer revenue plus community fees.

    ``iret``/``eret`` are the per-step retailer imports and exports and
    ``icom``/``ecom`` the community ones, in kW.  Retailer imports are charged
    and exports credited at the per-step tariffs; the community fee applies to
    community imports and exports alike.
    """
    iret, eret, icom, ecom = (np.asarray(a, dtype=np.float64) for a in (iret, eret, icom, ecom))
    n = len(prices.import_price)
    for name, arr in (("import_retailer", iret), ("export_retailer", eret),
                      ("import_community", icom), ("export_community", ecom)):
        if len(arr) != n:
            raise BillingError(f"{name} length {len(arr)} != price series length {n}")
        if np.any(arr < -1e-12):
            raise BillingError(f"{name} has negative entries")

    cost = float(dt_hours * np.sum(prices.import_price * iret))
    revenue = float(dt_hours * np.sum(prices.export_price * eret))
    fees = float(dt_hours * np.sum(prices.community_fee * (icom + ecom)))
    return cost - revenue + fees


def settle_community(injections: Mapping[str, np.ndarray],
                     community: bool = True) -> dict[str, dict[str, np.ndarray]]:
    """Retailer and community legs of fixed net injections, in closed form.

    At every step the community matches ``min(supply, demand)``, the smaller
    of the summed exports and imports (nothing in a solo mode), which is the
    cheapest split whenever import price > export price + 2 * fee.  The
    matched volume is shared pro rata over exporters and over importers; the
    rest of each member's injection goes to the retailer.  Totals are
    correctly rounded sums, so every member's legs are bit-identical under
    any order of ``injections``.
    """
    ids = list(injections)
    inj = np.array([np.asarray(injections[uid], dtype=np.float64) for uid in ids], ndmin=2)
    exports = np.where(inj > 0.0, inj, 0.0)
    imports = np.where(inj < 0.0, -inj, 0.0)
    supply = np.array([math.fsum(col) for col in exports.T])
    demand = np.array([math.fsum(col) for col in imports.T])
    matched = np.minimum(supply, demand) if community else np.zeros_like(supply)
    ecom = exports * np.divide(matched, supply, out=np.zeros_like(supply), where=supply > 0)
    icom = imports * np.divide(matched, demand, out=np.zeros_like(demand), where=demand > 0)
    return {uid: {"iret": imports[u] - icom[u], "eret": exports[u] - ecom[u],
                  "icom": icom[u], "ecom": ecom[u]} for u, uid in enumerate(ids)}


def _decimal(x: float) -> Decimal:
    return Decimal(repr(float(x)))


def activation_price_values(import_price, export_price, community_fee) -> np.ndarray:
    """Per-step flexibility reward: import price minus export price minus twice
    the community fee.  Exact decimal arithmetic, no sign check."""
    out = np.empty(len(import_price))
    for t, (pi, pe, fee) in enumerate(zip(import_price, export_price, community_fee)):
        out[t] = float(_decimal(pi) - _decimal(pe) - 2 * _decimal(fee))
    return out


def activation_price(prices: Prices) -> np.ndarray:
    """Per-step activation reward in EUR/kWh; every entry must be positive.

    A displaced kWh replaces a retailer import/export pair with two community
    legs, so the community saves the import-export spread minus both fees.
    """
    reward = activation_price_values(prices.import_price, prices.export_price,
                                     prices.community_fee)
    bad = np.flatnonzero(reward <= 0)
    if bad.size:
        t = int(bad[0])
        raise BillingError(
            f"non-positive activation reward {reward[t]} at step {t}: "
            "import price must exceed export price plus twice the community fee")
    return reward


# ---------------------------------------------------------------------------
# Cross-schedule aggregation


@dataclass(frozen=True)
class MemberBenefit:
    """Per-member deltas of one mode against the baseline mode."""

    member_id: str
    bill_delta_eur: float        # baseline bill minus mode bill (positive = saving)
    discomfort_delta_eur: float  # mode discomfort minus baseline discomfort
    flex_revenue_eur: float      # activation payments earned in decentralized modes


@dataclass(frozen=True)
class ModeSummary:
    """Community-level aggregates for one mode, over all days run; its fields
    are the rows of ``summary.csv``, in order.

    The two gaps compare a decentralized mode's bill with ECFlex's, on both
    published bases: ``raw_deviation`` is the extra cost as a share of the
    centralized bill, ``savings_gap`` as a share of the centralized savings
    over SoloFix.  They are None on every other mode, without the modes they
    compare with, and where their base is zero.
    """

    bill_eur: float
    discomfort_ev_eur: float
    discomfort_wb_eur: float
    discomfort_hp_eur: float
    activated_kwh: float
    activated_ev_kwh: float
    activated_wb_kwh: float
    activated_hp_kwh: float
    bss_discharge_kwh: float
    raw_deviation: float | None = None
    savings_gap: float | None = None


def _shifted_energy_kwh(power: np.ndarray | None, ref: np.ndarray | None,
                        dt_hours: float) -> float:
    """Half the L1 distance between schedule and reference, in kWh.

    Each displaced kWh shows up once as an increase and once as a decrease,
    so halving the L1 norm counts it a single time.
    """
    if power is None:
        return 0.0
    ref = np.zeros_like(power) if ref is None else ref
    return float(0.5 * np.sum(np.abs(power - ref)) * dt_hours)


def summarize(results: Mapping[str, Iterable["DaySchedule"]]) -> dict[str, ModeSummary]:
    """Aggregate per-mode day schedules into the community result table, one
    :class:`ModeSummary` per mode in the order of ``results``.

    Shifted ("activated") energy is measured against the reference profiles
    each schedule was built with, so self-consumption-primed modes report
    only the shifts coordinated on top of their own baseline.
    """
    if not results:
        raise BillingError("summarize needs at least one mode")
    summaries = {}
    for mode, schedules in results.items():
        bill = dis_bss = 0.0
        discomfort = {spec.name: 0.0 for spec in DEVICES}
        activated = {spec.name: 0.0 for spec in DEVICES}
        for sched in schedules:
            dt = sched.dt_hours
            bill += sched.community_bill_eur
            for m in sched.members:
                series = m.series
                for spec in DEVICES:
                    if spec.discomfort in series:
                        discomfort[spec.name] += float(np.sum(series[spec.discomfort]))
                    activated[spec.name] += _shifted_energy_kwh(
                        series.get(spec.power), m.refs.get(spec.name), dt)
                if "pdis" in series:
                    dis_bss += float(np.sum(series["pdis"])) * dt
        summaries[mode] = ModeSummary(
            bill_eur=bill, activated_kwh=sum(activated.values()),
            bss_discharge_kwh=dis_bss,
            **{f"discomfort_{name}_eur": eur for name, eur in discomfort.items()},
            **{f"activated_{name}_kwh": kwh for name, kwh in activated.items()})

    central, solofix = summaries.get("ECFlex"), summaries.get("SoloFix")
    for mode, summary in summaries.items():
        if central is None or not mode.startswith("ECFlexIt"):
            continue
        extra = summary.bill_eur - central.bill_eur
        if abs(central.bill_eur) > 1e-12:
            summary = replace(summary, raw_deviation=extra / abs(central.bill_eur))
        if solofix is not None and solofix.bill_eur - central.bill_eur > 1e-12:
            summary = replace(summary, savings_gap=extra / (solofix.bill_eur - central.bill_eur))
        summaries[mode] = summary
    return summaries


def individual_benefits(results: Mapping[str, Iterable["DaySchedule"]],
                        baseline: str) -> dict[str, list[MemberBenefit]]:
    """Per-member benefit deltas of every mode against ``baseline``.

    The bill delta is the baseline bill minus the mode bill; discomfort is
    reported as a separate delta rather than folded into the saving, and
    decentralized activation revenues are itemized as earned.
    """
    if baseline not in results:
        raise BillingError(f"baseline mode {baseline!r} not among results")

    def accumulate(schedules: Iterable["DaySchedule"]):
        bills: dict[str, float] = {}
        discomfort: dict[str, float] = {}
        revenue: dict[str, float] = {}
        for sched in schedules:
            for m in sched.members:
                bills[m.member_id] = bills.get(m.member_id, 0.0) + m.bill_eur
                discomfort[m.member_id] = (discomfort.get(m.member_id, 0.0)
                                           + m.discomfort_total_eur)
                revenue[m.member_id] = revenue.get(m.member_id, 0.0) + m.flex_revenue_eur
        return bills, discomfort, revenue

    base_bills, base_disc, _ = accumulate(results[baseline])
    out: dict[str, list[MemberBenefit]] = {}
    for mode, schedules in results.items():
        bills, disc, revenue = accumulate(schedules)
        if set(bills) != set(base_bills):
            raise BillingError(f"mode {mode!r} covers different members than the baseline")
        out[mode] = [
            MemberBenefit(
                member_id=uid,
                bill_delta_eur=base_bills[uid] - bills[uid],
                discomfort_delta_eur=disc[uid] - base_disc[uid],
                flex_revenue_eur=revenue[uid],
            )
            for uid in bills
        ]
    return out
