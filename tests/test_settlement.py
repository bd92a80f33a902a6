"""Closed-form settlement of net injections against the settlement LP it
replaces: same community cost, well-formed legs, member-order invariance."""

from __future__ import annotations

import numpy as np
import pytest

from reccoord.billing import compute_bill, settle_community
from reccoord.decentral import DecentralError
from reccoord.lpcore import TOL_OPT, LpProblem, LpStatus, solve_lp
from reccoord.scenario import Prices


def settlement_lp(prices, dt_hours, injections):
    """Cheapest retailer/community split of fixed net injections (the
    settlement LP the closed form replaced, kept as its reference).

    Solves the exchange-matching problem with all device decisions frozen:
    community imports and exports must balance at every step, and every
    member's legs must add up to its injection.
    """
    steps = len(prices.import_price)
    p = LpProblem("settlement")
    ids = list(injections)
    idx = {(uid, tag): p.add_variables(f"{tag}.{uid}", steps)
           for uid in ids for tag in ("iret", "eret", "icom", "ecom")}
    for uid in ids:
        iret, eret, icom, ecom = (idx[(uid, tag)] for tag in ("iret", "eret", "icom", "ecom"))
        p.add_rows("=", np.asarray(injections[uid], dtype=np.float64),
                   [(eret, 1.0), (ecom, 1.0), (iret, -1.0), (icom, -1.0)])
        p.add_objective(iret, dt_hours * prices.import_price)
        p.add_objective(eret, -dt_hours * prices.export_price)
        p.add_objective(icom, dt_hours * prices.community_fee)
        p.add_objective(ecom, dt_hours * prices.community_fee)
    terms = []
    for uid in ids:
        terms += [(idx[(uid, "ecom")], 1.0), (idx[(uid, "icom")], -1.0)]
    p.add_rows("=", np.zeros(steps), terms)

    solution = solve_lp(p)
    if solution.status is not LpStatus.OPTIMAL:
        raise DecentralError(f"settlement failed: {solution.status.value} {solution.message}")
    x = solution.x
    return {uid: {tag: x[idx[(uid, tag)]] for tag in ("iret", "eret", "icom", "ecom")}
            for uid in ids}


def _case(members: int, seed: int, steps: int = 24):
    """Random tariffs with import > export + 2 * fee, and random injections
    with zero entries, an all-export step and an all-import step."""
    rng = np.random.default_rng(seed)
    fee = rng.uniform(0.0, 0.03, steps)
    export = rng.uniform(0.02, 0.15, steps)
    prices = Prices(import_price=export + 2 * fee + rng.uniform(0.01, 0.3, steps),
                    export_price=export, community_fee=fee)
    inj = rng.normal(0.0, 2.0, (members, steps))
    inj[rng.random((members, steps)) < 0.2] = 0.0
    inj[:, 0] = np.abs(inj[:, 0])
    inj[:, 1] = -np.abs(inj[:, 1])
    return prices, {f"m{u:02d}": inj[u] for u in range(members)}


def _cost(prices, dt_hours, legs) -> float:
    return sum(compute_bill(l["iret"], l["eret"], l["icom"], l["ecom"], prices, dt_hours)
               for l in legs.values())


@pytest.mark.parametrize("members", [1, 2, 5, 17])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_matches_the_settlement_lp(members, seed):
    prices, injections = _case(members, seed)
    legs = settle_community(injections)

    reference = settlement_lp(prices, 0.25, injections)
    assert _cost(prices, 0.25, legs) == pytest.approx(
        _cost(prices, 0.25, reference), rel=TOL_OPT, abs=1e-9)
    icom_total = np.zeros(24)
    ecom_total = np.zeros(24)
    for uid, inj in injections.items():
        leg = legs[uid]
        for values in leg.values():
            assert np.min(values) >= 0.0
        np.testing.assert_allclose(leg["eret"] + leg["ecom"] - leg["iret"] - leg["icom"],
                                   inj, rtol=0.0, atol=1e-12)
        icom_total += leg["icom"]
        ecom_total += leg["ecom"]
    np.testing.assert_allclose(icom_total, ecom_total, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("members", [2, 5, 17])
def test_permuted_injections_give_bit_identical_legs(members):
    _, injections = _case(members, seed=members)
    legs = settle_community(injections)
    order = np.random.default_rng(members).permutation(list(injections))
    permuted = settle_community({uid: injections[uid] for uid in order})
    for uid, leg in legs.items():
        for tag, values in leg.items():
            assert values.tobytes() == permuted[uid][tag].tobytes(), (uid, tag)


def test_solo_settlement_trades_only_with_the_retailer():
    _, injections = _case(5, seed=4)
    for uid, leg in settle_community(injections, community=False).items():
        assert not leg["icom"].any() and not leg["ecom"].any()
        assert leg["eret"] - leg["iret"] == pytest.approx(injections[uid], abs=0.0)
