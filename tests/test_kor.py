"""Repartition keys: worked examples and randomized fairness properties."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from reccoord.kor import cascade_key, equal_key, get_key, prorate_key
from helpers import equal_key_fraction


def test_equal_caps_bind_without_redistribution():
    """Equal split of 10 over (2,8,8): the capped member leaves 1.33 undispatched."""
    act = equal_key([2.0, 8.0, 8.0], 10.0)
    assert act == pytest.approx([2.0, 10.0 / 3.0, 10.0 / 3.0])
    assert act.sum() == pytest.approx(26.0 / 3.0)


def test_equal_symmetric_uncapped():
    assert equal_key([5.0, 5.0], 4.0) == pytest.approx([2.0, 2.0])


def test_equal_no_providers():
    assert not equal_key([0.0, 0.0, 0.0], 7.0).any()


def test_equal_zero_offer_members_get_nothing():
    act = equal_key([0.0, 6.0], 4.0)
    assert act[0] == 0.0
    assert act[1] == pytest.approx(4.0)


def test_prorate_caps_bind_exactly_at_full_request():
    assert prorate_key([2.0, 3.0, 5.0], 10.0) == pytest.approx([2.0, 3.0, 5.0])


def test_prorate_proportional_split():
    assert prorate_key([2.0, 3.0, 5.0], 5.0) == pytest.approx([1.0, 1.5, 2.5])


def test_prorate_single_offer():
    assert prorate_key([7.0], 3.0) == pytest.approx([3.0])


def test_cascade_hand_trace_exact():
    """Two rounds: (2, 10/3, 10/3) then the leftover 4/3 split over two -> (2,4,4)."""
    act = cascade_key([2.0, 8.0, 8.0], 10.0)
    assert list(act) == [2.0, 4.0, 4.0]
    assert act.sum() == 10.0


def test_cascade_capacity_limited():
    act = cascade_key([1.0, 1.0, 1.0], 10.0)
    assert list(act) == [1.0, 1.0, 1.0]


def test_cascade_zero_request():
    assert not cascade_key([3.0, 4.0], 0.0).any()


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        equal_key([-1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        cascade_key([1.0], -0.5)


def test_get_key_unknown_name():
    with pytest.raises(ValueError, match="unknown repartition key"):
        get_key("fifo")


@pytest.mark.parametrize("name", ["equal", "prorate", "cascade"])
def test_randomized_key_properties(name):
    """Caps respected, request never exceeded, permutation equivariance."""
    key = get_key(name)
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        offers = np.round(rng.uniform(0.0, 5.0, size=n) * (rng.random(n) > 0.2), 6)
        request = float(np.round(rng.uniform(0.0, 12.0), 6))
        act = key(offers, request)
        assert np.all(act >= -1e-12)
        assert np.all(act <= offers + 1e-9)
        assert act.sum() <= request + 1e-9

        perm = rng.permutation(n)
        act_perm = key(offers[perm], request)
        assert act_perm == pytest.approx(act[perm], abs=1e-12)


def test_cascade_full_dispatch_randomized():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        offers = rng.uniform(0.0, 5.0, size=n)
        request = float(rng.uniform(0.0, 15.0))
        act = cascade_key(offers, request)
        assert act.sum() == pytest.approx(min(request, offers.sum()), abs=1e-9)


def test_prorate_with_binding_total_returns_offers():
    rng = np.random.default_rng(5)
    for _ in range(50):
        offers = rng.uniform(0.0, 3.0, size=4)
        request = offers.sum() + rng.uniform(0.0, 5.0)
        assert prorate_key(offers, request) == pytest.approx(offers)


def _edge_case_steps(rng, members: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Offers and requests mixing zeros, negative zeros, subnormals, values that
    tie with the equal share, and all-zero columns."""
    pool = np.array([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                     1.0 / 3.0, 0.1, 0.5, 1.0, 2.0, 7.0, 1e6, 1e300])
    offers = np.where(rng.random((members, steps)) < 0.5, rng.choice(pool, (members, steps)),
                      rng.uniform(0.0, 5.0, (members, steps)))
    offers[:, rng.random(steps) < 0.1] = 0.0
    offers[:, rng.random(steps) < 0.05] = -0.0
    request = np.where(rng.random(steps) < 0.5, rng.choice(pool, steps),
                       rng.uniform(0.0, 12.0, steps))
    # requests that split exactly onto an offer
    tie = rng.random(steps) < 0.1
    request[tie] = offers[0, tie] * np.count_nonzero(offers[:, tie] > 0, axis=0)
    return offers, request


def test_equal_key_on_arrays_has_the_bits_of_the_exact_split():
    rng = np.random.default_rng(2024)
    for members in (1, 2, 3, 7, 20):
        offers, request = _edge_case_steps(rng, members, 500)
        fast = equal_key(offers, request)
        exact = np.column_stack([equal_key_fraction(offers[:, t], request[t])
                                 for t in range(len(request))])
        assert fast.shape == offers.shape
        assert np.array_equal(fast.view(np.uint64), exact.view(np.uint64)), members


def _prorate_fraction(offers, request: float) -> np.ndarray:
    """The prorate key of one step on exact rationals: each offer's share of
    the request, ``offer / Σ offers · request``, capped by the offer."""
    caps = [Fraction(float(c)) for c in offers]
    total, req = sum(caps, Fraction(0)), Fraction(float(request))
    if total == 0:
        return np.zeros(len(caps))
    return np.array([float(min(c / total * req, c)) for c in caps])


def _water_filling_fraction(offers, request: float) -> np.ndarray:
    """The cascade key of one step in closed form: ``min(offer, λ)``, where the
    level ``λ`` places ``min(request, Σ offers)``.  ``λ`` is found on exact
    rationals, walking the offers in ascending order: it is the equal share
    of the request left over the offers not yet passed, at the first offer
    that share does not exceed; past every offer, each offer is filled."""
    caps = [Fraction(float(c)) for c in offers]
    left, level = Fraction(float(request)), max(caps, default=Fraction(0))
    for i, cap in enumerate(sorted(caps)):
        share = left / (len(caps) - i)
        if share <= cap:
            level = share
            break
        left -= cap
    return np.array([float(min(c, level)) for c in caps])


def _key_cases(rng, cases: int):
    """Random ``(members, steps)`` offers and their requests: the edge values of
    :func:`_edge_case_steps`, columns of small integers (tied and zero
    offers), and requests of zero, of the total offer and above it."""
    for _ in range(cases):
        members, steps = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        offers, request = _edge_case_steps(rng, members, steps)
        small = rng.random(steps) < 0.4
        offers[:, small] = rng.integers(0, 4, (members, int(small.sum())))
        total, pick = offers.sum(axis=0), rng.random(steps)
        at, above = (0.15 <= pick) & (pick < 0.3), (0.3 <= pick) & (pick < 0.4)
        request[pick < 0.15] = 0.0
        request[at] = total[at]
        request[above] = 2.0 * total[above] + 1.0
        yield offers, request


@pytest.mark.parametrize("key, reference", [(prorate_key, _prorate_fraction),
                                            (cascade_key, _water_filling_fraction)],
                         ids=["prorate", "cascade"])
def test_exact_keys_have_the_bits_of_their_references(key, reference):
    for offers, request in _key_cases(np.random.default_rng(38), 1500):
        fast = key(offers, request)
        exact = np.column_stack([reference(offers[:, t], request[t])
                                 for t in range(len(request))])
        assert fast.shape == offers.shape
        assert np.array_equal(fast.view(np.uint64), exact.view(np.uint64)), (offers, request)


@pytest.mark.parametrize("name", ["equal", "prorate", "cascade"])
def test_keys_on_arrays_split_every_step_as_one_step_calls(name):
    key = get_key(name)
    offers, request = _edge_case_steps(np.random.default_rng(7), 5, 60)
    whole = key(offers, request)
    per_step = np.column_stack([key(offers[:, t], request[t]) for t in range(len(request))])
    assert np.array_equal(whole.view(np.uint64), per_step.view(np.uint64))
    assert key(np.zeros((0, 3)), np.ones(3)).shape == (0, 3)


@pytest.mark.parametrize("name", ["equal", "prorate", "cascade"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_keys_reject_what_exact_arithmetic_rejects(name, bad):
    key = get_key(name)
    offers = np.array([[1.0, 2.0], [0.5, 0.0]])
    with pytest.raises(Exception) as exact:
        equal_key_fraction([1.0, bad], 1.0)
    bad_offers = offers.copy()
    bad_offers[1, 1] = bad
    with pytest.raises(exact.type):
        key(bad_offers, np.ones(2))
    with pytest.raises(exact.type):
        key(offers, np.array([1.0, bad]))
    with pytest.raises(exact.type):
        key([1.0, bad], 1.0)
