"""Keys of Repartition: rule-based splitting of a requested volume over offers.

Each key takes the nonnegative capacity offers (kW) of the members, shape
``(members, steps)``, and the requested volume (kW) of each step, shape
``(steps,)``, for one direction, and returns the activated power per member
and step.  Steps are split independently; ``(members,)`` offers with a
scalar request are one step.  Every key guarantees, per step,

    0 <= activation[u] <= offers[u]      and      sum(activation) <= request.

The equal key runs in float64 on all steps at once and gives the bits of
exact rational arithmetic: its one division is correctly rounded, and the
minimum against a representable cap commutes with rounding.  The prorate and
cascade keys run on exact rationals per step, so that shares and caps
compose without float drift; results are converted back to floats at the
end.  NaN, infinite and negative inputs are rejected.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np


def _checked(values, what: str) -> np.ndarray:
    """``values`` as float64; NaN and ±inf are rejected as ``Fraction`` rejects
    them (``ValueError``, ``OverflowError``), negative values by ``ValueError``."""
    arr = np.asarray(values, dtype=np.float64)
    bad = arr[~((arr >= 0.0) & (arr < math.inf))]
    if bad.size:
        value = float(bad.flat[0])
        if math.isnan(value):
            raise ValueError(f"{what} is NaN")
        if math.isinf(value):
            raise OverflowError(f"{what} {value} is infinite")
        raise ValueError(f"{what} {value} is negative")
    return arr


def _inputs(offers, request) -> tuple[np.ndarray, np.ndarray]:
    caps = _checked(offers, "offer")
    req = _checked(request, "request")
    if caps.ndim == 0 or req.shape != caps.shape[1:]:
        raise ValueError(f"offers of shape {caps.shape} do not fit a request of "
                         f"shape {req.shape}")
    return caps, req


def equal_key(offers, request) -> np.ndarray:
    """Split the request equally over members that offered anything.

    Shares capped by an offer are *not* redistributed, so the dispatched total
    can undershoot the request; the cascade key exists to close that gap.
    """
    caps, req = _inputs(offers, request)
    providers = np.count_nonzero(caps > 0.0, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = req / providers
    return np.where((caps > 0.0) & (req > 0.0), np.minimum(share, caps), 0.0)


def _per_step(split: Callable[[list[Fraction], Fraction], list[Fraction]],
              offers, request) -> np.ndarray:
    """The exact ``split`` of one step applied to every step."""
    caps, req = _inputs(offers, request)
    columns = caps.reshape(len(caps), req.size)
    out = np.empty(columns.shape)
    for t, r in enumerate(req.flat):
        out[:, t] = [float(a) for a in split([Fraction(c) for c in columns[:, t]],
                                             Fraction(r))]
    return out.reshape(caps.shape)


def prorate_key(offers, request) -> np.ndarray:
    """Split the request proportionally to each member's offered capacity."""
    return _per_step(_prorate, offers, request)


def _prorate(caps: list[Fraction], req: Fraction) -> list[Fraction]:
    total = sum(caps, Fraction(0))
    if total == 0 or req == 0:
        return [Fraction(0)] * len(caps)
    return [min(c / total * req, c) for c in caps]


def cascade_key(offers, request) -> np.ndarray:
    """Iterated equal splits over members with remaining capacity.

    Re-offers the undershoot of each equal round to the members that still
    have headroom, so the dispatched total is exactly
    ``min(request, sum(offers))``.

    The rational arithmetic makes zero-thresholds safe: every round either
    saturates a member exactly or exhausts the request exactly, so the loop
    runs at most ``len(offers) + 1`` times per step.
    """
    return _per_step(_cascade, offers, request)


def _cascade(caps: list[Fraction], req: Fraction) -> list[Fraction]:
    act = [Fraction(0)] * len(caps)
    remaining_req = req
    while remaining_req > 0:
        providers = [u for u, c in enumerate(caps) if c - act[u] > 0]
        if not providers:
            break
        share = remaining_req / len(providers)
        for u in providers:
            act[u] = min(caps[u], act[u] + share)
        remaining_req = req - sum(act, Fraction(0))
    return act


KEYS = {
    "equal": equal_key,
    "prorate": prorate_key,
    "cascade": cascade_key,
}


def get_key(name: str):
    try:
        return KEYS[name]
    except KeyError:
        raise ValueError(f"unknown repartition key {name!r}; choose from {sorted(KEYS)}") from None
