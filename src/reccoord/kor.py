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
cascade keys are exact where a step has a positive request and a positive
offer: there each positive offer gets ``min(offer, level)``, with its level
found on exact rationals and the minimum rounded once; every other entry is
``+0.0``.  NaN, infinite and negative inputs are rejected.
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


def _exact(levels: Callable[[list[Fraction], Fraction], list[Fraction]],
           offers, request) -> np.ndarray:
    """``min(offer, level)`` for each positive offer at each step with a
    positive request, ``levels`` giving the offers' levels in ``Fraction``s."""
    caps, req = _inputs(offers, request)
    columns = caps.reshape(len(caps), req.size)
    steps = req.reshape(-1)
    out = np.zeros(columns.shape)
    for t in np.flatnonzero((steps > 0.0) & (columns > 0.0).any(axis=0)):
        rows = np.flatnonzero(columns[:, t] > 0.0)
        offered = [Fraction(c) for c in columns[rows, t].tolist()]
        out[rows, t] = [float(min(c, level))
                        for c, level in zip(offered, levels(offered, Fraction(steps[t])))]
    return out.reshape(caps.shape)


def prorate_key(offers, request) -> np.ndarray:
    """Split the request proportionally to each member's offered capacity."""
    return _exact(_prorated, offers, request)


def _prorated(caps: list[Fraction], req: Fraction) -> list[Fraction]:
    total = sum(caps)
    return [c / total * req for c in caps]


def cascade_key(offers, request) -> np.ndarray:
    """Max-min fair split: each member gets ``min(offer, λ)``, where the water
    level ``λ`` places ``min(request, sum(offers))``.

    This is where iterated equal splits over the members with headroom end
    (progressive filling).  Walking the offers in ascending order, ``λ`` is
    the equal share of the request still left at the first offer that share
    does not exceed; with no such offer, every offer is filled.
    """
    return _exact(_water_level, offers, request)


def _water_level(caps: list[Fraction], req: Fraction) -> list[Fraction]:
    left = req
    for i, cap in enumerate(sorted(caps)):
        share = left / (len(caps) - i)
        if share <= cap:
            return [share] * len(caps)
        left -= cap
    return caps


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
