"""Spans around calls into reccoord's public functions, recorded from outside.

:class:`Tracer` rebinds each traced function at every ``reccoord`` module
attribute that holds it (so the names ``central``, ``decentral`` and ``cli``
imported are covered too) and each traced method on its class, and restores
the originals on :meth:`Tracer.uninstall`.  A span is ``[name, parent, start_ns,
end_ns, attrs]`` with times from :func:`time.perf_counter_ns`; spans stay in
memory until the caller writes them out.  :func:`layer_metrics` turns one
invocation's spans into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import sys
import time
from pathlib import Path

NAME, PARENT, START, END, ATTRS = range(5)


def _solve_attrs(args, solution) -> dict:
    problem = args[0]
    return {"rows": problem.num_constraints, "cols": problem.num_variables,
            "status": solution.status.value}


def _highs_attrs(args, res) -> dict:
    return {"nit": int(res.nit)}


def _rounds_attrs(args, result) -> dict:
    return {"rounds": len(result[1])}


def _kwh_attrs(args, flows) -> dict:
    agent = args[0]
    return {"kwh": agent.dt * float(flows.up_kw.sum() + flows.down_kw.sum())}


def _bytes_attrs(args, files) -> dict:
    return {"bytes": sum(Path(getattr(files, f.name)).stat().st_size
                         for f in dataclasses.fields(files))}


#: (module, function, span name, attribute extractor)
FUNCTIONS = (
    ("reccoord.scenario", "load_scenario", "scenario.load", None),
    ("reccoord.scenario", "load_bundled_scenario", "scenario.load", None),
    ("reccoord.scenario", "generate_synthetic", "scenario.load", None),
    ("reccoord.lpcore", "solve_lp", "lpcore.solve", _solve_attrs),
    ("reccoord.lpcore", "linprog", "lpcore.highs", _highs_attrs),
    ("reccoord.central", "solve_centralized", "central.solve", None),
    ("reccoord.central", "add_device_block", "central.device_block", None),
    ("reccoord.central", "prioritize_self_consumption", "central.prime", None),
    ("reccoord.central", "repair_refs_for_state", "central.repair", None),
    ("reccoord.central", "verify_day_schedule", "central.verify", None),
    ("reccoord.devices", "simulate_bss", "devices.simulate", None),
    ("reccoord.devices", "simulate_ev", "devices.simulate", None),
    ("reccoord.devices", "simulate_wb", "devices.simulate", None),
    ("reccoord.devices", "simulate_hp", "devices.simulate", None),
    ("reccoord.decentral", "run_ecflexit", "decentral.run", _rounds_attrs),
    ("reccoord.decentral", "settle_community", "decentral.settle", None),
    ("reccoord.decentral", "refine_bounds", "kor.split", None),
    ("reccoord.billing", "summarize", "billing.summarize", None),
    ("reccoord.billing", "individual_benefits", "billing.benefits", None),
    ("reccoord.billing", "compute_bill", "billing.compute_bill", None),
    ("reccoord.reporting", "write_report", "reporting.write", _bytes_attrs),
    ("reccoord.reporting", "schedule_to_dict", "reporting.ckpt_encode", None),
    ("reccoord.reporting", "schedule_from_dict", "reporting.ckpt_decode", None),
    ("reccoord.cli", "run", "cli.run", None),
)

#: (module, class, method, span name, attribute extractor)
METHODS = (
    ("reccoord.scenario", "Scenario", "for_day", "scenario.for_day", None),
    ("reccoord.lpcore", "LpProblem", "max_violation", "lpcore.check", None),
    ("reccoord.decentral", "MemberAgent", "offer", "decentral.offer", _kwh_attrs),
    ("reccoord.decentral", "MemberAgent", "activate", "decentral.activate", _kwh_attrs),
)

#: Methods that are only counted: a span per call would cost more than the call.
COUNTED = (("reccoord.lpcore", "LpProblem", "add_constraint", "lpcore.add_constraint"),)


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {name: 0 for *_, name in COUNTED}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        for name in self.counts:
            self.counts[name] = 0

    def _wrap(self, name: str, fn, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(args, result)
            return result
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every traced function and method; missing ones are listed."""
        self.reset()
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "reccoord" or n.startswith("reccoord."))]
        for mod_name, attr, name, attrs in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for mod_name, cls_name, attr, name, attrs in METHODS:
            cls = self._owner(mod_name, cls_name, attr)
            if cls is not None:
                self._set(cls, attr, self._wrap(name, getattr(cls, attr), attrs))
        for mod_name, cls_name, attr, name in COUNTED:
            cls = self._owner(mod_name, cls_name, attr)
            if cls is not None:
                self._set(cls, attr, self._count(name, getattr(cls, attr)))

    def _owner(self, mod_name: str, cls_name: str, attr: str):
        """The class defining ``attr``, or None after listing it as missing."""
        cls = getattr(sys.modules.get(mod_name), cls_name, None)
        if getattr(cls, attr, None) is None:
            self.missing.append(f"{mod_name}.{cls_name}.{attr}")
            return None
        return cls

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path, invocation: int) -> None:
        with path.open("a", encoding="utf-8") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                rec = {"invocation": invocation, "id": i, "parent": parent, "name": name,
                       "start_ns": start, "end_ns": end, **(attrs or {})}
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def layer_metrics(spans: list[list], counts: dict[str, int], run_s: float) -> dict[str, float]:
    """Per-layer metrics of one invocation's spans.

    ``*_s`` metrics are busy seconds (outermost spans of that name), except
    the self times ``lpcore.assemble_s``, ``central.build_s`` and
    ``cli.self_s``; ``*.calls`` count spans.
    """
    n = len(spans)
    names = [s[NAME] for s in spans]
    dur = [s[END] - s[START] for s in spans]
    children: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    self_ns = [dur[i] - sum(dur[c] for c in children[i]) for i in range(n)]

    def nested_in_same(i: int) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if names[p] == names[i]:
                return True
            p = spans[p][PARENT]
        return False

    def of(name: str) -> list[int]:
        return [i for i in range(n) if names[i] == name]

    def calls(name: str) -> int:
        return len(of(name))

    def busy(name: str) -> float:
        return sum(dur[i] for i in of(name) if not nested_in_same(i)) / 1e9

    def self_s(name: str) -> float:
        return sum(self_ns[i] for i in of(name)) / 1e9

    def attr_sum(name: str, key: str) -> float:
        return sum((spans[i][ATTRS] or {}).get(key, 0) for i in of(name))

    def solves_under(*parents: str) -> int:
        return sum(1 for i in of("lpcore.solve")
                   if spans[i][PARENT] >= 0 and names[spans[i][PARENT]] in parents)

    offers = of("decentral.offer")
    solved = [i for i in offers if any(names[c] == "lpcore.solve" for c in children[i])]
    useful = [i for i in solved if (spans[i][ATTRS] or {}).get("kwh", 0.0) > 0.0]
    offered_kwh = attr_sum("decentral.offer", "kwh")

    # a round runs from its first member offer to its last activation
    rounds: list[int] = []
    for run in of("decentral.run"):
        start = end = None
        prev = None
        for c in children[run]:
            if names[c] == "decentral.offer" and prev != "decentral.offer":
                if start is not None:
                    rounds.append(end - start)
                start = spans[c][START]
            if names[c] == "decentral.activate":
                end = spans[c][END]
            if names[c] in ("decentral.offer", "decentral.activate"):
                prev = names[c]
        if start is not None and end is not None:
            rounds.append(end - start)

    return {
        "scenario.load_s": busy("scenario.load"),
        "scenario.for_day.calls": calls("scenario.for_day"),
        "scenario.for_day_s": busy("scenario.for_day"),
        "lpcore.solve.calls": calls("lpcore.solve"),
        "lpcore.solve_s": busy("lpcore.solve"),
        "lpcore.rows": attr_sum("lpcore.solve", "rows"),
        "lpcore.cols": attr_sum("lpcore.solve", "cols"),
        "lpcore.highs_s": busy("lpcore.highs"),
        "lpcore.highs_iters": attr_sum("lpcore.highs", "nit"),
        "lpcore.check_s": busy("lpcore.check"),
        "lpcore.assemble_s": self_s("lpcore.solve"),
        "lpcore.add_constraint.calls": counts.get("lpcore.add_constraint", 0),
        "lpcore.nonoptimal": sum(1 for i in of("lpcore.solve")
                                 if (spans[i][ATTRS] or {}).get("status") != "optimal"),
        "central.solve.calls": calls("central.solve"),
        "central.build_s": self_s("central.solve"),
        "central.device_block.calls": calls("central.device_block"),
        "central.device_block_s": busy("central.device_block"),
        "central.prime_s": busy("central.prime"),
        "central.repair.calls": calls("central.repair"),
        "central.repair_lps": solves_under("central.repair"),
        "central.verify_s": busy("central.verify"),
        "devices.simulate.calls": calls("devices.simulate"),
        "devices.simulate_s": busy("devices.simulate"),
        "decentral.rounds": attr_sum("decentral.run", "rounds"),
        "decentral.member_lps": solves_under("decentral.offer", "decentral.activate"),
        "decentral.offer_s": busy("decentral.offer"),
        "decentral.activate_s": busy("decentral.activate"),
        "decentral.round_s.p50": statistics.median(rounds) / 1e9 if rounds else 0.0,
        "decentral.useful_offer_ratio": len(useful) / len(solved) if solved else 0.0,
        "decentral.activated_over_offered": (attr_sum("decentral.activate", "kwh")
                                             / offered_kwh if offered_kwh else 0.0),
        "decentral.settle_s": busy("decentral.settle"),
        "kor.split.calls": calls("kor.split"),
        "kor.split_s": busy("kor.split"),
        "billing.summarize_s": busy("billing.summarize"),
        "billing.benefits_s": busy("billing.benefits"),
        "billing.compute_bill.calls": calls("billing.compute_bill"),
        "reporting.write_s": busy("reporting.write"),
        "reporting.bytes": attr_sum("reporting.write", "bytes"),
        "reporting.ckpt_encode_s": busy("reporting.ckpt_encode"),
        "reporting.ckpt_decode_s": busy("reporting.ckpt_decode"),
        "cli.self_s": self_s("cli.run"),
        "trace.unattributed_s": run_s - sum(self_ns) / 1e9,
    }
