"""The benchmark's workloads, shared by the orchestrator and its child processes.

Every workload is one ``reccoord run`` command line over fixed inputs.  The
reasons each one is in the benchmark are in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: Bundled reference community, relative to the checkout root.
COMMUNITY20_JSON = Path("src/reccoord/data/community20.json")

#: Size and generator seed (the recorded default) of the synthetic community.
CENTRAL80_MEMBERS = 80
CENTRAL80_SEED = 3

#: Days of the scenario horizon each run solves (a prefix of the week).
DAY_PREFIX = 1

ALL_MODES = ("SoloFix", "SoloFlex", "ECFix", "ECFlex", "ECFlexIt", "ECFlexItPrimed")
CENTRAL_MODES = frozenset({"SoloFix", "SoloFlex", "ECFix", "ECFlex"})

#: Report files a resume must reproduce byte for byte.
REPORT_FILES = ("summary.csv", "benefits.csv", "schedules.csv", "trace.jsonl")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str          # key of the reference objectives in reference.json
    modes: tuple[str, ...]
    resume: bool           # timed phase re-runs over a complete checkpoint directory
    processes: int         # fresh processes the untraced timed phase is spread over

    @property
    def min_calls(self) -> int:
        """Calls per timed process at least; a resume takes about half a second."""
        return 3 if self.resume else 1

    @property
    def mode_days(self) -> int:
        """Mode-days one ``reccoord run`` invocation attempts."""
        return len(self.modes) * DAY_PREFIX

    def argv(self, root: Path, out_dir: Path) -> list[str]:
        """Arguments of ``reccoord run`` for this workload."""
        modes = ",".join(m.lower() for m in self.modes)
        if self.scenario == "community20":
            source = ["--scenario", str(root / COMMUNITY20_JSON)]
        else:
            source = ["--generate", f"members={CENTRAL80_MEMBERS}", "--seed",
                      str(CENTRAL80_SEED)]
        args = ["run", *source, "--modes", modes, "--days", str(DAY_PREFIX),
                "--out", str(out_dir)]
        if any(m.startswith("ECFlexIt") for m in self.modes):
            args += ["--key", "equal", "--trace"]
        return args


WORKLOADS = {
    w.name: w for w in (
        Workload("community20", "community20", ALL_MODES, resume=False, processes=3),
        Workload("central80", "central80", ("ECFix", "ECFlex"), resume=False, processes=1),
        Workload("resume20", "community20", ALL_MODES, resume=True, processes=3),
    )
}
