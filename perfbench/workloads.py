"""The benchmark's workloads and the output check they share.

Each workload drives the library only through its public entry points
(``run_*`` experiment functions, ``CornerMatrix``, ``SweepService`` and
``ServiceClient``) and checks every output it gets against
``reference.json``: the sha256 of every item's rendered report at the
default seed, with telemetry off (regenerate with ``make_reference.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["DEFAULT_SEED", "WORKLOADS", "DirectWorkload", "load_reference",
           "make_workload"]

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

#: The seed whose outputs ``reference.json`` pins byte for byte.
DEFAULT_SEED = 0
#: ``run_escapes``'s own default population seed; the workload seed is
#: added to it, so the default workload seed runs the default population.
ESCAPES_SEED = 2002
#: Table 1 runs at every corner of this matrix in ``sweep``.
SWEEP_CORNERS = "vdd=1.0,0.9;cycle=1.0,0.5"

WORKLOADS = ("sweep", "sweep_fanout", "march", "served")

#: (item id, callable, keyword arguments, seed-independent output?)
Item = Tuple[str, Callable[..., Any], Dict[str, Any], bool]


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sweep_items(jobs: int) -> List[Item]:
    """Table 1 at every sweep corner, then Figs. 3-4, ablation, FP space.

    ``jobs`` goes to the experiments that fan out (Table 1, Figs. 3-4).
    """
    from repro.campaign.corners import CornerMatrix
    from repro.experiments.ablation import run_ablation
    from repro.experiments.fig3 import run_fig3
    from repro.experiments.fig4 import run_fig4
    from repro.experiments.fp_space import run_fp_space
    from repro.experiments.table1 import run_table1

    items: List[Item] = [
        (f"table1@{corner.name}", run_table1,
         {"technology": corner.technology(), "jobs": jobs}, True)
        for corner in CornerMatrix.from_spec(SWEEP_CORNERS).corners()
    ]
    items += [
        ("fig3", run_fig3, {"jobs": jobs}, True),
        ("fig4", run_fig4, {"jobs": jobs}, True),
        ("ablation", run_ablation, {}, True),
        ("fp_space", run_fp_space, {}, True),
    ]
    return items


def march_items(seed: int) -> List[Item]:
    """The march-driven experiments; the seed picks the escape population.

    The diagnosis trials keep their own default seed: their accuracy
    claim (>= 80% over about 20 trials) does not hold at every trial
    seed, so a seeded trial set would make the output check fail for
    reasons of sampling alone.
    """
    from repro.experiments.bridges import run_bridges
    from repro.experiments.diagnosis import run_diagnosis
    from repro.experiments.escapes import run_escapes
    from repro.experiments.march_pf import run_march_pf
    from repro.experiments.retention import run_retention

    return [
        ("escapes", run_escapes, {"seed": ESCAPES_SEED + seed}, False),
        ("diagnosis", run_diagnosis, {}, True),
        ("march_pf", run_march_pf, {}, True),
        ("bridges", run_bridges, {}, True),
        ("retention", run_retention, {}, True),
    ]


def check_report(item_id: str, report: Any, pinned: bool,
                 reference: Dict[str, Any]) -> Optional[str]:
    """``None`` if the report is correct, else why it is not.

    Every claim must hold; a ``pinned`` report must also match its
    reference digest byte for byte.
    """
    failing = [claim.name for claim in report.claims if not claim.holds]
    if failing:
        return f"claims do not hold: {failing}"
    if pinned:
        expected = reference.get("direct", {}).get(item_id, {}).get("sha256")
        if expected is None:
            return "no reference digest"
        if digest(report.render()) != expected:
            return "report differs from the reference digest"
    return None


class DirectWorkload:
    """A fixed list of experiment calls, run back to back in-process."""

    def __init__(self, name: str, seed: int, reference: Dict[str, Any]
                 ) -> None:
        self.name = name
        self.seed = seed
        self.reference = reference

    def setup(self) -> None:
        if self.name == "march":
            self.items = march_items(self.seed)
        else:
            self.items = sweep_items(2 if self.name == "sweep_fanout" else 1)

    def run(self) -> List[Dict[str, Any]]:
        outcomes = []
        for item_id, fn, kwargs, seed_free in self.items:
            pinned = seed_free or self.seed == DEFAULT_SEED
            start = perf_counter()
            try:
                report = fn(**kwargs).report
                error = check_report(item_id, report, pinned, self.reference)
            except Exception as exc:  # noqa: BLE001 — a failed item, recorded
                error = f"{type(exc).__name__}: {exc}"
            outcomes.append({
                "id": item_id, "ok": error is None, "error": error,
                "seconds": perf_counter() - start,
            })
        return outcomes

    def close(self) -> None:
        pass


def make_workload(name: str, seed: int, reference: Dict[str, Any],
                  scratch: str, tracer: Any = None) -> Any:
    if name == "served":
        from served import ServedWorkload

        return ServedWorkload(seed, reference, scratch, tracer)
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    return DirectWorkload(name, seed, reference)
