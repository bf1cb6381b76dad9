"""Bridge-defect experiment: testing the paper's Section 2 exclusion.

Section 2 excludes shorts/bridges from the partial-fault analysis by
argument: *"Shorts and bridges are not expected to result in partial
faults since they do not restrict current flow and do not result in
floating voltages."*  This experiment runs the very method used on opens
— sweep defect strength against an initial floating voltage — on cell-cell
and cell-bit-line bridges, and measures *how partial* the resulting fault
regions are:

* opens produce regions that are almost entirely ``U``-dependent
  (partial-area fraction near 1 for the Fig. 3(a) RDF1);
* bridges produce classical coupling faults (CFst, CFid, CFrd) whose
  regions are ``U``-independent up to grid-boundary wiggle (fraction
  near 0).

A march cross-check confirms the bridge faults are plain, testable
faults: March PF+ (and already March C-) flags the injected bridges
without needing any completing operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..circuit.bridges import BridgeDefect, BridgeLocation
from ..circuit.defects import FloatingNode, OpenLocation
from ..circuit.technology import Technology
from ..core.analysis import ColumnFaultAnalyzer, default_grid_for
from ..core.coupling import two_cell_state_probes
from ..core.fault_primitives import parse_sos
from ..core.ffm import FFM
from ..march.library import MARCH_C_MINUS, MARCH_PF_PLUS
from ..march.simulator import run_march
from ..memory.simulator import ElectricalMemory
from .reporting import ExperimentReport, format_table, instrumented

__all__ = ["BridgeExperimentResult", "run_bridges"]


@dataclass
class BridgeExperimentResult:
    findings: Dict[BridgeLocation, List]
    open_partial_fraction: float
    max_bridge_partial_fraction: float
    report: ExperimentReport


@instrumented("bridges")
def run_bridges(
    technology: Optional[Technology] = None,
    n_r: int = 12,
    n_u: int = 8,
) -> BridgeExperimentResult:
    """Run the bridge survey and the open-vs-bridge partiality comparison."""
    report = ExperimentReport(
        "Section 2 check — bridges produce no partial faults"
    )

    # Reference: how partial is the canonical open-defect fault?
    open_analyzer = ColumnFaultAnalyzer(
        OpenLocation.BL_PRECHARGE_CELLS,
        technology=technology,
        grid=default_grid_for(OpenLocation.BL_PRECHARGE_CELLS, n_r, n_u),
    )
    open_region = open_analyzer.region_map(
        parse_sos("1r1"), FloatingNode.BIT_LINE
    )
    open_fraction = open_region.partial_area_fraction()

    findings: Dict[BridgeLocation, List] = {}
    rows = []
    max_fraction = 0.0
    for location in BridgeLocation:
        analyzer = ColumnFaultAnalyzer(
            location, technology,
            grid=default_grid_for(location, n_r, n_u),
        )
        found = analyzer.survey(
            FloatingNode.BIT_LINE, probes=two_cell_state_probes()
        )
        findings[location] = found
        seen = set()
        for finding in found:
            key = (str(finding.ffm), str(finding.probe_sos))
            if key in seen:
                continue
            seen.add(key)
            # The per-defect question: at fixed bridge strength, does the
            # defect's faulty behaviour (any label) depend on U?
            fraction = finding.region.partial_area_fraction()
            max_fraction = max(max_fraction, fraction)
            rows.append(
                (str(location), str(finding.probe_sos), str(finding.ffm),
                 f"{fraction:.2f}")
            )
    rows.append(
        ("open 4 (reference)", "1 r1", str(FFM.RDF1), f"{open_fraction:.2f}")
    )
    report.add_block(
        "Partial-area fraction of the probe's fault region (0 = "
        "U-independent, 1 = fully floating-voltage dependent):\n"
        + format_table(("defect", "probe SOS", "fault", "partial fraction"),
                       rows)
    )

    coupling = {
        str(f.ffm)
        for found in findings.values()
        for f in found
        if str(f.ffm).startswith("CF")
    }
    report.claim(
        "bridges produce classical coupling faults",
        "CFst/CFid expected from cell-to-cell shorts",
        f"observed: {sorted(coupling)}",
        any(name.startswith("CFst") for name in coupling)
        and any(name.startswith("CFid") for name in coupling),
    )
    report.claim(
        "bridge faults are not partial",
        "Section 2: no floating voltages -> no partial faults",
        f"max bridge partial fraction {max_fraction:.2f} "
        f"(grid-boundary wiggle only)",
        max_fraction <= 0.35,
    )
    report.claim(
        "open faults ARE partial (the contrast)",
        "Fig. 3(a): the open's fault region is U-dependent",
        f"open-4 RDF1 partial fraction {open_fraction:.2f}",
        open_fraction >= 0.8,
    )

    detections = []
    for location, resistance in (
        (BridgeLocation.CELL_CELL, 5e3),
        (BridgeLocation.CELL_BITLINE, 5e3),
    ):
        for test in (MARCH_PF_PLUS, MARCH_C_MINUS):
            memory = ElectricalMemory.with_defect(
                defect=BridgeDefect(location, resistance),
                technology=technology,
                n_rows=3,
            )
            outcome = run_march(test, memory, stop_at_first=True)
            detections.append(
                (str(location), test.name,
                 "DET" if outcome.detected else "miss")
            )
    report.add_block(
        "March detection of injected bridges (electrical):\n"
        + format_table(("bridge", "test", "result"), detections)
    )
    report.claim(
        "bridge faults need no completing operations to be detected",
        "ordinary coupling-fault tests suffice",
        f"{sum(d[2] == 'DET' for d in detections)}/{len(detections)} "
        "runs detected",
        all(d[2] == "DET" for d in detections),
    )

    # Behavioural qualification of the classical tests on the coupling
    # taxonomy (guaranteed detection over all aggressor/victim pairs).
    from ..core.coupling import CouplingFFM
    from ..march.library import MARCH_SS
    from ..march.simulator import detects_coupling
    from ..memory.array import Topology

    topo = Topology(3, 2)
    coverage_rows = []
    ss_full = True
    cminus_misses = []
    for test in (MARCH_C_MINUS, MARCH_SS, MARCH_PF_PLUS):
        missed = [
            str(ffm) for ffm in CouplingFFM
            if not detects_coupling(test, ffm, topo)
        ]
        if test is MARCH_SS:
            ss_full = not missed
        if test is MARCH_C_MINUS:
            cminus_misses = missed
        coverage_rows.append(
            (test.name, f"{len(CouplingFFM) - len(missed)}/{len(CouplingFFM)}",
             ", ".join(missed) or "-")
        )
    report.add_block(
        "Coupling-FFM coverage (behavioural, guaranteed detection):\n"
        + format_table(("test", "coverage", "missed"), coverage_rows)
    )
    report.claim(
        "the classical CF coverage results reproduce",
        "March C- misses only deceptive read-disturb CFs; "
        "March SS (double reads) covers all",
        f"C- misses {cminus_misses or 'none'}; SS full: {ss_full}",
        ss_full and all(m.startswith("CFrd") for m in cminus_misses),
    )
    return BridgeExperimentResult(findings, open_fraction, max_fraction, report)


def main() -> None:  # pragma: no cover - CLI entry
    print(run_bridges().report.render())


if __name__ == "__main__":  # pragma: no cover
    main()
