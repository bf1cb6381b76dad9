"""March test execution and detection qualification.

:func:`run_march` drives any object with the ``read(addr)``/
``write(addr, value)`` protocol (fault-free arrays, behavioural fault
machines, the electrical column model) and reports every read whose value
differs from the march-expected one.  :func:`run_march_grid` runs one
test over a whole ``(R_def × floating preset)`` tile of the electrical
column on the grid engine, with results identical to per-point
:func:`run_march`.

:func:`detects` qualifies *guaranteed* detection of a behavioural fault:
the paper's floating voltages mean a defective memory's initial state is
unknown, so the test must fail for **every** initial floating-node value,
every victim location and both resolutions of ``⇕`` elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..circuit.column import DRAMColumn, GridBatch
from ..circuit.defects import FloatingNode, OpenDefect, OpenLocation
from ..circuit.technology import Technology
from ..core.fault_primitives import FaultPrimitive
from ..memory.array import Topology
from ..memory.fault_machine import BehavioralFault, NodeKind
from ..memory.simulator import ElectricalMemory, FaultyMemory
from .notation import Direction, MarchPause, MarchTest

__all__ = [
    "Mismatch",
    "MarchResult",
    "run_march",
    "run_march_grid",
    "preset_memory",
    "TileMemo",
    "detects",
    "escape_cases",
    "detects_coupling",
]


@dataclass(frozen=True)
class Mismatch:
    """One failing read: where it happened and what was seen."""

    element_index: int
    address: int
    op_index: int
    expected: int
    observed: int


@dataclass(frozen=True)
class MarchResult:
    """Outcome of one march run."""

    test_name: str
    mismatches: Tuple[Mismatch, ...]
    operations: int

    @property
    def detected(self) -> bool:
        return bool(self.mismatches)


def run_march(
    test: MarchTest,
    memory,
    size: Optional[int] = None,
    either_as: Direction = Direction.UP,
    stop_at_first: bool = False,
) -> MarchResult:
    """Run a march test against a memory; collect read mismatches.

    ``memory`` needs ``read``/``write`` (and optionally ``tick``, called
    between elements to model idle precharge cycles).  ``either_as``
    resolves ``⇕`` elements.
    """
    n = size if size is not None else memory.size
    mismatches: List[Mismatch] = []
    operations = 0
    tick = getattr(memory, "tick", None)
    pause = getattr(memory, "pause", None)
    for ei, element in enumerate(test.elements):
        telemetry.count("march.elements_applied")
        if isinstance(element, MarchPause):
            if pause is not None:
                pause(element.seconds)
            continue
        for address in element.addresses(n, either_as):
            for oi, op in enumerate(element.ops):
                operations += 1
                if op.is_write:
                    memory.write(address, op.value)
                else:
                    observed = memory.read(address)
                    if observed != op.value:
                        mismatches.append(
                            Mismatch(ei, address, oi, op.value, observed)
                        )
                        if stop_at_first:
                            telemetry.count("march.runs")
                            telemetry.count("march.operations", operations)
                            return MarchResult(
                                test.name, tuple(mismatches), operations
                            )
        if tick is not None:
            tick()
    telemetry.count("march.runs")
    telemetry.count("march.operations", operations)
    return MarchResult(test.name, tuple(mismatches), operations)


#: Bound on the built ensembles one tile memo keeps (see
#: :func:`run_march_grid`).  Keys hold the point pool and latch state, so
#: they recur across the tests of one location but hardly beyond.
_TILE_ENSEMBLES = 64


class TileMemo:
    """Phase plans and built ensembles shared by the tiles of one open.

    Ensemble keys carry the phase arguments, the point pool (resistances)
    and the latch state — not the column configuration — so one memo is
    valid only for one ``(location, technology, n_rows)``; it is bound to
    the first configuration that uses it.  Callers running several tests
    over the same population at one location share a memo across those
    tests and drop it afterwards.
    """

    def __init__(self) -> None:
        self.config: Optional[tuple] = None
        self.ensembles: Dict[tuple, object] = {}
        self.plans: Dict[tuple, object] = {}

    def bind(self, config: tuple) -> None:
        if self.config is None:
            self.config = config
        elif self.config != config:
            raise ValueError(
                "a TileMemo serves one (location, technology, n_rows); "
                f"bound to {self.config}, asked for {config}"
            )


def preset_memory(
    defect: Optional[OpenDefect],
    preset: float,
    technology: Optional[Technology] = None,
    n_rows: int = 3,
) -> ElectricalMemory:
    """An electrical memory with every floating node preset to ``preset``."""
    return ElectricalMemory.with_defect(
        defect=defect, technology=technology, n_rows=n_rows,
        floating=dict.fromkeys(FloatingNode, preset),
    )


def run_march_grid(
    test: MarchTest,
    location: OpenLocation,
    r_values: Sequence[float],
    presets: Sequence[float],
    *,
    technology: Optional[Technology] = None,
    n_rows: int = 3,
    either_as: Direction = Direction.UP,
    stop_at_first: bool = False,
    memo: Optional[TileMemo] = None,
) -> List[List[MarchResult]]:
    """Run one march test over an ``(R_def × floating preset)`` tile.

    ``result[i][j]`` is exactly the :class:`MarchResult` the scalar
    ``run_march(test, preset_memory(OpenDefect(location, r_values[i]),
    presets[j], ...))`` returns — same mismatches, same operation count —
    but every point advances in lock-step on one
    :class:`~repro.circuit.column.GridBatch`: members are the
    resistances, lanes the presets (word-line opens make every point a
    width-1 member with a private gate).  Reads come back per point and
    are checked against the expected value afterwards; under
    ``stop_at_first`` a point keeps its first mismatch and the operation
    count at that read, and the tile ends once every point has one.

    Members a solver guard trip demotes re-run per point through scalar
    :func:`run_march`, which stays the oracle (it raises the same
    :class:`~repro.errors.SolverDivergenceError` a scalar screen would).
    ``memo`` shares phase plans and built ensembles across tiles of the
    same location (see :class:`TileMemo`); built stacks never enter the
    process-global ensemble LRU.
    """
    r_values = [float(r) for r in r_values]
    n_r, n_p = len(r_values), len(presets)
    if n_r == 0 or n_p == 0:
        return [[] for _ in r_values]
    memo = memo if memo is not None else TileMemo()
    memo.bind((location, technology, n_rows))
    column = DRAMColumn(
        technology, n_rows=n_rows, defect=OpenDefect(location, r_values[0])
    )
    row = column.defect.row
    lanes: List[np.ndarray] = []
    gate_inits: List[float] = []
    for preset in presets:
        column.reset({})
        for node in FloatingNode:
            column.set_floating_voltage(node, preset)
        lanes.append(column.net.state_vector())
        gate_inits.append(column.gate_voltage(row))
    column.reset({})
    wl = location is OpenLocation.WORD_LINE
    batch = GridBatch.tile(
        column, r_values, lanes, row if wl else None, gate_inits,
        ens_cache=memo.ensembles, plan_cache=memo.plans,
        _ens_cache_max=_TILE_ENSEMBLES, _global_ensembles=False,
    )

    def points_of(member: int) -> List[Tuple[int, int]]:
        if wl:
            return [divmod(member, n_p)]
        return [(member, j) for j in range(n_p)]

    fails: List[List[List[Mismatch]]] = [
        [[] for _ in range(n_p)] for _ in range(n_r)
    ]
    # Per stopped point: (operations, elements applied) at its stop.
    stopped: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def execute() -> Tuple[int, int]:
        """Run the test on the tile; ``(operations, elements)`` applied."""
        operations = elements = 0
        for ei, element in enumerate(test.elements):
            elements += 1
            if isinstance(element, MarchPause):
                batch.idle(element.seconds)
                continue
            for address in element.addresses(n_rows, either_as):
                for oi, op in enumerate(element.ops):
                    operations += 1
                    if op.is_write:
                        batch.write(address, op.value)
                        continue
                    observed = batch.read(address)
                    bad = np.argwhere(observed != op.value)
                    if not bad.size:
                        continue
                    members = batch.active_members
                    for k, lane in bad:
                        m = members[k]
                        point = divmod(m, n_p) if wl else (m, int(lane))
                        if point in stopped:
                            continue
                        fails[point[0]][point[1]].append(Mismatch(
                            ei, address, oi, op.value,
                            int(observed[k, lane]),
                        ))
                        if stop_at_first:
                            stopped[point] = (operations, elements)
                    if stop_at_first:
                        settled = set(stopped)
                        for m in batch.demoted:
                            settled.update(points_of(m))
                        if len(settled) == n_r * n_p:
                            return operations, elements
            batch.precharge_cycle()
        return operations, elements

    operations, elements = execute()
    demoted = {p for m in batch.demoted for p in points_of(m)}
    results: List[List[MarchResult]] = []
    n_runs = total_ops = total_elements = 0
    for i in range(n_r):
        row_results = []
        for j in range(n_p):
            if (i, j) in demoted:
                row_results.append(None)
                continue
            ops, els = stopped.get((i, j), (operations, elements))
            n_runs += 1
            total_ops += ops
            total_elements += els
            row_results.append(
                MarchResult(test.name, tuple(fails[i][j]), ops)
            )
        results.append(row_results)
    telemetry.count("march.elements_applied", total_elements)
    telemetry.count("march.runs", n_runs)
    telemetry.count("march.operations", total_ops)
    for i, j in sorted(demoted):
        telemetry.count("march.grid_fallback_points")
        memory = preset_memory(
            OpenDefect(location, r_values[i]), presets[j], technology, n_rows
        )
        results[i][j] = run_march(
            test, memory, either_as=either_as, stop_at_first=stop_at_first
        )
    return results


def _scenarios(
    fp: FaultPrimitive,
    topology: Topology,
    node_values: Sequence[Optional[int]],
    kind: Optional[NodeKind],
):
    for victim in topology.addresses():
        for node_value in node_values:
            yield victim, node_value


def detects(
    test: MarchTest,
    fp: FaultPrimitive,
    topology: Optional[Topology] = None,
    node_values: Sequence[Optional[int]] = (0, 1),
    kind: Optional[NodeKind] = None,
    both_either_directions: bool = True,
) -> bool:
    """Guaranteed detection of a fault primitive by a march test.

    True only if the test flags the fault for every victim address, every
    initial floating-node value in ``node_values`` and (by default) both
    resolutions of ``⇕`` elements.  This is the paper's criterion: a
    partial fault whose floating node happens to sit in the benign range
    must still be caught.

    Note on STATIC faults: a static node value that never sensitizes the
    fault makes the memory functionally fault-free, so no test can flag
    it; qualify those with ``node_values=(1,)`` (the active region) to ask
    "is the fault caught whenever it manifests?".
    """
    return not escape_cases(
        test, fp, topology, node_values, kind, both_either_directions
    )


def detects_coupling(
    test: MarchTest,
    ffm,
    topology: Optional[Topology] = None,
    adjacent_only: bool = False,
    both_either_directions: bool = True,
) -> bool:
    """Guaranteed detection of a two-cell coupling fault.

    Qualifies over every ordered (aggressor, victim) pair — or only
    physically adjacent same-column pairs when ``adjacent_only`` is set,
    matching bridge defects — and both ``⇕`` resolutions.  Coupling
    machines have no floating node, so no node sweep is needed.
    """
    from ..memory.coupling_machine import CouplingFault

    topology = topology or Topology(n_rows=4, n_cols=2)
    directions = (
        (Direction.UP, Direction.DOWN) if both_either_directions
        else (Direction.UP,)
    )
    for aggressor in topology.addresses():
        for victim in topology.addresses():
            if aggressor == victim:
                continue
            if adjacent_only:
                if not topology.same_column(aggressor, victim):
                    continue
                if abs(topology.row_of(aggressor) - topology.row_of(victim)) != 1:
                    continue
            for either_as in directions:
                fault = CouplingFault(ffm, aggressor, victim, topology)
                memory = FaultyMemory(topology, fault)
                result = run_march(
                    test, memory, either_as=either_as, stop_at_first=True
                )
                if not result.detected:
                    return False
    return True


def escape_cases(
    test: MarchTest,
    fp: FaultPrimitive,
    topology: Optional[Topology] = None,
    node_values: Sequence[Optional[int]] = (0, 1),
    kind: Optional[NodeKind] = None,
    both_either_directions: bool = True,
) -> Tuple[Tuple[int, Optional[int], Direction], ...]:
    """The scenarios (victim, node value, ⇕ resolution) the test misses."""
    topology = topology or Topology(n_rows=4, n_cols=2)
    directions = (
        (Direction.UP, Direction.DOWN) if both_either_directions
        else (Direction.UP,)
    )
    escapes: List[Tuple[int, Optional[int], Direction]] = []
    for victim, node_value in _scenarios(fp, topology, node_values, kind):
        for either_as in directions:
            fault = BehavioralFault.from_fp(
                fp, victim, topology, node_value=node_value, kind=kind
            )
            memory = FaultyMemory(topology, fault)
            result = run_march(
                test, memory, either_as=either_as, stop_at_first=True
            )
            if not result.detected:
                escapes.append((victim, node_value, either_as))
    return tuple(escapes)
