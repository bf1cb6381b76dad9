"""March test execution and detection qualification.

A march test runs as a flat sequence of steps (:func:`_march_steps`)
that every runner below iterates, so address order is expanded in one
place.

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
every victim location and both resolutions of ``⇕`` elements.  Each
scenario runs the fault machine over a projection of the trace onto the
cells that can reach it (see :func:`escape_cases`), with results
identical to running the whole test on a
:class:`~repro.memory.simulator.FaultyMemory`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from .. import telemetry
from ..circuit.column import DRAMColumn, GridBatch
from ..circuit.defects import FloatingNode, OpenDefect, OpenLocation
from ..circuit.technology import Technology
from ..core.fault_primitives import FaultPrimitive
from ..memory.array import Topology
from ..memory.fault_machine import BehavioralFault, NodeKind, _infer_kind
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


#: ``_Step.address`` of the idle precharge step after each march element.
_TICK = -1
#: ``_Step.address`` of a ``Del`` element's step (``value`` is its length).
_PAUSE = -2


class _Step(NamedTuple):
    """One step of a march run: an operation, a tick or a pause."""

    element: int
    address: int
    op: int
    is_write: bool
    value: float


def _march_steps(
    test: MarchTest, size: int, either_as: Direction
) -> Iterator[_Step]:
    """The test's steps over ``size`` addresses, in march order.

    Operation steps, one :data:`_TICK` step after each
    :class:`~repro.march.notation.MarchElement` and one :data:`_PAUSE`
    step per :class:`~repro.march.notation.MarchPause`.  The one place
    that expands address order: every runner below iterates it.
    """
    for ei, element in enumerate(test.elements):
        if isinstance(element, MarchPause):
            yield _Step(ei, _PAUSE, 0, False, element.seconds)
            continue
        ops = [(oi, op.is_write, op.value) for oi, op in enumerate(element.ops)]
        for address in element.addresses(size, either_as):
            for oi, is_write, value in ops:
                yield _Step(ei, address, oi, is_write, value)
        yield _Step(ei, _TICK, 0, False, 0)


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
    read, write = memory.read, memory.write
    tick = getattr(memory, "tick", None)
    pause = getattr(memory, "pause", None)
    for ei, address, oi, is_write, value in _march_steps(test, n, either_as):
        if address == _TICK:
            if tick is not None:
                tick()
        elif address == _PAUSE:
            if pause is not None:
                pause(value)
        elif is_write:
            operations += 1
            write(address, value)
        else:
            operations += 1
            observed = read(address)
            if observed != value:
                mismatches.append(Mismatch(ei, address, oi, value, observed))
                if stop_at_first:
                    return _finish_run(test, mismatches, operations, ei + 1)
    return _finish_run(test, mismatches, operations, len(test.elements))


def _finish_run(
    test: MarchTest, mismatches: List[Mismatch], operations: int, elements: int
) -> MarchResult:
    telemetry.count("march.elements_applied", elements)
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
    :class:`~repro.circuit.column.GridBatch` tile: rows are the
    resistances, lanes the presets.  Reads come back per point and
    are checked against the expected value afterwards; under
    ``stop_at_first`` a point keeps its first mismatch and the operation
    count at that read, and the tile ends once every point has one.

    Points a solver guard trip demotes re-run one by one through scalar
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
    batch = GridBatch.floating_tile(
        DRAMColumn(
            technology, n_rows=n_rows, defect=OpenDefect(location, r_values[0])
        ),
        r_values, presets, {}, tuple(FloatingNode),
        ens_cache=memo.ensembles, plan_cache=memo.plans,
        _ens_cache_max=_TILE_ENSEMBLES, _global_ensembles=False,
    )
    fails: List[List[List[Mismatch]]] = [
        [[] for _ in range(n_p)] for _ in range(n_r)
    ]
    # Per stopped point: (operations, elements applied) at its stop.
    stopped: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def execute() -> Tuple[int, int]:
        """Run the test on the tile; ``(operations, elements)`` applied."""
        operations = 0
        for ei, address, oi, is_write, value in _march_steps(
            test, n_rows, either_as
        ):
            if address == _TICK:
                batch.precharge_cycle()
                continue
            if address == _PAUSE:
                batch.idle(value)
                continue
            operations += 1
            if is_write:
                batch.write(address, value)
                continue
            observed = batch.read(address)
            bad = np.argwhere(observed != value)
            if not bad.size:
                continue
            for i, j in bad.tolist():
                if (i, j) in stopped or (i, j) in batch.demoted:
                    continue
                fails[i][j].append(Mismatch(
                    ei, address, oi, value, int(observed[i, j]),
                ))
                if stop_at_first:
                    stopped[(i, j)] = (operations, ei + 1)
            if (
                stop_at_first
                and len(stopped.keys() | batch.demoted.keys()) == n_r * n_p
            ):
                return operations, ei + 1
        return operations, len(test.elements)

    operations, elements = execute()
    demoted = set(batch.demoted)
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


#: Compiled qualification traces kept.  Both callers
#: (:func:`~repro.march.coverage.coverage_matrix` and the generator's
#: minimizer) loop over tests in the outer loop, so a test's two ``⇕``
#: resolutions are all that need to stay warm.
_TRACE_CACHE = 4


#: One operation of a projected trace: ``(address, is_write, value)``;
#: ``(_TICK, False, 0)`` is the precharge tick after an element.
_Op = Tuple[int, bool, int]


@dataclass(frozen=True, eq=False)
class _MarchTrace:
    """A test compiled for qualification on one topology.

    ``bad_reads`` are the addresses at which a fault-free memory fails a
    read.  ``by_column[c]`` keeps the operations on column ``c``,
    ``by_address[a]`` those on address ``a``; both keep every tick and
    drop the pauses (a :class:`BehavioralFault` has no notion of idle
    time).  Equal operations share one tuple, so a cached trace costs
    little more than its references.
    """

    bad_reads: FrozenSet[int]
    by_column: Tuple[Tuple[_Op, ...], ...]
    by_address: Tuple[Tuple[_Op, ...], ...]


@functools.lru_cache(maxsize=_TRACE_CACHE)
def _march_trace(
    test: MarchTest, topology: Topology, either_as: Direction
) -> _MarchTrace:
    """Compile ``test`` for qualification (see :class:`_MarchTrace`)."""
    stored = [0] * topology.size
    bad_reads = set()
    by_column: List[List[_Op]] = [[] for _ in range(topology.n_cols)]
    by_address: List[List[_Op]] = [[] for _ in range(topology.size)]
    shared: Dict[_Op, _Op] = {}
    for _, address, _, is_write, value in _march_steps(
        test, topology.size, either_as
    ):
        if address == _PAUSE:
            continue
        op = (address, is_write, value)
        op = shared.setdefault(op, op)
        if address == _TICK:
            for projection in (*by_column, *by_address):
                projection.append(op)
            continue
        if is_write:
            stored[address] = value
        elif stored[address] != value:
            bad_reads.add(address)
        by_column[topology.column_of(address)].append(op)
        by_address[address].append(op)
    return _MarchTrace(
        frozenset(bad_reads),
        tuple(map(tuple, by_column)), tuple(map(tuple, by_address)),
    )


def _escapes(
    test: MarchTest,
    fp: FaultPrimitive,
    topology: Optional[Topology],
    node_values: Sequence[Optional[int]],
    kind: Optional[NodeKind],
    both_either_directions: bool,
) -> Iterator[Tuple[int, Optional[int], Direction]]:
    """Yield the missed scenarios in (victim, node value, ⇕) order.

    Two facts of :class:`~repro.memory.simulator.FaultyMemory` make a
    scenario cheap without changing its verdict:

    * every cell but the victim holds its fault-free value, so a read
      elsewhere fails exactly where a fault-free memory fails
      (``bad_reads``); any such address detects the fault;
    * a :class:`BehavioralFault` reacts only to operations on the
      victim's column (a BITLINE node) or on the victim itself (the
      other kinds), plus the ticks between elements.  With no fault-free
      failure elsewhere, every other read returns its expected value, so
      the machine runs over the matching projection alone and the
      scenario is detected iff a victim read differs from the expected
      value.
    """
    topology = topology or Topology(n_rows=4, n_cols=2)
    directions = (
        (Direction.UP, Direction.DOWN) if both_either_directions
        else (Direction.UP,)
    )
    if kind is None and node_values:
        kind = _infer_kind(fp)
    traces = [_march_trace(test, topology, d) for d in directions]
    for victim in topology.addresses():
        column = topology.column_of(victim)
        for node_value in node_values:
            for either_as, trace in zip(directions, traces):
                telemetry.count("march.qualify_scenarios")
                bad = trace.bad_reads
                if len(bad) > 1 or (bad and victim not in bad):
                    continue
                fault = BehavioralFault.from_fp(
                    fp, victim, topology, node_value=node_value, kind=kind
                )
                ops = (
                    trace.by_column[column] if kind is NodeKind.BITLINE
                    else trace.by_address[victim]
                )
                if not _flags(fault, ops):
                    yield victim, node_value, either_as


def _flags(fault: BehavioralFault, ops: Sequence[_Op]) -> bool:
    """Does any read in ``ops`` return other than its expected value?

    Only victim reads can: :meth:`BehavioralFault.on_read` hands any
    other address its fault-free value back, which the caller guarantees
    is the expected one.
    """
    on_read, on_write, tick = fault.on_read, fault.on_write, fault.tick
    for address, is_write, value in ops:
        if address == _TICK:
            tick()
        elif is_write:
            on_write(address, value)
        elif on_read(address, value) != value:
            return True
    return False


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
    escapes = _escapes(
        test, fp, topology, node_values, kind, both_either_directions
    )
    return next(escapes, None) is None


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
    """The scenarios (victim, node value, ⇕ resolution) the test misses.

    Same verdicts, in the same order, as running the whole test with
    ``stop_at_first`` on a fresh :class:`FaultyMemory` per scenario; the
    test's compiled traces are looked up once per call.
    """
    return tuple(_escapes(
        test, fp, topology, node_values, kind, both_either_directions
    ))
