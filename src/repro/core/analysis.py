"""Fault analysis by defect injection and electrical simulation.

This is the paper's Section 3 method.  For one open-defect location the
analyzer sweeps the ``(R_def, U)`` plane — defect resistance against the
initial value of a floating voltage — and classifies the faulty behaviour
at every grid point into a fault primitive / FFM, producing the region
maps of Figs. 3 and 4.

The same method applies to a bridge location, which turns the paper's
Section 2 argument (bridges leave nothing floating, so they cause no
partial faults) into an experiment (:mod:`repro.experiments.bridges`).
Two rules follow from the defect kind: the aggressor ``a`` is the
bridge's partner row, and a state probe (an SOS without operations) gets
several precharge cycles, since a bridge's states decay over time rather
than only under operations.

Execution semantics of an SOS (this subtlety is the heart of the paper):

* cell *initializations* (the leading ``1`` of ``1r1``) set cell voltages
  **directly**, as states — not through write operations.  A march test can
  only realize them with writes, which also precondition floating nodes;
  that mismatch is exactly why partial faults escape conventional tests;
* the floating voltage ``U`` is applied **after** the initializations and
  **before** the operations: it stands for the unknown charge left on the
  floating node by an arbitrary operation history;
* completing and sensitizing *operations* are then executed through the
  defective circuit, reads returning whatever the output buffer shows.

``F`` is the victim state an ideal read would return afterwards; ``R`` is
the result of the final victim read (when the SOS ends in one).

The paper's partial-fault rule is then applied to the resulting region
map: an FP observed only for a limited range of ``U`` is *partial* and
needs completing operations (searched for in
:mod:`repro.core.completion`).
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry
from ..circuit.bridges import BridgeDefect, BridgeLocation
from ..circuit.column import DRAMColumn, GridBatch
from ..circuit.defects import FloatingNode, OpenDefect, OpenLocation, floating_nodes
from ..circuit import network as circuit_network
from ..circuit.network import GuardPolicy, solver_guards_configure, solver_guards_info
from ..circuit.technology import Technology, default_technology
from ..errors import SolverDivergenceError, SpecValidationError
from .coupling import AGGRESSOR, CouplingFFM, classify_two_cell_fp
from .fault_primitives import BITLINE_NEIGHBOR, SOS, VICTIM, FaultPrimitive, parse_sos
from .ffm import FFM, classify_fp
from .regions import FPRegionMap, QUARANTINED

__all__ = [
    "SweepGrid",
    "Observation",
    "PartialFaultFinding",
    "QuarantinedPoint",
    "CacheInfo",
    "ColumnFaultAnalyzer",
    "PROBE_SOSES",
    "default_grid_for",
    "current_operating_point",
]

#: The paper's Section 1 probe space: single-cell SOSes with at most one
#: operation (initial state alone, all four writes, both fault-free reads).
PROBE_SOSES: Tuple[str, ...] = ("0", "1", "0w0", "0w1", "1w0", "1w1", "0r0", "1r1")

#: The operating point currently being executed, or ``None`` outside a
#: solve.  ``u`` is a float for scalar execution; a grid tile sets
#: ``"grid": True`` with tuples of its ``R_def`` and ``U`` values.  This
#: is how targeted fault injectors
#: (``repro.inject``) hit one specific grid point.
_CURRENT_POINT: Optional[Dict] = None

#: Bounds of the per-analyzer grid prefix memo: how many tiles keep a
#: live template batch, and how many step-prefix snapshots each retains.
#: A snapshot is one pool-sized float matrix (a few KB), so the worst
#: case stays around a megabyte per analyzer.
_PREFIX_TILES = 8
_PREFIX_SNAPS = 160

#: A defect site the analyzer can sweep.
DefectLocation = Union[OpenLocation, BridgeLocation]

#: Precharge cycles of a state probe.  A bridge's states decay over
#: time, so its victim is assessed after several idle cycles; an open
#: gets the single cycle of the Open 9 SF mechanism.
_STATE_CYCLES = {OpenLocation: 1, BridgeLocation: 6}


def current_operating_point() -> Optional[Dict]:
    """The ``{"r_def", "u", "location"}`` of the executing solve, if any."""
    return _CURRENT_POINT


def _check_axis(lo: float, hi: float, n: int) -> None:
    """Reject degenerate axis requests instead of silently truncating.

    ``n < 2`` with ``hi != lo`` used to return ``(lo,)`` — dropping the
    requested upper bound without a word, and (on the ``U`` axis) making
    every fault look ``U``-independent.  That mirrors the
    :meth:`SweepGrid.coarser` >=2-points guard.
    """
    if n < 1:
        raise ValueError(f"an axis needs at least one point; got n={n}")
    if n < 2 and hi != lo:
        raise ValueError(
            f"n={n} cannot span [{lo!r}, {hi!r}]: a single-point axis "
            "would silently drop the upper bound (use n >= 2)"
        )


def _log_space(lo: float, hi: float, n: int) -> Tuple[float, ...]:
    _check_axis(lo, hi, n)
    if n < 2:
        return (lo,)
    step = (math.log10(hi) - math.log10(lo)) / (n - 1)
    return tuple(10 ** (math.log10(lo) + i * step) for i in range(n))


def _lin_space(lo: float, hi: float, n: int) -> Tuple[float, ...]:
    _check_axis(lo, hi, n)
    if n < 2:
        return (lo,)
    step = (hi - lo) / (n - 1)
    return tuple(lo + i * step for i in range(n))


#: Region-of-interest resistance ranges per open location, mirroring the
#: bounded axes of the paper's figures (e.g. Fig. 4 tops out at 1 MOhm).
#: Outside these ranges an open degenerates: far below, the circuit is
#: healthy; far above, the branch is fully disconnected and no operation
#: can reach past it (so no completion can exist by construction).
_R_RANGES: Dict[DefectLocation, Tuple[float, float]] = {
    OpenLocation.CELL: (3e4, 1e6),
    OpenLocation.REFERENCE_CELL: (3e4, 1e7),
    OpenLocation.PRECHARGE: (3e3, 3e7),
    OpenLocation.BL_PRECHARGE_CELLS: (3e3, 3e7),
    OpenLocation.BL_CELLS_REFERENCE: (3e3, 3e7),
    OpenLocation.BL_REFERENCE_SENSEAMP: (3e3, 3e7),
    OpenLocation.SENSE_AMPLIFIER: (3e3, 3e7),
    OpenLocation.BL_SENSEAMP_IO: (3e3, 1e9),
    OpenLocation.WORD_LINE: (1e6, 1e10),
    # Bridges: from hard shorts to barely-there leaks.
    BridgeLocation.CELL_CELL: (1e3, 1e9),
    BridgeLocation.CELL_BITLINE: (1e3, 1e9),
    BridgeLocation.CELL_GROUND: (1e3, 1e9),
}


def _subsample(values: Tuple[float, ...], every: int) -> Tuple[float, ...]:
    """Every ``every``-th value, padded back to >= 2 points when possible."""
    picked = values[::every]
    if len(picked) >= 2 or len(values) < 2:
        return picked
    return (values[0], values[-1])


def _as_nodes(floating) -> Tuple[FloatingNode, ...]:
    if isinstance(floating, FloatingNode):
        return (floating,)
    return tuple(floating)


def default_grid_for(
    location: DefectLocation,
    n_r: int = 16,
    n_u: int = 12,
    vdd: float = 3.3,
    u_min: float = 0.0,
) -> SweepGrid:
    """The default ``(R_def, U)`` sweep window for one defect location."""
    r_min, r_max = _R_RANGES[location]
    return SweepGrid.make(
        r_min=r_min, r_max=r_max, n_r=n_r, u_min=u_min, u_max=vdd, n_u=n_u
    )


@dataclass(frozen=True)
class SweepGrid:
    """The ``(R_def, U)`` grid of one fault analysis."""

    r_values: Tuple[float, ...]
    u_values: Tuple[float, ...]

    @classmethod
    def make(
        cls,
        r_min: float = 1e3,
        r_max: float = 1e8,
        n_r: int = 25,
        u_min: float = 0.0,
        u_max: float = 3.3,
        n_u: int = 12,
    ) -> "SweepGrid":
        """Log-spaced resistances, linearly spaced voltages."""
        if not (math.isfinite(r_min) and r_min > 0):
            raise SpecValidationError(
                "SweepGrid", "r_min", r_min, "a finite positive resistance",
                hint="the R axis is log-spaced",
            )
        if not (math.isfinite(r_max) and r_max >= r_min):
            raise SpecValidationError(
                "SweepGrid", "r_max", r_max, f"finite and >= r_min = {r_min}",
            )
        if not math.isfinite(u_min):
            raise SpecValidationError(
                "SweepGrid", "u_min", u_min, "a finite voltage"
            )
        if not (math.isfinite(u_max) and u_max >= u_min):
            raise SpecValidationError(
                "SweepGrid", "u_max", u_max, f"finite and >= u_min = {u_min}",
            )
        return cls(_log_space(r_min, r_max, n_r), _lin_space(u_min, u_max, n_u))

    def validate(self) -> "SweepGrid":
        """Check the axes for well-formedness; return ``self``.

        Raises :class:`~repro.errors.SpecValidationError` for empty axes,
        non-finite or non-positive resistances, non-finite voltages, or
        unsorted values (the region maps require ascending axes).
        """
        if not self.r_values:
            raise SpecValidationError(
                "SweepGrid", "r_values", self.r_values,
                "a non-empty ascending tuple of resistances",
            )
        if not self.u_values:
            raise SpecValidationError(
                "SweepGrid", "u_values", self.u_values,
                "a non-empty ascending tuple of voltages",
            )
        for r in self.r_values:
            if not (isinstance(r, (int, float)) and math.isfinite(r) and r > 0):
                raise SpecValidationError(
                    "SweepGrid", "r_values", r,
                    "finite positive resistances only",
                )
        for u in self.u_values:
            if not (isinstance(u, (int, float)) and math.isfinite(u)):
                raise SpecValidationError(
                    "SweepGrid", "u_values", u, "finite voltages only"
                )
        if list(self.r_values) != sorted(self.r_values):
            raise SpecValidationError(
                "SweepGrid", "r_values", self.r_values, "sorted ascending"
            )
        if list(self.u_values) != sorted(self.u_values):
            raise SpecValidationError(
                "SweepGrid", "u_values", self.u_values, "sorted ascending"
            )
        return self

    def coarser(self, every_r: int = 2, every_u: int = 2) -> "SweepGrid":
        """Subsampled grid (for the inner loop of the completion search).

        Each axis keeps at least two points (first and last of the
        original axis) whenever the original axis had two, so coarsening
        can never degenerate the partial-fault rule — a single-``U``
        column would make every fault look ``U``-independent.
        """
        return SweepGrid(
            _subsample(self.r_values, every_r),
            _subsample(self.u_values, every_u),
        )

    def signature(self) -> str:
        """Short stable digest of the exact grid points.

        Checkpoint unit keys embed this (see ``docs/ROBUSTNESS.md``), so
        resuming a sweep with a *different* grid never silently reuses
        results computed on the old one — the keys simply don't match
        and the units re-run.  ``repr`` of a float is its shortest exact
        form, so equal grids always digest identically.
        """
        payload = repr((self.r_values, self.u_values)).encode("ascii")
        return hashlib.sha1(payload).hexdigest()[:12]


@dataclass(frozen=True)
class Observation:
    """Result of executing one SOS at one ``(R_def, U)`` operating point.

    ``quarantined`` marks a point whose solve tripped a numerical guard
    under ``GuardPolicy.QUARANTINE``; its other fields are then
    meaningless (``faulty_value`` is ``-1``).
    """

    fp: Optional[FaultPrimitive]
    ffm: Optional[Union[FFM, CouplingFFM]]
    faulty_value: int
    read_value: Optional[int]
    quarantined: bool = False

    @property
    def is_faulty(self) -> bool:
        return self.fp is not None


@dataclass(frozen=True)
class QuarantinedPoint:
    """Full context of one grid point removed from a survey by a guard trip.

    Everything needed to replay the point later: where the defect sits,
    which floating voltages were initialized, the probing SOS, the exact
    ``(R_def, U)`` coordinates, the tripped guard, and the solver's own
    diagnostic (which includes the phase and offending nodes).
    """

    location: DefectLocation
    floating: Tuple[FloatingNode, ...]
    sos: str
    r_def: float
    u: float
    guard: str
    detail: str

    def __str__(self) -> str:
        nodes = "+".join(node.name for node in self.floating)
        return (
            f"{self.location.name} {self.sos!r} [{nodes}] "
            f"R={self.r_def:.3e} U={self.u:.3f}: {self.guard}"
        )


@dataclass(frozen=True)
class PartialFaultFinding:
    """One (possibly partial) fault observed while surveying a defect."""

    location: DefectLocation
    floating: Tuple[FloatingNode, ...]
    probe_sos: SOS
    ffm: Union[FFM, CouplingFFM]
    region: FPRegionMap

    @property
    def floating_label(self) -> str:
        """Human-readable floating-voltage name (Table 1 column)."""
        return " + ".join(str(node) for node in self.floating)

    @property
    def is_partial(self) -> bool:
        """The paper's rule: observed only for a limited range of ``U``."""
        return self.region.is_partial_label(self.ffm)

    @property
    def partial_fp(self) -> FaultPrimitive:
        """The canonical partial FP: probe SOS with the observed behaviour.

        ``F``/``R`` are taken from the canonical FP of the observed FFM.
        """
        from .ffm import canonical_fp

        return canonical_fp(self.ffm)


class CacheInfo(NamedTuple):
    """Observation-cache statistics (mirrors ``functools.lru_cache``)."""

    hits: int
    misses: int
    maxsize: Optional[int]
    currsize: int


class ColumnFaultAnalyzer:
    """Sweeps one open or bridge location over the ``(R_def, U)`` plane.

    ``max_cache_entries`` bounds the per-analyzer observation cache; when
    the bound is hit the oldest entry is evicted (FIFO).  The default
    (``None``) keeps every observation, which is safe for single-defect
    surveys but grows without bound when one analyzer is reused across
    many grids — :meth:`cache_info` reports the size, :meth:`cache_clear`
    drops it.
    """

    def __init__(
        self,
        location: DefectLocation,
        technology: Optional[Technology] = None,
        n_rows: int = 3,
        victim_row: int = 0,
        grid: Optional[SweepGrid] = None,
        max_cache_entries: Optional[int] = None,
        grid_engine: bool = True,
        guard_policy: Optional[GuardPolicy] = None,
    ) -> None:
        if n_rows < 2:
            raise ValueError("the analyzer needs a bit-line neighbour row")
        if max_cache_entries is not None and max_cache_entries < 1:
            raise ValueError("max_cache_entries must be positive or None")
        self.location = location
        self.grid_engine = grid_engine
        self.technology = technology or default_technology()
        self.n_rows = n_rows
        self.victim_row = victim_row
        self.grid = grid or default_grid_for(
            location, vdd=self.technology.vdd
        )
        self.max_cache_entries = max_cache_entries
        self._cache: Dict[Tuple, Observation] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        # An explicit policy applies to the process-global solver guards,
        # so FALLBACK substepping works inside the network layer too (and
        # so workers rebuilt from an AnalyzerSpec behave like the parent).
        self.guard_policy = guard_policy
        if guard_policy is not None:
            solver_guards_configure(policy=guard_policy)
        self.quarantined: List[QuarantinedPoint] = []
        # Shared across every GridBatch this analyzer creates: phase plans
        # and pool layouts recur across operation sequences, so later
        # tiles reuse the ensembles (and propagators) built by earlier
        # ones.  Safe because the keys are content-addressed and the
        # analyzer's column topology/technology is fixed.
        self._grid_ens_cache: Dict[tuple, object] = {}
        self._grid_plan_cache: Dict[tuple, object] = {}
        # Tile-state memo for the completion search: candidate operation
        # sequences share long prefixes (probe ops + partial extensions),
        # so the pool state after each executed prefix is snapshotted and
        # later candidates resume from the longest cached prefix instead
        # of replaying it.  Keyed by everything that determines execution
        # from scratch (tile, presets, floating set, init mode); bounded
        # FIFO on both tiles and prefixes per tile.
        self._grid_prefix_cache: "OrderedDict[tuple, dict]" = OrderedDict()

    def _effective_policy(self) -> GuardPolicy:
        if self.guard_policy is not None:
            return self.guard_policy
        return solver_guards_info().policy

    # -- observation cache ----------------------------------------------------

    def cache_info(self) -> CacheInfo:
        """Hit/miss/size statistics of the observation cache."""
        return CacheInfo(
            self._cache_hits,
            self._cache_misses,
            self.max_cache_entries,
            len(self._cache),
        )

    def cache_clear(self) -> None:
        """Drop every cached observation and zero the statistics."""
        self._cache.clear()
        self._cache_hits = 0
        self._cache_misses = 0

    # -- plumbing -------------------------------------------------------------

    def _row_of(self, cell: str) -> int:
        """Map SOS cell labels onto physical rows of the column."""
        if cell == VICTIM:
            return self.victim_row
        if cell == AGGRESSOR and isinstance(self.location, BridgeLocation):
            return self.victim_row + 1   # the bridge partner
        if cell == BITLINE_NEIGHBOR:
            return (self.victim_row + 1) % self.n_rows
        # Named aggressors a, b, ... take the remaining rows in order.
        offset = 2 + (ord(cell[0]) - ord("a"))
        row = (self.victim_row + offset) % self.n_rows
        if row == self.victim_row:
            raise ValueError(f"not enough rows to place cell {cell!r}")
        return row

    def make_column(self, r_def: float) -> DRAMColumn:
        kind = (
            BridgeDefect if isinstance(self.location, BridgeLocation)
            else OpenDefect
        )
        defect = kind(self.location, r_def, row=self.victim_row)
        return DRAMColumn(self.technology, n_rows=self.n_rows, defect=defect)

    def sweep_plans(self) -> Tuple[Tuple[FloatingNode, ...], ...]:
        """Floating-voltage sweeps for this open (Section 2/5 rules).

        Each plan is a tuple of nodes initialized *together* to the swept
        ``U``.  Opens whose floating voltages are physically correlated
        (the IO-side bit line and the output buffer it feeds, Open 8; the
        reference cell and buffer behind a dead sense amplifier, Open 7)
        additionally get a joint sweep — the paper likewise initializes
        all floating voltages of such defects.  A bridge leaves nothing
        floating; its control sweep initializes the bit line.
        """
        if isinstance(self.location, BridgeLocation):
            return ((FloatingNode.BIT_LINE,),)
        nodes = floating_nodes(self.location)
        plans = [(node,) for node in nodes]
        if len(nodes) > 1:
            plans.append(tuple(nodes))
        return tuple(plans)

    # -- single-point execution ---------------------------------------------------

    def _preset_data(self, sos: SOS, init_via_write: bool) -> Dict[int, int]:
        """Cell preloads for one SOS (victim excluded when written instead)."""
        return {
            self._row_of(init.cell): init.value
            for init in sos.inits
            if not (init_via_write and init.cell == VICTIM)
        }

    def _classify(self, sos: SOS, faulty_value: int,
                  read_value: Optional[int]) -> Observation:
        fp = FaultPrimitive(sos, faulty_value, read_value)
        if not fp.is_faulty():
            return Observation(None, None, faulty_value, read_value)
        ffm = classify_two_cell_fp(fp) or classify_fp(fp)
        return Observation(fp, ffm, faulty_value, read_value)

    def _cache_store(self, key: Tuple, obs: Observation) -> None:
        if (
            self.max_cache_entries is not None
            and len(self._cache) >= self.max_cache_entries
        ):
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = obs
        telemetry.gauge("analyzer.cache_size", len(self._cache))

    def _execute_scalar(
        self, sos: SOS, r_def: float, u: float,
        floating: Tuple[FloatingNode, ...],
    ) -> Tuple[int, Optional[int]]:
        """Run one SOS at one operating point; return ``(F, R)``."""
        global _CURRENT_POINT
        telemetry.count("analyzer.sos_executions")
        _CURRENT_POINT = {
            "location": self.location, "r_def": r_def, "u": u,
        }
        try:
            return self._execute_scalar_inner(sos, r_def, u, floating)
        finally:
            _CURRENT_POINT = None

    def _execute_scalar_inner(
        self, sos: SOS, r_def: float, u: float,
        floating: Tuple[FloatingNode, ...],
    ) -> Tuple[int, Optional[int]]:
        column = self.make_column(r_def)
        # When the floating voltage *is* the victim's storage node, the
        # swept U is the cell voltage before initialization: the victim's
        # initialization must then happen through the defective circuit
        # (a write operation).  For every other floating node the
        # initializations are plain state presets, and U models the charge
        # an arbitrary earlier history left on the floating node.
        init_via_write = FloatingNode.CELL in floating
        column.reset(self._preset_data(sos, init_via_write))
        for node in floating:
            column.set_floating_voltage(node, u)
        ran_anything = False
        if init_via_write:
            for init in sos.inits:
                if init.cell == VICTIM:
                    column.write(self.victim_row, init.value)
                    ran_anything = True
        last_victim_read: Optional[int] = None
        if not sos.ops and not ran_anything:
            # State-fault probe: nothing addresses the cell, but precharge
            # cycles still run (the Open 9 SF mechanism; a bridge's leak).
            for _ in range(_STATE_CYCLES[type(self.location)]):
                column.precharge_cycle()
        for op in sos.ops:
            row = self._row_of(op.cell)
            if op.is_write:
                column.write(row, op.value)
            else:
                result = column.read(row)
                if op.cell == VICTIM:
                    last_victim_read = result
        faulty_value = column.logical_state(self.victim_row)
        read_value = last_victim_read if sos.ends_in_read else None
        return faulty_value, read_value

    def _execute_grid(
        self, sos: SOS, r_values: Sequence[float],
        u_values: Sequence[float], floating: Tuple[FloatingNode, ...],
    ) -> Tuple[Dict[int, List[Tuple[int, Optional[int]]]], Dict[int, str]]:
        """Run one SOS over a whole ``(R_def, U)`` tile in lock-step.

        Returns ``(outcomes, demoted)``: ``outcomes`` maps each finished
        row (position in ``r_values``) to its per-lane ``(F, R)`` list;
        ``demoted`` maps rows with a point the grid could not finish
        (solver guard trips) to the demotion reason — the caller re-runs
        those rows per point through the scalar oracle.
        """
        global _CURRENT_POINT
        _CURRENT_POINT = {
            "location": self.location, "grid": True,
            "r_def": tuple(r_values), "u": tuple(u_values),
        }
        try:
            return self._execute_grid_inner(sos, r_values, u_values, floating)
        finally:
            _CURRENT_POINT = None

    def _execute_grid_inner(
        self, sos: SOS, r_values: Sequence[float],
        u_values: Sequence[float], floating: Tuple[FloatingNode, ...],
    ) -> Tuple[Dict[int, List[Tuple[int, Optional[int]]]], Dict[int, str]]:
        telemetry.count("analyzer.grid_tiles")
        init_via_write = FloatingNode.CELL in floating
        data = self._preset_data(sos, init_via_write)
        # The state-mutating step list: victim init writes (when the cell
        # itself floats), then the operations; an empty sequence still
        # runs the state probe's precharge cycles like the scalar path.
        steps: List[tuple] = []
        if init_via_write:
            for init in sos.inits:
                if init.cell == VICTIM:
                    steps.append(("w", self.victim_row, init.value, False))
        if not sos.ops and not steps:
            steps.extend([("pc",)] * _STATE_CYCLES[type(self.location)])
        for op in sos.ops:
            row = self._row_of(op.cell)
            if op.is_write:
                steps.append(("w", row, op.value, False))
            else:
                steps.append(("r", row, op.cell == VICTIM))
        # An installed fault hook targets individual solves, so replayed
        # prefixes would dodge (or double-take) injections: bypass the
        # memo entirely and execute from scratch.
        hook_active = circuit_network._FAULT_HOOK is not None
        base_key = (
            tuple(float(r) for r in r_values),
            tuple(float(u) for u in u_values),
            floating, tuple(sorted(data.items())), init_via_write,
        )
        entry = (
            None if hook_active else self._grid_prefix_cache.get(base_key)
        )
        last_victim_read: Optional[np.ndarray] = None
        if entry is not None:
            batch = entry["batch"]
            self._grid_prefix_cache.move_to_end(base_key)
            # Resume from the longest snapshotted prefix of the step list
            # (possibly all of it, when the same SOS recurs on the tile).
            start_k, snap = 0, entry["snap0"]
            snaps = entry["snaps"]
            for k in range(len(steps), 0, -1):
                hit = snaps.get(tuple(steps[:k]))
                if hit is not None:
                    start_k, snap = k, hit
                    snaps.move_to_end(tuple(steps[:k]))
                    break
            batch.restore(snap[0])
            last_victim_read = snap[1]
            telemetry.count("analyzer.grid_prefix_reuses")
            telemetry.count("analyzer.grid_prefix_steps_skipped", start_k)
        else:
            batch = GridBatch.floating_tile(
                self.make_column(r_values[0]), r_values, u_values, data,
                floating, ens_cache=self._grid_ens_cache,
                plan_cache=self._grid_plan_cache,
            )
            start_k = 0
            if not hook_active:
                entry = {
                    "batch": batch,
                    "snap0": (batch.snapshot(), None),
                    "snaps": OrderedDict(),
                }
                self._grid_prefix_cache[base_key] = entry
                while len(self._grid_prefix_cache) > _PREFIX_TILES:
                    self._grid_prefix_cache.popitem(last=False)
        store_snaps = entry is not None
        for i in range(start_k, len(steps)):
            step = steps[i]
            if step[0] == "w":
                batch.write(step[1], step[2])
            elif step[0] == "r":
                result = batch.read(step[1])
                if step[2]:
                    last_victim_read = result
            else:
                batch.precharge_cycle()
            if store_snaps:
                if batch.demoted:
                    # The pool shrank: snapshots no longer line up with
                    # the batch, and the batch itself is no longer a
                    # valid template.  Drop the tile entry after the run.
                    store_snaps = False
                else:
                    snaps = entry["snaps"]
                    snaps[tuple(steps[:i + 1])] = (
                        batch.snapshot(), last_victim_read,
                    )
                    while len(snaps) > _PREFIX_SNAPS:
                        snaps.popitem(last=False)
        if entry is not None and batch.demoted:
            self._grid_prefix_cache.pop(base_key, None)
        # The caller's contract is per-R rows, so a row is returned only
        # when every one of its points survived; a row with any demoted
        # point re-runs scalar as a whole (guard trips only, and the
        # scalar re-run re-applies quarantine per point).
        n_u = len(u_values)
        demoted: Dict[int, str] = {}
        for (i, _), reason in sorted(batch.demoted.items()):
            demoted.setdefault(i, reason)
        faulty = batch.logical_states(self.victim_row).tolist()
        reads = (
            last_victim_read.tolist()
            if sos.ends_in_read and last_victim_read is not None
            else [[None] * n_u] * len(r_values)
        )
        outcomes: Dict[int, List[Tuple[int, Optional[int]]]] = {
            i: list(zip(faulty[i], reads[i]))
            for i in range(len(r_values)) if i not in demoted
        }
        # Counted on success only: demoted rows re-run scalar, and the
        # scalar path does its own counting (keeps executions == misses).
        telemetry.count("analyzer.sos_executions", len(outcomes) * n_u)
        return outcomes, demoted

    def observe_grid(
        self, sos: SOS, r_values: Sequence[float],
        u_values: Sequence[float], floating,
    ) -> List[List[Observation]]:
        """Observations for a whole ``(R_def, U)`` tile, one row per ``R``.

        Fully cached rows come from the cache.  With the grid engine on,
        every row with no cached point joins one
        :class:`~repro.circuit.column.GridBatch` (stacked propagators, one
        matmul per phase for the entire tile).  Every other row — partly
        cached, demoted by a guard trip inside the tile, or any row with
        ``grid_engine=False`` — runs per point through :meth:`observe`,
        the scalar oracle, with its cache and quarantine semantics.
        Results are identical either way; the grid is purely an
        execution strategy.
        """
        floating = _as_nodes(floating)
        r_values = tuple(r_values)
        u_values = tuple(u_values)
        rows: List[Optional[List[Observation]]] = []
        tile: List[int] = []
        for i, r in enumerate(r_values):
            cached = [self._cache.get((sos, r, u, floating)) for u in u_values]
            if all(obs is not None for obs in cached):
                n = len(u_values)
                telemetry.count("analyzer.observe_calls", n)
                self._cache_hits += n
                telemetry.count("analyzer.cache_hits", n)
                rows.append(cached)  # type: ignore[arg-type]
                continue
            rows.append(None)
            if self.grid_engine and all(obs is None for obs in cached):
                tile.append(i)
        if tile:
            outcomes, demoted = self._execute_grid(
                sos, [r_values[i] for i in tile], u_values, floating
            )
            for member, i in enumerate(tile):
                if member not in outcomes:
                    telemetry.count("analyzer.grid_demotions")
                    telemetry.count(
                        "analyzer.grid_fallback_points", len(u_values)
                    )
                    if demoted.get(member) == "guard":
                        telemetry.count("solver.guard_batch_fallbacks")
                    continue
                row_obs: List[Observation] = []
                for u, (faulty_value, read_value) in zip(
                    u_values, outcomes[member]
                ):
                    telemetry.count("analyzer.observe_calls")
                    self._cache_misses += 1
                    telemetry.count("analyzer.cache_misses")
                    obs = self._classify(sos, faulty_value, read_value)
                    self._cache_store((sos, r_values[i], u, floating), obs)
                    row_obs.append(obs)
                rows[i] = row_obs
        return [
            row if row is not None
            else [self.observe(sos, r, u, floating) for u in u_values]
            for r, row in zip(r_values, rows)
        ]

    def _quarantine(
        self, sos: SOS, r_def: float, u: float,
        floating: Tuple[FloatingNode, ...], err: SolverDivergenceError,
    ) -> Observation:
        """Record a guard trip as a quarantined point; return its marker."""
        point = QuarantinedPoint(
            location=self.location,
            floating=floating,
            sos=sos.to_string(),
            r_def=r_def,
            u=u,
            guard=err.guard,
            detail=str(err),
        )
        self.quarantined.append(point)
        telemetry.count("analyzer.quarantined_points")
        return Observation(None, None, -1, None, quarantined=True)

    def observe(
        self, sos: SOS, r_def: float, u: float, floating
    ) -> Observation:
        """Execute one SOS at one operating point; classify the behaviour.

        ``floating`` is one :class:`FloatingNode` or a tuple of them (all
        initialized to the same ``U``).  Under ``GuardPolicy.QUARANTINE``
        a solver guard trip is absorbed: the point is recorded on
        :attr:`quarantined` and a quarantined observation is returned.
        """
        floating = _as_nodes(floating)
        telemetry.count("analyzer.observe_calls")
        key = (sos, r_def, u, floating)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache_hits += 1
            telemetry.count("analyzer.cache_hits")
            return hit
        self._cache_misses += 1
        telemetry.count("analyzer.cache_misses")
        try:
            faulty_value, read_value = self._execute_scalar(
                sos, r_def, u, floating
            )
        except SolverDivergenceError as err:
            if self._effective_policy() is not GuardPolicy.QUARANTINE:
                raise
            obs = self._quarantine(sos, r_def, u, floating, err)
        else:
            obs = self._classify(sos, faulty_value, read_value)
        self._cache_store(key, obs)
        return obs

    # -- region maps (Figs. 3 and 4) ---------------------------------------------

    def region_map(
        self,
        sos: SOS,
        floating,
        grid: Optional[SweepGrid] = None,
        label: str = "ffm",
    ) -> FPRegionMap:
        """Classify the whole ``(R_def, U)`` grid for one SOS.

        ``label`` selects what the map stores per point: ``"ffm"`` (the FFM,
        or the raw FP string when unclassifiable) or ``"fp"`` (the full FP).
        """
        if label not in ("ffm", "fp"):
            raise ValueError("label must be 'ffm' or 'fp'")
        grid = grid or self.grid

        def label_of(obs: Observation):
            if obs.quarantined:
                return QUARANTINED
            if obs.fp is None:
                return None
            if label == "fp":
                return obs.fp
            return obs.ffm if obs.ffm is not None else obs.fp.to_string()

        telemetry.count(
            "analyzer.grid_points", len(grid.r_values) * len(grid.u_values)
        )
        tile = self.observe_grid(
            sos, grid.r_values, grid.u_values, floating
        )
        rows = tuple(
            tuple(label_of(obs) for obs in column) for column in tile
        )
        return FPRegionMap(grid.r_values, grid.u_values, rows)

    # -- marginal-point detection ---------------------------------------------

    def marginal_points(
        self,
        sos: SOS,
        floating,
        region: FPRegionMap,
        epsilon: Optional[float] = None,
    ) -> Tuple[Tuple[float, float], ...]:
        """Region-boundary points whose label flips under ``±ε`` U jitter.

        For every boundary point of every observed label, the SOS is
        re-executed with the floating voltage nudged by ``±epsilon``
        (clamped to the map's U range); a point whose classification
        differs for either nudge is *marginal* — its region assignment is
        grid-resolution-fragile, the stress-condition sensitivity studied
        by Majhi et al.  The default ``epsilon`` is 2% of the U span.
        Returns the ``(r, u)`` coordinates of the marginal points.
        """
        floating = _as_nodes(floating)
        u_lo, u_hi = region.u_values[0], region.u_values[-1]
        if epsilon is None:
            span = u_hi - u_lo
            epsilon = 0.02 * (span if span > 0 else self.technology.vdd)
        candidates: List[Tuple[int, int]] = []
        seen = set()
        for lab in region.observed_labels:
            if lab is QUARANTINED:
                continue
            for ij in region.boundary_points(lab):
                if ij not in seen:
                    seen.add(ij)
                    candidates.append(ij)
        marginal: List[Tuple[float, float]] = []
        for i, j in sorted(candidates):
            r = region.r_values[i]
            u = region.u_values[j]
            base = region.labels[i][j]
            for du in (-epsilon, epsilon):
                u_jit = min(max(u + du, u_lo), u_hi)
                if u_jit == u:
                    continue
                obs = self.observe(sos, r, u_jit, floating)
                if obs.quarantined:
                    jittered = QUARANTINED
                elif obs.fp is None:
                    jittered = None
                else:
                    jittered = (
                        obs.ffm if obs.ffm is not None else obs.fp.to_string()
                    )
                if jittered != base:
                    marginal.append((r, u))
                    telemetry.count("analyzer.marginal_points")
                    break
        return tuple(marginal)

    # -- the Section 5 survey -------------------------------------------------------

    def survey(
        self,
        floating: Optional[FloatingNode] = None,
        probes: Optional[Sequence[Union[str, SOS]]] = None,
        grid: Optional[SweepGrid] = None,
    ) -> List[PartialFaultFinding]:
        """Probe the defect with the single-cell SOS space; report findings.

        ``probes`` replaces the probe space (a bridge survey passes the
        two-cell :func:`~repro.core.coupling.two_cell_state_probes`).
        One finding is returned per (floating voltage, FFM or coupling
        FFM) pair observed anywhere in the plane.  ``finding.is_partial``
        applies the paper's rule.  When ``floating`` is None, all floating
        voltages prescribed for this open by the Section 2 rules are swept
        in turn.
        """
        if floating is not None:
            plans: Tuple[Tuple[FloatingNode, ...], ...] = (_as_nodes(floating),)
        else:
            plans = self.sweep_plans()
        probe_list = tuple(probes) if probes is not None else PROBE_SOSES
        findings: List[PartialFaultFinding] = []
        with telemetry.span(
            "analyzer.survey",
            location=self.location.name,
            plans=len(plans),
            probes=len(probe_list),
        ) as sp:
            for plan in plans:
                for text in probe_list:
                    sos = parse_sos(text) if isinstance(text, str) else text
                    region = self.region_map(sos, plan, grid=grid)
                    for observed in region.observed_labels:
                        if not isinstance(observed, (FFM, CouplingFFM)):
                            continue
                        findings.append(
                            PartialFaultFinding(
                                self.location, plan, sos, observed, region
                            )
                        )
            sp.set(findings=len(findings))
        return findings
