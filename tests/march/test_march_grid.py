"""The grid march engine agrees with the scalar oracle point for point.

:func:`repro.march.simulator.run_march_grid` runs one march test over a
whole ``(R_def × floating preset)`` tile; every point must get exactly the
:class:`~repro.march.simulator.MarchResult` scalar :func:`run_march`
returns on a preset :class:`~repro.memory.simulator.ElectricalMemory`:

* a Hypothesis differential over all nine opens (Open 9 as width-1
  members), resistances from the analysis ranges, presets ``{0, vdd,
  random}``, both ``stop_at_first`` values, both ``⇕`` resolutions, tests
  with ``Del`` elements, at nominal and at stressed corners;
* :meth:`GridBatch.idle` decays every point bit for bit like
  :meth:`DRAMColumn.idle`;
* a solver fault on one tile member sends exactly that member's points to
  the scalar oracle and leaves every other point unchanged;
* march tiles never touch the process-global ensemble LRU.
"""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import telemetry
from repro.campaign.corners import CornerMatrix
from repro.circuit.bridges import BridgeDefect, BridgeLocation
from repro.circuit.column import DRAMColumn, GridBatch
from repro.circuit.defects import OpenDefect, OpenLocation
from repro.circuit.network import (
    GuardPolicy,
    _install_solver_fault_hook,
    ensemble_cache_clear,
    ensemble_cache_info,
    propagator_cache_clear,
    solver_guards_configure,
)
from repro.circuit.technology import default_technology
from repro.core.analysis import _R_RANGES
from repro.march.library import IFA_13, MARCH_G, MARCH_PF_PLUS, MATS_PLUS
from repro.march.notation import Direction
from repro.march.simulator import (
    TileMemo,
    preset_memory,
    run_march,
    run_march_grid,
)

NOMINAL = default_technology()
CORNERS = {
    "nominal": None,
    "vdd=x0.9": CornerMatrix.from_spec("vdd=0.9").corners()[0].technology(),
    "85C": NOMINAL.at_temperature(85),
}
TESTS = (MATS_PLUS, MARCH_PF_PLUS, IFA_13, MARCH_G)


@pytest.fixture(autouse=True)
def _pristine_solver():
    propagator_cache_clear()
    _install_solver_fault_hook(None)
    solver_guards_configure(nan_checks=True, policy=GuardPolicy.RAISE)
    yield
    _install_solver_fault_hook(None)
    solver_guards_configure(nan_checks=True, policy=GuardPolicy.RAISE)
    propagator_cache_clear()


def _scalar(test, location, r, preset, technology=None, **kwargs):
    memory = preset_memory(OpenDefect(location, r), preset, technology)
    return run_march(test, memory, **kwargs)


def _assert_matches_scalar(test, location, r_values, presets, technology,
                           grid, **kwargs):
    assert len(grid) == len(r_values)
    for i, r in enumerate(r_values):
        assert len(grid[i]) == len(presets)
        for j, preset in enumerate(presets):
            expected = _scalar(test, location, r, preset, technology,
                               **kwargs)
            assert grid[i][j] == expected, (location, r, preset)


# -- differential: grid vs scalar run_march -------------------------------------

@st.composite
def tiles(draw):
    location = draw(st.sampled_from(list(OpenLocation)))
    lo, hi = _R_RANGES[location]
    r_values = draw(st.lists(
        st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10 ** x),
        min_size=1, max_size=2,
    ))
    corner = draw(st.sampled_from(sorted(CORNERS)))
    technology = CORNERS[corner]
    vdd = (technology or NOMINAL).vdd
    presets = draw(st.lists(
        st.one_of(st.just(0.0), st.just(vdd), st.floats(0.0, vdd)),
        min_size=1, max_size=3,
    ))
    return location, r_values, presets, technology


@settings(max_examples=25, deadline=None)
@given(
    tiles(),
    st.sampled_from(TESTS),
    st.booleans(),
    st.sampled_from([Direction.UP, Direction.DOWN]),
)
def test_grid_equals_scalar(tile, test, stop_at_first, either_as):
    location, r_values, presets, technology = tile
    grid = run_march_grid(
        test, location, r_values, presets, technology=technology,
        either_as=either_as, stop_at_first=stop_at_first,
    )
    _assert_matches_scalar(
        test, location, r_values, presets, technology, grid,
        either_as=either_as, stop_at_first=stop_at_first,
    )


@pytest.mark.parametrize("location", list(OpenLocation))
@pytest.mark.parametrize("stop_at_first", [False, True])
def test_every_open_with_delays_equals_scalar(location, stop_at_first):
    # Deterministic coverage of all nine opens (Open 9 as width-1
    # members) through a test with Del elements, at the hot corner where
    # retention leakage is strongest.
    lo, hi = _R_RANGES[location]
    r_values = (lo, math.sqrt(lo * hi), hi)
    presets = (0.0, 3.3, 1.7)
    technology = CORNERS["85C"]
    grid = run_march_grid(
        IFA_13, location, r_values, presets, technology=technology,
        stop_at_first=stop_at_first,
    )
    _assert_matches_scalar(
        IFA_13, location, r_values, presets, technology, grid,
        stop_at_first=stop_at_first,
    )


def test_counts_runs_and_operations_per_point():
    r_values, presets = (1e4, 1e6, 1e7), (0.0, 3.3)
    location = OpenLocation.BL_PRECHARGE_CELLS
    counts = []
    for runner in ("grid", "scalar"):
        telemetry.reset()
        telemetry.enable()
        try:
            if runner == "grid":
                run_march_grid(MATS_PLUS, location, r_values, presets,
                               stop_at_first=True)
            else:
                for r in r_values:
                    for preset in presets:
                        _scalar(MATS_PLUS, location, r, preset,
                                stop_at_first=True)
            metrics = telemetry.get_metrics()
            counts.append(tuple(
                metrics.counter_value(name) for name in (
                    "march.runs", "march.operations",
                    "march.elements_applied",
                )
            ))
        finally:
            telemetry.disable()
            telemetry.reset()
    assert counts[0] == counts[1]
    assert counts[0][0] == len(r_values) * len(presets)


def test_memo_is_bound_to_one_configuration():
    memo = TileMemo()
    run_march_grid(MATS_PLUS, OpenLocation.CELL, (1e5,), (0.0,), memo=memo)
    with pytest.raises(ValueError):
        run_march_grid(MATS_PLUS, OpenLocation.PRECHARGE, (1e5,), (0.0,),
                       memo=memo)


# -- GridBatch.idle vs DRAMColumn.idle ------------------------------------------

@pytest.mark.parametrize("corner", sorted(CORNERS))
@pytest.mark.parametrize("seconds", [1e-6, 0.1, 3.0])
def test_gridbatch_idle_equals_column_idle_bitwise(corner, seconds):
    technology = CORNERS[corner]
    location = OpenLocation.BL_CELLS_REFERENCE
    r_values = (3e3, 2e5, 3e7)
    host = DRAMColumn(technology, defect=OpenDefect(location, r_values[0]))
    rng = np.random.default_rng(5)
    n_nodes = len(host.net.node_names)
    lanes = [rng.uniform(0.0, 3.3, size=n_nodes) for _ in range(4)]
    batch = GridBatch.tile(host, r_values, lanes)
    batch.idle(seconds)
    after = batch.V.reshape(n_nodes, len(r_values), len(lanes))
    for i, r in enumerate(r_values):
        for j, lane in enumerate(lanes):
            column = DRAMColumn(technology, defect=OpenDefect(location, r))
            for k, name in enumerate(column.net.node_names):
                column.net.set_voltage(name, lane[k])
            column.idle(seconds)
            assert np.array_equal(after[:, i, j], column.net.state_vector())


@pytest.mark.parametrize("corner", sorted(CORNERS))
@pytest.mark.parametrize("seconds", [1e-6, 0.1, 3.0])
def test_gridbatch_idle_on_ground_bridge_tile_uses_each_points_r(
    corner, seconds
):
    """A CELL_GROUND bridge leaks by its own resistance, so every member
    of a bridge tile decays as the scalar column with that bridge."""
    technology = CORNERS[corner]
    location = BridgeLocation.CELL_GROUND
    r_values = (1e3, 1e6, 1e9)
    host = DRAMColumn(technology, defect=BridgeDefect(location, r_values[0]))
    rng = np.random.default_rng(11)
    n_nodes = len(host.net.node_names)
    lanes = [rng.uniform(0.0, 3.3, size=n_nodes) for _ in range(3)]
    batch = GridBatch.tile(host, r_values, lanes)
    batch.idle(seconds)
    after = batch.V.reshape(n_nodes, len(r_values), len(lanes))
    for i, r in enumerate(r_values):
        for j, lane in enumerate(lanes):
            column = DRAMColumn(technology, defect=BridgeDefect(location, r))
            for k, name in enumerate(column.net.node_names):
                column.net.set_voltage(name, lane[k])
            column.idle(seconds)
            assert np.array_equal(after[:, i, j], column.net.state_vector())


def test_gridbatch_idle_rejects_negative_durations():
    host = DRAMColumn(defect=OpenDefect(OpenLocation.CELL, 1e5))
    batch = GridBatch.tile(host, (1e5,), [host.net.state_vector()])
    with pytest.raises(ValueError):
        batch.idle(-1.0)
    before = batch.V.copy()
    batch.idle(0.0)
    assert np.array_equal(batch.V, before)


# -- robustness: guard trips fall back to the scalar oracle ---------------------

@pytest.mark.parametrize("policy", [GuardPolicy.RAISE, GuardPolicy.QUARANTINE])
@pytest.mark.parametrize(
    "location,r_values",
    [
        (OpenLocation.BL_PRECHARGE_CELLS, (1e4, 3e5, 1e7)),
        (OpenLocation.WORD_LINE, (1e7, 1e8, 1e9)),
    ],
)
def test_tripped_member_comes_from_the_scalar_oracle(policy, location,
                                                     r_values):
    presets = (0.0, 3.3)
    target = r_values[1]
    clean = run_march_grid(MARCH_PF_PLUS, location, r_values, presets)
    fires = []

    def poison_one_member(voltages, info):
        # Grid solves only: the scalar re-run of the member goes clean.
        if info.get("grid") and info.get("member_r") == target:
            if location is not OpenLocation.WORD_LINE or info["lanes"] == (1,):
                fires.append(info)
                out = np.array(voltages)
                out[0, :] = np.nan
                return out
        return voltages

    solver_guards_configure(policy=policy)
    telemetry.reset()
    telemetry.enable()
    _install_solver_fault_hook(poison_one_member)
    try:
        injected = run_march_grid(MARCH_PF_PLUS, location, r_values, presets)
        fallback_points = telemetry.get_metrics().counter_value(
            "march.grid_fallback_points"
        )
    finally:
        _install_solver_fault_hook(None)
        telemetry.disable()
        telemetry.reset()
    assert len(fires) == 1  # the member left the pool at its first trip
    # Width-1 word-line members hold one point; others hold every preset.
    assert fallback_points == (
        1 if location is OpenLocation.WORD_LINE else len(presets)
    )
    assert injected == clean
    _assert_matches_scalar(MARCH_PF_PLUS, location, r_values, presets, None,
                           injected)


def test_march_tiles_stay_out_of_the_global_ensemble_lru():
    ensemble_cache_clear()
    before = ensemble_cache_info()
    run_march_grid(MARCH_PF_PLUS, OpenLocation.BL_SENSEAMP_IO,
                   (1e4, 1e6, 1e8), (0.0, 3.3))
    run_march_grid(MATS_PLUS, OpenLocation.WORD_LINE, (1e7, 1e9), (0.0, 3.3))
    after = ensemble_cache_info()
    assert after.currsize == before.currsize == 0
    assert (after.hits, after.misses) == (before.hits, before.misses)
