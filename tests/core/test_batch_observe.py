"""The analyzer's default, batched execution (R x U tiles on the grid
engine) agrees with scalar observation at nominal technology."""

import pytest

from repro.circuit.defects import FloatingNode, OpenLocation
from repro.core.analysis import ColumnFaultAnalyzer, default_grid_for
from repro.core.fault_primitives import parse_sos


def _label_grid(analyzer, sos, floating, grid):
    return analyzer.region_map(sos, floating, grid=grid).labels


@pytest.mark.parametrize(
    "location,floating,sos_text",
    [
        (OpenLocation.BL_PRECHARGE_CELLS, FloatingNode.BIT_LINE, "1r1"),
        (OpenLocation.CELL, FloatingNode.CELL, "0r0"),
        (OpenLocation.SENSE_AMPLIFIER, FloatingNode.BIT_LINE, "0w1"),
        (OpenLocation.WORD_LINE, FloatingNode.WORD_LINE, "1r1"),
    ],
)
def test_region_map_batch_equals_scalar(location, floating, sos_text):
    grid = default_grid_for(location, n_r=5, n_u=4)
    sos = parse_sos(sos_text)
    scalar = ColumnFaultAnalyzer(location, grid=grid, grid_engine=False)
    # No knob: the default analyzer is the batched one.
    batched = ColumnFaultAnalyzer(location, grid=grid)
    assert batched.grid_engine
    assert _label_grid(scalar, sos, floating, grid) == _label_grid(
        batched, sos, floating, grid
    )


def test_full_survey_batch_equals_scalar():
    """End to end: findings and regions match for every plan and probe."""
    location = OpenLocation.BL_SENSEAMP_IO
    grid = default_grid_for(location, n_r=4, n_u=3)

    def fingerprint(**kwargs):
        analyzer = ColumnFaultAnalyzer(location, grid=grid, **kwargs)
        return [
            (f.location, f.floating, f.probe_sos, f.ffm, f.region.labels)
            for f in analyzer.survey()
        ]

    assert fingerprint() == fingerprint(grid_engine=False)
