"""Tests for the bridge experiment and for bridges on the column analyzer.

``golden/bridges.txt`` pins the default ``run_bridges()`` report byte for
byte.  Regenerate it only on purpose::

    PYTHONPATH=src python tests/experiments/test_bridges.py
"""

import os

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.campaign.corners import CornerMatrix
from repro.circuit.bridges import BridgeLocation
from repro.circuit.column import DRAMColumn, GridBatch
from repro.circuit.defects import FloatingNode, OpenLocation
from repro.circuit.technology import default_technology
from repro.core.analysis import ColumnFaultAnalyzer, SweepGrid, default_grid_for
from repro.core.coupling import CouplingFFM, two_cell_state_probes
from repro.core.fault_primitives import parse_sos
from repro.experiments.bridges import run_bridges

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "bridges.txt")

NOMINAL = default_technology()
CORNERS = {
    "nominal": NOMINAL,
    "vdd=x0.9": CornerMatrix.from_spec("vdd=0.9").corners()[0].technology(),
    "85C": NOMINAL.at_temperature(85),
}
PROBES = two_cell_state_probes()


class TestBridgeAnalyzer:
    @pytest.fixture(scope="class")
    def analyzer(self):
        return ColumnFaultAnalyzer(
            BridgeLocation.CELL_CELL,
            grid=SweepGrid.make(r_min=1e3, r_max=1e8, n_r=6, n_u=4),
        )

    def test_strong_bridge_couples_states(self, analyzer):
        obs = analyzer.observe(
            parse_sos("1a 0v"), 1e4, 0.0, FloatingNode.BIT_LINE
        )
        assert obs.ffm is CouplingFFM.CFST_10

    def test_weak_bridge_is_benign(self, analyzer):
        obs = analyzer.observe(
            parse_sos("1a 0v"), 1e8, 0.0, FloatingNode.BIT_LINE
        )
        assert obs.fp is None and obs.ffm is None

    def test_survey_finds_coupling(self, analyzer):
        findings = analyzer.survey(FloatingNode.BIT_LINE, probes=PROBES)
        assert any(isinstance(f.ffm, CouplingFFM) for f in findings)

    def test_fault_regions_not_partial(self, analyzer):
        for finding in analyzer.survey(FloatingNode.BIT_LINE, probes=PROBES):
            assert finding.region.partial_area_fraction() <= 0.35
            assert not finding.is_partial

    def test_aggressor_maps_to_partner_row(self, analyzer):
        assert analyzer._row_of("a") == analyzer.victim_row + 1

    def test_needs_partner_row(self):
        with pytest.raises(ValueError):
            ColumnFaultAnalyzer(BridgeLocation.CELL_CELL, n_rows=1)

    def test_default_grid(self):
        grid = default_grid_for(BridgeLocation.CELL_CELL, n_r=5, n_u=4)
        assert len(grid.r_values) == 5
        assert grid.r_values[0] == 1e3
        assert grid.r_values[-1] == pytest.approx(1e9)


@pytest.mark.parametrize(
    "location,cycles",
    [(BridgeLocation.CELL_GROUND, 6), (OpenLocation.BL_PRECHARGE_CELLS, 1)],
)
@pytest.mark.parametrize("grid_engine", [True, False])
def test_state_probe_precharge_cycles(monkeypatch, location, cycles,
                                      grid_engine):
    """A bridge's state probe idles 6 precharge cycles, an open's 1."""
    calls = []
    monkeypatch.setattr(
        DRAMColumn, "precharge_cycle", lambda self: calls.append(self)
    )
    if grid_engine:
        monkeypatch.setattr(
            GridBatch, "precharge_cycle", lambda self: calls.append(self)
        )
    analyzer = ColumnFaultAnalyzer(location, grid_engine=grid_engine)
    analyzer.observe_grid(parse_sos("1"), (1e5,), (0.0,),
                          FloatingNode.BIT_LINE)
    assert len(calls) == cycles


@settings(max_examples=150, deadline=None)
@given(
    corner=st.sampled_from(sorted(CORNERS)),
    location=st.sampled_from(list(BridgeLocation)),
    sos=st.sampled_from(PROBES),
    r_values=st.lists(
        st.integers(0, 600).map(lambda k: 10.0 ** (3 + k / 100)),
        min_size=1, max_size=6,
    ),
    u_values=st.lists(st.floats(0.0, 3.3), min_size=1, max_size=3),
)
# State probes inside the resistance window where 6 idle cycles flip the
# label that 1 cycle would give.
@example("nominal", BridgeLocation.CELL_CELL, parse_sos("1a 0v"),
         [4e5, 5e5], [0.0, 3.3])
@example("vdd=x0.9", BridgeLocation.CELL_BITLINE, parse_sos("0a 0v"),
         [2e5, 3e5], [1.0])
@example("85C", BridgeLocation.CELL_GROUND, parse_sos("1a 1v"),
         [1e5, 2e5, 3e5], [0.0, 2.0])
def test_bridge_grid_engine_matches_scalar(corner, location, sos, r_values,
                                           u_values):
    """The default (tiled) bridge analyzer labels every point exactly as
    the scalar oracle does, at the nominal and both stress corners.
    ``R`` is log-uniform over ``[1e3, 1e9]`` in 1/100-decade steps."""

    def labels(**kwargs):
        analyzer = ColumnFaultAnalyzer(location, CORNERS[corner], **kwargs)
        return [
            [(obs.fp, obs.ffm) for obs in row]
            for row in analyzer.observe_grid(
                sos, r_values, u_values, FloatingNode.BIT_LINE
            )
        ]

    assert labels() == labels(grid_engine=False)


def test_report_matches_golden():
    with open(GOLDEN, "rb") as fh:
        golden = fh.read()
    assert (run_bridges().report.render() + "\n").encode("utf-8") == golden


@pytest.mark.slow
class TestBridgeExperiment:
    def test_all_claims_hold(self):
        result = run_bridges(n_r=8, n_u=5)
        assert result.report.all_hold, result.report.render()
        assert result.open_partial_fraction > result.max_bridge_partial_fraction


if __name__ == "__main__":  # pragma: no cover - regeneration entry
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(run_bridges().report.render() + "\n")
