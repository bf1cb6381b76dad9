"""Tests for the escape analysis (small populations)."""

import pytest

from repro.circuit.defects import OpenLocation
from repro.experiments.escapes import (
    _PRESETS,
    _screen,
    _screen_population,
    run_escapes,
    sample_defects,
)
from repro.march.library import MARCH_PF_PLUS, MATS_PLUS


class TestSampling:
    def test_deterministic_with_seed(self):
        assert sample_defects(10, seed=1) == sample_defects(10, seed=1)

    def test_respects_location_ranges(self):
        from repro.core.analysis import _R_RANGES

        for defect in sample_defects(50, seed=3):
            lo, hi = _R_RANGES[defect.location]
            assert lo <= defect.resistance <= hi

    def test_location_filter(self):
        defects = sample_defects(
            8, seed=2, locations=(OpenLocation.CELL,)
        )
        assert all(d.location is OpenLocation.CELL for d in defects)


class TestScreening:
    def test_strong_open_is_flagged(self):
        from repro.circuit.defects import OpenDefect

        defect = OpenDefect(OpenLocation.BL_PRECHARGE_CELLS, 1e6)
        assert _screen(MARCH_PF_PLUS, defect, 0.0, None, 3)

    def test_healthy_range_passes(self):
        from repro.circuit.defects import OpenDefect

        defect = OpenDefect(OpenLocation.BL_PRECHARGE_CELLS, 3e3)
        assert not _screen(MATS_PLUS, defect, 0.0, None, 3)


    def test_population_tiles_match_per_defect_screens(self):
        from repro.march.library import (
            MARCH_B, MARCH_C_MINUS, MARCH_PF, MARCH_SS,
        )

        # run_escapes' default test set.
        tests = (MATS_PLUS, MARCH_B, MARCH_PF, MARCH_C_MINUS, MARCH_SS,
                 MARCH_PF_PLUS)
        defects = sample_defects(20, seed=11)
        assert len({d.location for d in defects}) > 3
        expected = [
            {
                test.name: [
                    _screen(test, defect, preset, None, 3)
                    for preset in _PRESETS
                ]
                for test in tests
            }
            for defect in defects
        ]
        screened = _screen_population(tests, defects, None, 3)
        assert screened == expected
        assert any(any(any(v) for v in d.values()) for d in screened)


@pytest.mark.slow
class TestExperiment:
    def test_small_population(self):
        result = run_escapes(n_defects=30, seed=7)
        assert result.escape_rates["March PF+"] <= 0.05
        assert result.field_failures >= 5
