"""Tests for the Table 1 experiment (subset of opens; coarse grid)."""

import multiprocessing

import pytest

from repro.circuit.defects import OpenLocation
from repro.circuit.network import GuardPolicy
from repro.core.analysis import default_grid_for
from repro.core.fault_primitives import parse_fp
from repro.core.ffm import FFM
from repro.experiments.table1 import (
    PAPER_TABLE1,
    REFERENCE_COMPLETED_FPS,
    run_table1,
)
from repro.inject import SolverNaNInjector
from repro.parallel import Resilience
from tests.experiments.test_golden_reports import golden, rendered


@pytest.fixture(scope="module")
def subset():
    return run_table1(
        opens=(OpenLocation.BL_PRECHARGE_CELLS, OpenLocation.WORD_LINE),
        n_r=10, n_u=6, max_extra_ops=2,
    )


class TestPaperTable:
    def test_fifteen_rows(self):
        assert len(PAPER_TABLE1) == 15

    def test_not_possible_rows(self):
        impossible = [r for r in PAPER_TABLE1 if r.completed is None]
        assert len(impossible) == 4
        assert all(9 in r.opens or 1 in r.opens for r in impossible)

    def test_completed_rows_parse(self):
        for row in PAPER_TABLE1:
            if row.completed is not None:
                parse_fp(row.completed)

    def test_reference_fps_parse_and_complete(self):
        for text in REFERENCE_COMPLETED_FPS:
            fp = parse_fp(text)
            assert fp.is_completed
            assert fp.is_faulty()


class TestSubsetRun:
    def test_open4_rdf1_row_exact(self, subset):
        rows = [
            r for r in subset.rows
            if r.open_number == 4 and r.ffm_sim is FFM.RDF1
        ]
        assert rows
        assert rows[0].completed_text == "<1v [w0BL] r1v/0/0>"
        assert rows[0].ffm_com is FFM.RDF0

    def test_open9_all_not_possible(self, subset):
        rows = [r for r in subset.rows if r.open_number == 9]
        assert rows
        assert all(r.completed is None for r in rows)

    def test_claims_hold(self, subset):
        assert subset.report.all_hold, subset.report.render()

    def test_grades_present(self, subset):
        assert subset.matches["exact"] >= 1

    def test_report_renders_table(self, subset):
        text = subset.report.render()
        assert "Completed FP" in text
        assert "Open 4" in text


#: Each paper row's agreement grade in the default full run, in
#: ``PAPER_TABLE1`` order: (Sim. FFM, open(s), grade).  5 exact, 4 close,
#: 4 family, 2 missing.
PAPER_ROW_GRADES = [
    ("RDF0", "1", "close"),
    ("RDF0", "5", "exact"),
    ("RDF0", "8", "family"),
    ("RDF1", "3/4/5", "exact"),
    ("RDF1", "8", "family"),
    ("RDF1", "7", "family"),
    ("DRDF1", "4", "family"),
    ("IRF0", "8", "exact"),
    ("IRF0", "9", "close"),
    ("IRF1", "5", "exact"),
    ("WDF1", "4", "missing"),
    ("TF^", "1", "missing"),
    ("TFv", "5", "exact"),
    ("TFv", "9", "close"),
    ("SF0", "9", "close"),
]


@pytest.fixture(scope="module")
def default_run():
    """The default ``run_table1()``, shared by the grade and golden
    checks so the module runs it once."""
    return run_table1()


@pytest.fixture(scope="module")
def full_grades(default_run):
    """``[(Sim. FFM, open(s), grade)]`` of the default run's agreement
    block, one entry per paper row."""
    block = default_run.report.blocks[-1]
    assert block.startswith("Paper-row agreement:")
    lines = block.splitlines()[3:]
    return [(line.split()[0], line.split()[1], line.split()[-1])
            for line in lines]


def test_full_run_grades_every_paper_row(full_grades):
    assert [row[:2] for row in full_grades] == [
        row[:2] for row in PAPER_ROW_GRADES
    ]


@pytest.mark.parametrize(
    "index", range(len(PAPER_ROW_GRADES)),
    ids=[f"{ffm}-open{opens}" for ffm, opens, _ in PAPER_ROW_GRADES],
)
def test_full_run_paper_row_grade(full_grades, index):
    assert full_grades[index] == PAPER_ROW_GRADES[index]


def test_report_matches_golden(default_run):
    assert rendered(default_run.report) == golden("table1")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the injector reaches pool workers only through fork",
)
def test_completion_quarantines_kept_for_every_execution_mode():
    """Points quarantined inside completion searches reach the result.

    A NaN injected at one coarse-grid point of Open 1 trips the guard in
    8 survey probes and in 21 completion candidates.  The result must
    hold all 29 points once each, sorted, for jobs=1, jobs=2 and an
    in-process resilient run alike, with byte-identical reports.
    """
    grid = default_grid_for(OpenLocation.CELL, n_r=8, n_u=6)
    target = (grid.r_values[2], grid.u_values[2])
    kwargs = dict(
        opens=(OpenLocation.CELL,), n_r=8, n_u=6,
        guard_policy=GuardPolicy.QUARANTINE,
    )
    results = []
    for extra in ({}, {"jobs": 2}, {"resilience": Resilience()}):
        with SolverNaNInjector(target=target):
            results.append(run_table1(**kwargs, **extra))
    serial, fanned, resilient = results
    points = serial.quarantined
    assert len(points) == len(set(points)) == 29
    assert {(p.r_def, p.u) for p in points} == {target}
    assert sum("[" in p.sos for p in points) == 21
    assert set(fanned.quarantined) == set(points)
    assert set(resilient.quarantined) == set(points)
    assert points == sorted(points, key=lambda p: (p.sos, p.r_def, p.u))
    assert fanned.quarantined == points
    assert resilient.quarantined == points
    report = serial.report.render()
    assert "quarantined grid points: 29" in report
    assert fanned.report.render() == report
    assert resilient.report.render() == report
