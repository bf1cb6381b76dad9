"""Parallel survey orchestration: determinism across jobs and caches.

The acceptance property for ``--jobs`` is strict: the Table 1 inventory,
the figure region maps, and the march verdicts must be *identical* for
any worker count, with the propagator cache on or off.  These tests pin
that on coarse grids (the full-resolution equivalence is exercised by
the benchmark suite).
"""

import threading

import pytest

import repro.parallel as par
from repro import telemetry
from repro.circuit.defects import OpenLocation
from repro.circuit.network import (
    GuardPolicy, propagator_cache_clear, propagator_cache_configure,
)
from repro.core.analysis import default_grid_for
from repro.experiments import table1
from repro.experiments.fig3 import run_fig3
from repro.experiments.march_pf import ELECTRICAL_POINTS, electrical_detection
from repro.inject import SolverNaNInjector
from repro.march.library import MARCH_PF_PLUS
from repro.parallel import (
    AnalyzerSpec, FanoutStats, Resilience, RetryPolicy, parallel_map,
    survey_locations, survey_unit_key, unit_analyzer,
)

COARSE_OPENS = (
    OpenLocation.CELL,
    OpenLocation.BL_PRECHARGE_CELLS,
    OpenLocation.WORD_LINE,
)


def _square(x):
    return x * x


def test_parallel_map_preserves_payload_order():
    payloads = list(range(20))
    assert parallel_map(_square, payloads, jobs=1) == [x * x for x in payloads]
    assert parallel_map(_square, payloads, jobs=4) == [x * x for x in payloads]


def test_parallel_map_merges_worker_telemetry():
    telemetry.reset()
    telemetry.enable()
    try:
        parallel_map(_observe_unit, [1.0, 2.0, 3.0], jobs=2)
        registry = telemetry.get_metrics()
        assert registry.counter_value("test.parallel_units") == 3
        hist = registry.snapshot()["histograms"]["test.parallel_sample"]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(6.0)
        assert hist["min"] == 1.0 and hist["max"] == 3.0
    finally:
        telemetry.disable()
        telemetry.reset()


def _observe_unit(x):
    telemetry.count("test.parallel_units")
    telemetry.observe("test.parallel_sample", x)
    return x


def _survey_fingerprint(outcome):
    return {
        location: [
            (f.floating, f.probe_sos, f.ffm, f.region.labels)
            for f in findings
        ]
        for location, findings in outcome.findings.items()
    }


def test_survey_locations_identical_across_jobs():
    serial = survey_locations(COARSE_OPENS, jobs=1, n_r=4, n_u=3)
    fanned = survey_locations(COARSE_OPENS, jobs=4, n_r=4, n_u=3)
    resilient = survey_locations(
        COARSE_OPENS, n_r=4, n_u=3, resilience=Resilience()
    )
    assert _survey_fingerprint(serial) == _survey_fingerprint(fanned)
    assert _survey_fingerprint(serial) == _survey_fingerprint(resilient)
    assert serial.stats.observation_misses > 0
    assert (
        serial.stats.observation_hits, serial.stats.observation_misses
    ) == (fanned.stats.observation_hits, fanned.stats.observation_misses)


def _inventory(result):
    return [
        (str(r.ffm_sim), str(r.ffm_com), r.open_number, r.completed_text,
         r.floating)
        for r in result.rows
    ]


def test_table1_inventory_identical_jobs_and_cache():
    kwargs = dict(opens=COARSE_OPENS, n_r=4, n_u=3)
    result = table1.run_table1(**kwargs)
    reference = _inventory(result)
    report = result.report.render()
    fanned = table1.run_table1(jobs=4, **kwargs)
    assert _inventory(fanned) == reference
    assert fanned.report.render() == report
    resilient = table1.run_table1(resilience=Resilience(), **kwargs)
    assert _inventory(resilient) == reference
    assert resilient.report.render() == report
    propagator_cache_configure(enabled=False)
    propagator_cache_clear()
    try:
        uncached = table1.run_table1(**kwargs)
        assert _inventory(uncached) == reference
        assert uncached.report.render() == report
    finally:
        propagator_cache_configure(enabled=True)


def test_electrical_detection_identical_across_jobs():
    points = ELECTRICAL_POINTS[:3]
    serial = electrical_detection(MARCH_PF_PLUS, points=points, jobs=1)
    fanned = electrical_detection(MARCH_PF_PLUS, points=points, jobs=3)
    assert serial == fanned


def test_fanout_stats_ratios():
    stats = FanoutStats(3, 1, 8, 2)
    assert stats.observation_hit_ratio == pytest.approx(0.75)
    assert stats.propagator_hit_ratio == pytest.approx(0.8)
    assert FanoutStats().observation_hit_ratio is None


def test_analyzer_spec_roundtrip():
    spec = AnalyzerSpec(OpenLocation.CELL, grid_engine=False)
    analyzer = spec.build()
    assert analyzer.location is OpenLocation.CELL
    assert analyzer.grid_engine is False


# -- analyzer reuse boundaries --------------------------------------------------

def test_separate_runs_never_share_an_analyzer(monkeypatch):
    """Both maps of one fig3 run share an analyzer; a second identical
    run builds its own and misses its observation cache again."""
    built = []
    build = AnalyzerSpec.build

    def recording_build(spec):
        built.append(build(spec))
        return built[-1]

    monkeypatch.setattr(AnalyzerSpec, "build", recording_build)
    first = run_fig3(n_r=4, n_u=3)
    assert len(built) == 1
    second = run_fig3(n_r=4, n_u=3)
    assert len(built) == 2 and built[0] is not built[1]
    assert first.report.render() == second.report.render()
    misses = [analyzer.cache_info().misses for analyzer in built]
    assert misses[0] == misses[1] == 2 * 4 * 3


def _held_analyzer_unit(payload):
    spec, barrier = payload
    analyzer = unit_analyzer(spec)
    barrier.wait()
    return analyzer


def test_concurrent_fanouts_never_share_an_analyzer():
    """Units of two threads interleave; each thread keeps its own."""
    grid = default_grid_for(OpenLocation.CELL, n_r=4, n_u=3)
    spec = AnalyzerSpec(OpenLocation.CELL, grid=grid)
    barrier = threading.Barrier(2, timeout=30)
    held = {}

    def fan_out(name):
        held[name] = parallel_map(_held_analyzer_unit, [(spec, barrier)] * 4)

    threads = [
        threading.Thread(target=fan_out, args=(name,)) for name in "ab"
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(held["a"]) == len(held["b"]) == 4
    assert len({id(analyzer) for analyzer in held["a"]}) == 1
    assert len({id(analyzer) for analyzer in held["b"]}) == 1
    assert held["a"][0] is not held["b"][0]


_FLAKED = set()
_ORIG_SURVEY_UNIT = par._survey_unit


def _flaky_survey_unit(unit):
    """Fail once after doing the work, on every unit that quarantined."""
    result = _ORIG_SURVEY_UNIT(unit)
    key = survey_unit_key(unit)
    if result[3] and key not in _FLAKED:
        _FLAKED.add(key)
        raise RuntimeError("flaky unit")
    return result


def test_retried_unit_reports_the_same_quarantines(monkeypatch):
    """A retry starts from a fresh analyzer, so it re-reports the points
    the failed attempt quarantined."""
    grid = default_grid_for(OpenLocation.CELL, n_r=4, n_u=3)
    target = (grid.r_values[0], grid.u_values[1])
    kwargs = dict(n_r=4, n_u=3, guard_policy=GuardPolicy.QUARANTINE)
    with SolverNaNInjector(target=target):
        clean = survey_locations((OpenLocation.CELL,), **kwargs)
    assert clean.quarantined
    assert len(set(clean.quarantined)) == len(clean.quarantined)

    _FLAKED.clear()
    monkeypatch.setattr(par, "_survey_unit", _flaky_survey_unit)
    resilience = Resilience(policy=RetryPolicy(max_retries=1, backoff=0.0))
    with SolverNaNInjector(target=target):
        flaky = survey_locations(
            (OpenLocation.CELL,), resilience=resilience, **kwargs
        )
    assert _FLAKED and not flaky.failures
    assert _survey_fingerprint(flaky) == _survey_fingerprint(clean)
    assert flaky.quarantined == clean.quarantined
