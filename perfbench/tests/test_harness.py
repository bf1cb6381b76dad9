"""Tests of the benchmark harness itself: span self time, the percentile
rule, the served-workload classifier and schedule, and BENCHMARK.json.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import threading

import pytest

import layers
import run
import spans
import stats
from served import classify, schedule
from spans import Tracer, union_overlap

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class Clock:
    """A settable stand-in for ``perf_counter``."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = Clock()
    monkeypatch.setattr(spans, "perf_counter", fake)
    return fake


def by_name(tracer):
    tracer.finish()
    return {span.name: span for span in tracer.spans}


def test_nested_span_self_time(clock):
    tracer = Tracer()
    with tracer.span("outer"):
        clock.now = 2.0
        with tracer.span("inner"):
            clock.now = 5.0
        clock.now = 10.0
    named = by_name(tracer)
    assert named["outer"].self_s == pytest.approx(7.0)
    assert named["inner"].self_s == pytest.approx(3.0)
    assert named["inner"].parent == named["outer"].id
    assert named["inner"].trace == named["outer"].trace


def test_back_to_back_children(clock):
    tracer = Tracer()
    with tracer.span("root"):
        clock.now = 1.0
        with tracer.span("a"):
            clock.now = 3.0
        with tracer.span("b"):
            clock.now = 7.0
        clock.now = 10.0
    named = by_name(tracer)
    assert named["root"].self_s == pytest.approx(4.0)
    assert named["a"].self_s == pytest.approx(2.0)
    assert named["b"].self_s == pytest.approx(4.0)


def test_same_layer_reentry_is_one_span(clock):
    tracer = Tracer()
    with tracer.span("layer"):
        with tracer.span("layer") as inner:
            assert inner is None
        clock.now = 1.0
    assert [span.name for span in tracer.spans] == ["layer"]


def test_folded_spans_inside_materialized(clock):
    tracer = Tracer()
    st = tracer.state()
    with tracer.span("experiment") as experiment:
        for _ in range(3):
            outer = tracer.enter(st, "column.ops")
            clock.now += 1.0
            inner = tracer.enter(st, "network.run")
            clock.now += 2.0
            tracer.leave(st, inner, 2.0)
            tracer.leave(st, outer, 3.0)
        clock.now += 1.0
    summary = tracer.layer_summary()
    assert summary["column.ops"]["calls"] == 3
    assert summary["column.ops"]["self_s"] == pytest.approx(3.0)
    assert summary["network.run"]["self_s"] == pytest.approx(6.0)
    assert summary["network.run"]["total_s"] == pytest.approx(6.0)
    assert experiment.self_s == pytest.approx(1.0)
    assert tracer.buckets()[(experiment.id, "network.run")][0] == 3


def test_cross_thread_parent_under_claimed_job(clock):
    """A scheduler thread's spans belong to the job it claimed last; the
    job span hangs under the client span that waits for it, which keeps
    only the time the job did not cover as self time."""
    tracer = Tracer()
    installed = layers.Installed(tracer)

    class Job:
        id = "job-1"

    jobs = [Job(), None]
    claim = installed._claim(lambda: jobs.pop(0))

    def scheduler():
        clock.now = 2.0
        assert claim() is not None
        clock.now = 3.0
        with tracer.span("store.put"):
            clock.now = 4.0
        clock.now = 8.0
        claim()  # the next claim closes the job span

    with tracer.span("client.stream") as stream:
        tracer.register_root("job-1", stream)
        thread = threading.Thread(target=scheduler)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        clock.now = 10.0
    installed.finish()
    named = {span.name: span for span in tracer.spans}
    job, put = named["scheduler.job"], named["store.put"]
    assert job.trace == put.trace == "job-1"
    assert job.parent == stream.id
    assert put.parent == job.id
    assert job.self_s == pytest.approx(5.0)
    assert stream.self_s == pytest.approx(4.0)


def test_union_overlap_clips_and_merges():
    assert union_overlap(0, 10, [(2, 5), (4, 6), (8, 20), (-5, -1)]) == 6


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (9, None), (20, 50), (99, 75), (100, 90), (199, 90), (200, 95),
    (1000, 99),
])
def test_ten_samples_beyond_rule(n, expected):
    assert stats.highest_reportable(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


@pytest.mark.parametrize("response, kind", [
    ({"deduped": False, "job": {"state": "queued"}}, "miss"),
    ({"deduped": False, "job": {"state": "running"}}, "miss"),
    ({"deduped": True, "job": {"state": "done"}}, "hit"),
    ({"deduped": True, "job": {"state": "running"}}, "coalesced"),
    ({"deduped": True, "job": {"state": "queued"}}, "coalesced"),
])
def test_submit_classifier(response, kind):
    assert classify(response) == kind


def test_schedule_repeats_follow_their_own_first_submission():
    plans = schedule(110, seed=5)
    seen = {}
    for client, plan in enumerate(plans):
        for position, (step, index) in enumerate(plan):
            seen.setdefault(index, []).append((client, position, step))
    assert sorted(seen) == list(range(110))
    for index, steps in seen.items():
        (c1, p1, s1), (c2, p2, s2) = steps
        assert (s1, s2) == ("new", "repeat") and c1 == c2 and p1 < p2
    assert schedule(110, seed=5) == plans
    assert schedule(110, seed=6) != plans


def test_benchmark_json_declares_the_metrics_the_code_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
