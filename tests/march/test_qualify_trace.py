"""Projected-trace qualification agrees with whole-memory interpretation.

:func:`repro.march.simulator.escape_cases` runs each scenario's fault
machine over a projection of the compiled march trace.  The reference
here is the direct construction it replaced: a fresh
:class:`~repro.memory.simulator.FaultyMemory` per scenario, driven
element by element by a test-local copy of the interpreting march loop.
Escape tuples and their order must be equal over

* random march tests, unsound ones included, with every
  :class:`~repro.march.notation.Direction` and ``Del`` elements;
* the completed FP set and its complements, plus static FPs, with and
  without a ``kind=`` override;
* random topologies, node-value sets containing ``None``, and both
  settings of ``both_either_directions``.

:func:`run_march` iterates the same compiled trace; it must return the
interpreting loop's :class:`~repro.march.simulator.MarchResult` (and
counters) on functional and electrical memories.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import telemetry
from repro.circuit.defects import OpenDefect, OpenLocation
from repro.core.fault_primitives import parse_fp
from repro.experiments.march_pf import completed_fault_set
from repro.march.library import ALL_TESTS, IFA_13, MARCH_PF_PLUS, MATS_PLUS
from repro.march.notation import (
    Direction,
    MarchElement,
    MarchOp,
    MarchPause,
    MarchTest,
)
from repro.march.simulator import (
    MarchResult,
    Mismatch,
    detects,
    escape_cases,
    preset_memory,
    run_march,
)
from repro.memory.array import Topology
from repro.memory.fault_machine import BehavioralFault, NodeKind
from repro.memory.simulator import FaultyMemory

from .test_march_properties import topologies

FAULTS = completed_fault_set() + tuple(
    parse_fp(text) for text in ("<0r0/0/1>", "<0/1/->", "<1w0/1/->")
)
COUNTERS = ("march.runs", "march.operations", "march.elements_applied")


# -- the reference: the interpreting loop, element by element -------------------

def interpreted_run(test, memory, size=None, either_as=Direction.UP,
                    stop_at_first=False):
    n = size if size is not None else memory.size
    mismatches = []
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


def reference_escapes(test, fp, topology, node_values, kind,
                      both_either_directions):
    directions = (
        (Direction.UP, Direction.DOWN) if both_either_directions
        else (Direction.UP,)
    )
    escapes = []
    for victim in topology.addresses():
        for node_value in node_values:
            for either_as in directions:
                fault = BehavioralFault.from_fp(
                    fp, victim, topology, node_value=node_value, kind=kind
                )
                result = interpreted_run(
                    test, FaultyMemory(topology, fault), either_as=either_as,
                    stop_at_first=True,
                )
                if not result.detected:
                    escapes.append((victim, node_value, either_as))
    return tuple(escapes)


# -- strategies ------------------------------------------------------------------

@st.composite
def march_tests(draw):
    """Any march test: random reads and writes, so often unsound."""
    elements = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 5)) == 0:
            elements.append(MarchPause(draw(st.sampled_from((0.01, 0.1)))))
            continue
        ops = tuple(
            MarchOp(draw(st.sampled_from("rw")), draw(st.sampled_from((0, 1))))
            for _ in range(draw(st.integers(1, 4)))
        )
        elements.append(
            MarchElement(draw(st.sampled_from(list(Direction))), ops)
        )
    return MarchTest("random", tuple(elements))


any_tests = st.one_of(march_tests(), st.sampled_from(ALL_TESTS))
node_value_sets = st.lists(
    st.sampled_from((None, 0, 1)), min_size=1, max_size=3, unique=True
).map(tuple)
kinds = st.sampled_from((None, *NodeKind))


# -- escape_cases ----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(any_tests, st.sampled_from(FAULTS), topologies, node_value_sets,
       kinds, st.booleans())
def test_escape_cases_equal_the_interpreting_loop(
    test, fp, topology, node_values, kind, both
):
    expected = reference_escapes(test, fp, topology, node_values, kind, both)
    got = escape_cases(test, fp, topology, node_values, kind, both)
    assert got == expected
    assert detects(test, fp, topology, node_values, kind, both) == (
        not expected
    )


@pytest.mark.parametrize("test", ALL_TESTS, ids=lambda t: t.name)
def test_library_escapes_equal_the_interpreting_loop(test):
    topology = Topology(4, 2)
    for fp in FAULTS:
        assert escape_cases(test, fp, topology, (None, 0, 1)) == (
            reference_escapes(test, fp, topology, (None, 0, 1), None, True)
        )


def test_every_scenario_is_counted_once():
    topology = Topology(3, 2)
    fp = parse_fp("<1v [w0BL] r1v/0/0>")
    telemetry.reset()
    telemetry.enable()
    try:
        escape_cases(MATS_PLUS, fp, topology, (0, 1))
        detects(MARCH_PF_PLUS, fp, topology)
        metrics = telemetry.get_metrics()
        scenarios = metrics.counter_value("march.qualify_scenarios")
        runs = metrics.counter_value("march.runs")
    finally:
        telemetry.disable()
        telemetry.reset()
    # escape_cases evaluates every scenario, and so does detects for a
    # test that catches the fault in all of them: 2 x (6 x 2 x 2).
    assert scenarios == 2 * (topology.size * 2 * 2)
    assert runs == 0


# -- run_march on the compiled trace -------------------------------------------------

def _counted(run, *args, **kwargs):
    telemetry.reset()
    telemetry.enable()
    try:
        result = run(*args, **kwargs)
        metrics = telemetry.get_metrics()
        return result, tuple(metrics.counter_value(n) for n in COUNTERS)
    finally:
        telemetry.disable()
        telemetry.reset()


@settings(max_examples=80, deadline=None)
@given(any_tests, st.sampled_from(FAULTS), topologies, st.data(),
       st.sampled_from((None, 0, 1)), st.sampled_from(list(Direction)),
       st.booleans())
def test_run_march_equals_the_interpreting_loop_functional(
    test, fp, topology, data, node_value, either_as, stop_at_first
):
    victim = data.draw(st.integers(0, topology.size - 1))

    def memory():
        fault = BehavioralFault.from_fp(
            fp, victim, topology, node_value=node_value
        )
        return FaultyMemory(topology, fault)

    kwargs = dict(either_as=either_as, stop_at_first=stop_at_first)
    assert _counted(run_march, test, memory(), **kwargs) == _counted(
        interpreted_run, test, memory(), **kwargs
    )


@pytest.mark.parametrize("stop_at_first", [False, True])
@pytest.mark.parametrize("either_as", [Direction.UP, Direction.DOWN])
@pytest.mark.parametrize("location, resistance", [
    (OpenLocation.CELL, 6e5),
    (OpenLocation.BL_PRECHARGE_CELLS, 3e5),
])
def test_run_march_equals_the_interpreting_loop_electrical(
    location, resistance, either_as, stop_at_first
):
    for test in (MATS_PLUS, IFA_13):
        for preset in (0.0, 3.3):
            kwargs = dict(either_as=either_as, stop_at_first=stop_at_first)
            new = _counted(run_march, test, preset_memory(
                OpenDefect(location, resistance), preset), **kwargs)
            old = _counted(interpreted_run, test, preset_memory(
                OpenDefect(location, resistance), preset), **kwargs)
            assert new == old
