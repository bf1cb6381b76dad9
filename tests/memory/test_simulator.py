"""Tests for the functional and electrical memory simulators."""

import pytest

from repro.circuit.defects import FloatingNode, OpenDefect, OpenLocation
from repro.core.fault_primitives import parse_fp
from repro.memory.array import Topology
from repro.memory.fault_machine import BehavioralFault, NodeKind
from repro.memory.simulator import ElectricalMemory, FaultyMemory

TOPO = Topology(4, 2)


class TestFaultyMemoryFaultFree:
    def test_behaves_like_plain_array(self):
        memory = FaultyMemory(TOPO)
        memory.write(3, 1)
        assert memory.read(3) == 1
        assert memory.read(0) == 0
        assert memory.size == 8

    def test_tick_is_noop(self):
        memory = FaultyMemory(TOPO)
        memory.tick()
        assert memory.read(0) == 0


class TestFaultyMemoryWithFault:
    def make(self, text, victim=0, node_value=None):
        fault = BehavioralFault.from_fp(
            parse_fp(text), victim, TOPO, node_value=node_value
        )
        return FaultyMemory(TOPO, fault)

    def test_victim_initial_state_propagates(self):
        memory = self.make("<1v [w0BL] r1v/0/0>")
        assert memory.array.read(0) == 1

    def test_fault_trigger_updates_array(self):
        memory = self.make("<1v [w0BL] r1v/0/0>")
        memory.write(0, 1)
        memory.write(2, 0)            # completing write, same column
        assert memory.read(0) == 0
        assert memory.array.read(0) == 0

    def test_non_victim_cells_unaffected(self):
        memory = self.make("<1v [w0BL] r1v/0/0>")
        memory.write(5, 1)
        assert memory.read(5) == 1

    def test_topology_mismatch_rejected(self):
        fault = BehavioralFault.from_fp(
            parse_fp("<1v [w0BL] r1v/0/0>"), 0, Topology(2, 2)
        )
        with pytest.raises(ValueError):
            FaultyMemory(TOPO, fault)

    def test_static_tick_applies_state_fault(self):
        fault = BehavioralFault.from_fp(
            parse_fp("<0/1/->"), 0, TOPO, node_value=1
        )
        memory = FaultyMemory(TOPO, fault)
        memory.tick()
        assert memory.read(0) == 1

    def test_tick_writes_the_victim_state_back(self):
        topology = Topology(2, 1)
        fault = BehavioralFault.from_fp(
            parse_fp("<0/1/->"), 0, topology, node_value=1,
            kind=NodeKind.STATIC,
        )
        memory = FaultyMemory(topology, fault)
        assert memory.array.dump() == (0, 0)
        memory.tick()
        assert fault.state == 1
        assert memory.array.dump() == (1, 0)


class TestElectricalMemory:
    def test_fault_free_protocol(self):
        memory = ElectricalMemory.with_defect(n_rows=3)
        memory.write(0, 1)
        memory.write(2, 0)
        assert memory.read(0) == 1
        assert memory.read(2) == 0
        assert memory.size == 3

    def test_defect_and_floating_presets(self):
        memory = ElectricalMemory.with_defect(
            defect=OpenDefect(OpenLocation.BL_PRECHARGE_CELLS, 1e7),
            n_rows=3,
            floating={FloatingNode.BIT_LINE: 0.0},
        )
        memory.column.reset({0: 1})
        memory.column.set_floating_voltage(FloatingNode.BIT_LINE, 0.0)
        assert memory.read(0) == 0    # the RDF1 partial fault

    def test_tick_runs_precharge(self):
        memory = ElectricalMemory.with_defect(n_rows=2)
        memory.tick()                 # must not raise
        assert memory.read(0) == 0

    def test_address_bounds(self):
        memory = ElectricalMemory.with_defect(n_rows=2)
        with pytest.raises(IndexError):
            memory.read(2)
