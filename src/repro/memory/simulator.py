"""Functional memory simulators: fault-free, behaviourally faulty, electrical.

All three expose the same two-method protocol march tests drive::

    value = memory.read(address)
    memory.write(address, value)

* :class:`FaultyMemory` — a :class:`~repro.memory.array.MemoryArray` with
  one victim governed by a :class:`~repro.memory.fault_machine.BehavioralFault`.
* :class:`ElectricalMemory` — adapts a
  :class:`~repro.circuit.column.DRAMColumn` (one physical column, with an
  injected open) to the same protocol, so march tests can be qualified
  against the analog model directly.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..circuit.column import DRAMColumn
from ..circuit.defects import FloatingNode
from .array import MemoryArray, Topology
from .fault_machine import BehavioralFault

__all__ = ["FaultyMemory", "ElectricalMemory"]


class FaultyMemory:
    """A memory array with (at most) one behaviourally modelled fault."""

    def __init__(self, topology: Topology, fault: Optional[BehavioralFault] = None,
                 fill: int = 0) -> None:
        if fault is not None and fault.topology != topology:
            raise ValueError("fault machine topology differs from the array's")
        self.topology = topology
        self.array = MemoryArray(topology, fill)
        self.fault = fault
        if fault is not None:
            self.array.write(fault.victim, fault.state)

    def read(self, address: int) -> int:
        stored = self.array.read(address)
        if self.fault is None:
            return stored
        result = self.fault.on_read(address, stored)
        if address == self.fault.victim:
            self.array.write(address, self.fault.state)
        return result

    def write(self, address: int, value: int) -> None:
        if self.fault is None:
            self.array.write(address, value)
            return
        self.fault.on_write(address, value)
        if address == self.fault.victim:
            self.array.write(address, self.fault.state)
        else:
            self.array.write(address, value)

    def tick(self) -> None:
        """Let background precharge cycles run (static state faults)."""
        if self.fault is not None:
            self.fault.tick()
            if hasattr(self.fault, "victim"):
                self.array.write(self.fault.victim, self.fault.state)

    def pause(self, seconds: float) -> None:
        """Idle time (march Del elements): retention faults accumulate."""
        if self.fault is not None:
            on_pause = getattr(self.fault, "pause", None)
            if on_pause is not None:
                on_pause(seconds)
                if hasattr(self.fault, "victim"):
                    self.array.write(self.fault.victim, self.fault.state)

    @property
    def size(self) -> int:
        return self.topology.size


class ElectricalMemory:
    """March-test protocol over the electrical column model.

    One :class:`DRAMColumn` is one bit line, so the topology is
    ``n_rows x 1``; the address *is* the row.  Floating voltages can be
    preset adversarially before the test starts.
    """

    def __init__(self, column: DRAMColumn) -> None:
        self.column = column
        self.topology = Topology(n_rows=column.n_rows, n_cols=1)

    @classmethod
    def with_defect(cls, defect=None, technology=None, n_rows: int = 3,
                    floating: Optional[Dict[FloatingNode, float]] = None
                    ) -> "ElectricalMemory":
        column = DRAMColumn(technology, n_rows=n_rows, defect=defect)
        column.reset({})
        for node, voltage in (floating or {}).items():
            column.set_floating_voltage(node, voltage)
        return cls(column)

    def read(self, address: int) -> int:
        return self.column.read(self.topology.check(address))

    def write(self, address: int, value: int) -> None:
        self.column.write(self.topology.check(address), value)

    def tick(self) -> None:
        self.column.precharge_cycle()

    def pause(self, seconds: float) -> None:
        """Idle time: the column's cells leak (march Del elements)."""
        self.column.idle(seconds)

    @property
    def size(self) -> int:
        return self.topology.size
