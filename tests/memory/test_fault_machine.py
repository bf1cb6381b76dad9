"""Behavioural semantics of completed fault primitives."""

import pytest

from repro.core.fault_primitives import parse_fp
from repro.memory.array import Topology
from repro.memory.fault_machine import BehavioralFault, NodeKind

TOPO = Topology(4, 2)  # victim 0 shares column 0 with addresses 2, 4, 6
VICTIM = 0
MATE = 2       # same column as the victim
OTHER = 1      # different column


def machine(text, node_value=None, kind=None, victim=VICTIM):
    return BehavioralFault.from_fp(
        parse_fp(text), victim, TOPO, node_value=node_value, kind=kind
    )


class TestKindInference:
    def test_bitline(self):
        assert machine("<1v [w0BL] r1v/0/0>").kind is NodeKind.BITLINE

    def test_victim_history(self):
        assert machine("<[w1 w0] r0/1/1>").kind is NodeKind.VICTIM_HISTORY

    def test_static(self):
        assert machine("<0r0/0/1>").kind is NodeKind.STATIC


class TestBitlineReadFault:
    """<1v [w0BL] r1v/0/0> — the paper's Open 4 RDF1."""

    def test_triggers_after_arming_write(self):
        m = machine("<1v [w0BL] r1v/0/0>")
        m.on_write(VICTIM, 1)
        m.on_write(MATE, 0)          # completing w0 on the column
        assert m.on_read(VICTIM, 1) == 0
        assert m.state == 0 and m.triggered

    def test_rearming_with_w1_masks(self):
        m = machine("<1v [w0BL] r1v/0/0>")
        m.on_write(VICTIM, 1)        # the w1 drives the BL high
        assert m.on_read(VICTIM, 1) == 1
        assert not m.triggered

    def test_other_column_does_not_arm(self):
        m = machine("<1v [w0BL] r1v/0/0>")
        m.on_write(VICTIM, 1)
        m.on_write(OTHER, 0)         # different bit line
        assert m.on_read(VICTIM, 1) == 1

    def test_initial_floating_value_can_arm(self):
        m = machine("<1v [w0BL] r1v/0/0>", node_value=0)
        m.state = 1
        assert m.on_read(VICTIM, 1) == 0

    def test_unknown_node_never_triggers(self):
        m = machine("<1v [w0BL] r1v/0/0>", node_value=None)
        m.state = 1
        assert m.on_read(VICTIM, 1) == 1

    def test_read_restore_rearms(self):
        m = machine("<1v [w0BL] r1v/0/0>")
        m.on_write(MATE, 0)
        m.on_read(MATE, 1)           # the read restores 1 onto the BL
        m.state = 1
        assert m.on_read(VICTIM, 1) == 1

    def test_wrong_state_does_not_trigger(self):
        m = machine("<1v [w0BL] r1v/0/0>")
        m.on_write(VICTIM, 0)
        m.on_write(MATE, 0)
        assert m.on_read(VICTIM, 0) == 0


class TestBitlineIncorrectRead:
    """<0v [w1BL] r0v/0/1> — Open 8 IRF0: read lies, state intact."""

    def test_read_lies_state_survives(self):
        m = machine("<0v [w1BL] r0v/0/1>")
        m.on_write(VICTIM, 0)
        m.on_write(MATE, 1)
        assert m.on_read(VICTIM, 0) == 1
        assert m.state == 0


class TestBitlineWriteFault:
    """<1v [w1BL] w0v/1/-> — Open 5 TF-down."""

    def test_down_transition_fails_when_armed_high(self):
        m = machine("<1v [w1BL] w0v/1/->")
        m.on_write(VICTIM, 1)        # state 1, BL armed 1
        m.on_write(VICTIM, 0)        # the w0 fails
        assert m.state == 1 and m.triggered

    def test_down_transition_works_when_armed_low(self):
        m = machine("<1v [w1BL] w0v/1/->", node_value=0)
        m.state = 1
        m.on_write(VICTIM, 0)
        assert m.state == 0

    def test_read_back_detects(self):
        m = machine("<1v [w1BL] w0v/1/->")
        m.on_write(VICTIM, 1)
        m.on_write(VICTIM, 0)
        assert m.on_read(VICTIM, 0) == 1


class TestVictimHistoryFaults:
    """The cell-open family <[w1 w0] r0/1/1> and friends."""

    def test_pattern_then_read_triggers(self):
        m = machine("<[w1 w0] r0/1/1>")
        m.on_write(VICTIM, 1)
        m.on_write(VICTIM, 0)
        assert m.on_read(VICTIM, 0) == 1
        assert m.state == 1

    def test_extra_write_breaks_pattern(self):
        m = machine("<[w1 w0] r0/1/1>")
        m.on_write(VICTIM, 1)
        m.on_write(VICTIM, 0)
        m.on_write(VICTIM, 0)        # pattern is now (0, 0)
        assert m.on_read(VICTIM, 0) == 0

    def test_reads_extend_history(self):
        m = machine("<[w1 w0] r0/1/1>")
        m.on_write(VICTIM, 1)
        assert m.on_read(VICTIM, 1) == 1   # appends the restored 1
        m.on_write(VICTIM, 0)
        assert m.on_read(VICTIM, 0) == 1   # (1, 0) armed again

    def test_state_fault_applies_immediately(self):
        m = machine("<[w1 w0]/1/->")
        m.on_write(VICTIM, 1)
        m.on_write(VICTIM, 0)
        assert m.state == 1 and m.triggered

    def test_write_sensitized_history_fault(self):
        m = machine("<[w1 w0] w0/1/->")
        m.on_write(VICTIM, 1)
        m.on_write(VICTIM, 0)
        m.on_write(VICTIM, 0)        # the sensitizing w0 fails
        assert m.state == 1


class TestStaticFaults:
    """Floating word lines: memory operations cannot move the node."""

    def test_active_static_read_fault(self):
        m = machine("<0r0/0/1>", node_value=1)
        m.on_write(VICTIM, 0)
        assert m.on_read(VICTIM, 0) == 1
        assert m.state == 0

    def test_inactive_static_is_benign(self):
        m = machine("<0r0/0/1>", node_value=0)
        m.on_write(VICTIM, 0)
        assert m.on_read(VICTIM, 0) == 0

    def test_operations_never_move_the_node(self):
        m = machine("<0r0/0/1>", node_value=0)
        m.on_write(MATE, 1)
        m.on_write(VICTIM, 1)
        assert m.node_value == 0

    def test_state_fault_applies_on_tick(self):
        m = machine("<0/1/->", node_value=1, kind=NodeKind.STATIC)
        assert m.state == 0
        m.tick()
        assert m.state == 1 and m.triggered

    def test_inactive_state_fault_ignores_tick(self):
        m = machine("<0/1/->", node_value=0, kind=NodeKind.STATIC)
        m.tick()
        assert m.state == 0


class TestMisc:
    def test_initial_state_from_init(self):
        assert machine("<1v [w0BL] r1v/0/0>").state == 1
        assert machine("<0v [w1BL] r0v/1/1>").state == 0

    def test_mixed_completing_cells_rejected(self):
        with pytest.raises(ValueError):
            machine("<0v [w1BL w1] r0v/1/1>")

    def test_non_victim_read_passthrough(self):
        m = machine("<1v [w0BL] r1v/0/0>")
        assert m.on_read(MATE, 1) == 1


@pytest.mark.parametrize("text, sensitizing, state, armed, history", [
    ("<1v [w0BL] r1v/0/0>", ("r", 1), 1, 0, ()),
    ("<1v [w1BL] w0v/1/->", ("w", 0), 1, 1, ()),
    ("<[w1 w0] r0/1/1>", ("r", 0), 0, 0, (1, 0)),
    ("<[w1 w0]/1/->", None, 0, 0, (1, 0)),
    ("<0/1/->", None, 0, None, ()),
])
def test_fp_derived_requirements(text, sensitizing, state, armed, history):
    fault = machine(text)
    op = fault.sensitizing_op
    assert (None if op is None else ("r" if op.is_read else "w", op.value)) == (
        sensitizing
    )
    assert fault.required_state == state
    assert fault.armed_value == armed
    assert fault.required_history == history
