"""Two-cell (coupling) fault models.

The paper restricts itself to single-cell FPs, but its Section 2 makes a
two-cell-relevant claim — bridges produce no partial faults — and the FP
notation of van de Goor & Al-Ars covers two cells: ``<S_a; S_v /F/R>``
with an *aggressor* ``a`` and a *victim* ``v``.  This module provides the
classical two-cell taxonomy needed to label what bridge defects produce:

=========  ============================  =================================
FFM        Fault primitive               Meaning
=========  ============================  =================================
CFST_xy    ``<x_a y_v /y̅/->``           state coupling: victim cannot
                                         hold ``y`` while aggressor holds
                                         ``x``
CFID_dy    ``<x w x̅_a  y_v /y̅/->``     idempotent coupling: an aggressor
                                         transition write (``d`` = up or
                                         down) flips a victim holding
                                         ``y``
CFRD_xy    ``<x_a y r y_v /y̅/y>``       read-disturb coupling: reading
                                         the victim while the aggressor
                                         holds ``x`` flips it (deceptive:
                                         the read still returns ``y``)
=========  ============================  =================================

Classification mirrors :func:`repro.core.ffm.classify_fp`: behavioural,
driven by the cells' states and the sensitizing operation.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Tuple

from .fault_primitives import (
    FaultPrimitive,
    Init,
    Op,
    OpKind,
    SOS,
    VICTIM,
)

__all__ = [
    "AGGRESSOR",
    "CouplingFFM",
    "canonical_coupling_fp",
    "classify_two_cell_fp",
    "two_cell_state_probes",
]

#: Cell label used for the aggressor in two-cell SOSes.
AGGRESSOR = "a"


class CouplingFFM(Enum):
    """Two-cell coupling FFMs (aggressor state / transition, victim state)."""

    CFST_00 = "CFst<0;0>"
    CFST_01 = "CFst<0;1>"
    CFST_10 = "CFst<1;0>"
    CFST_11 = "CFst<1;1>"
    CFID_UP_0 = "CFid<^;0>"
    CFID_UP_1 = "CFid<^;1>"
    CFID_DOWN_0 = "CFid<v;0>"
    CFID_DOWN_1 = "CFid<v;1>"
    CFRD_00 = "CFrd<0;0>"
    CFRD_01 = "CFrd<0;1>"
    CFRD_10 = "CFrd<1;0>"
    CFRD_11 = "CFrd<1;1>"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    def complement(self) -> "CouplingFFM":
        return _COMPLEMENTS[self]


_COMPLEMENTS: Dict[CouplingFFM, CouplingFFM] = {
    CouplingFFM.CFST_00: CouplingFFM.CFST_11,
    CouplingFFM.CFST_11: CouplingFFM.CFST_00,
    CouplingFFM.CFST_01: CouplingFFM.CFST_10,
    CouplingFFM.CFST_10: CouplingFFM.CFST_01,
    CouplingFFM.CFID_UP_0: CouplingFFM.CFID_DOWN_1,
    CouplingFFM.CFID_DOWN_1: CouplingFFM.CFID_UP_0,
    CouplingFFM.CFID_UP_1: CouplingFFM.CFID_DOWN_0,
    CouplingFFM.CFID_DOWN_0: CouplingFFM.CFID_UP_1,
    CouplingFFM.CFRD_00: CouplingFFM.CFRD_11,
    CouplingFFM.CFRD_11: CouplingFFM.CFRD_00,
    CouplingFFM.CFRD_01: CouplingFFM.CFRD_10,
    CouplingFFM.CFRD_10: CouplingFFM.CFRD_01,
}


def _cfst_fp(a_state: int, v_state: int) -> FaultPrimitive:
    sos = SOS((Init(a_state, AGGRESSOR), Init(v_state, VICTIM)), ())
    return FaultPrimitive(sos, 1 - v_state)


def _cfid_fp(direction_up: bool, v_state: int) -> FaultPrimitive:
    start = 0 if direction_up else 1
    sos = SOS(
        (Init(start, AGGRESSOR), Init(v_state, VICTIM)),
        (Op(OpKind.WRITE, 1 - start, AGGRESSOR),),
    )
    return FaultPrimitive(sos, 1 - v_state)


def _cfrd_fp(a_state: int, v_state: int) -> FaultPrimitive:
    sos = SOS(
        (Init(a_state, AGGRESSOR), Init(v_state, VICTIM)),
        (Op(OpKind.READ, v_state, VICTIM),),
    )
    return FaultPrimitive(sos, 1 - v_state, v_state)


_CANONICAL: Dict[CouplingFFM, FaultPrimitive] = {
    CouplingFFM.CFST_00: _cfst_fp(0, 0),
    CouplingFFM.CFST_01: _cfst_fp(0, 1),
    CouplingFFM.CFST_10: _cfst_fp(1, 0),
    CouplingFFM.CFST_11: _cfst_fp(1, 1),
    CouplingFFM.CFID_UP_0: _cfid_fp(True, 0),
    CouplingFFM.CFID_UP_1: _cfid_fp(True, 1),
    CouplingFFM.CFID_DOWN_0: _cfid_fp(False, 0),
    CouplingFFM.CFID_DOWN_1: _cfid_fp(False, 1),
    CouplingFFM.CFRD_00: _cfrd_fp(0, 0),
    CouplingFFM.CFRD_01: _cfrd_fp(0, 1),
    CouplingFFM.CFRD_10: _cfrd_fp(1, 0),
    CouplingFFM.CFRD_11: _cfrd_fp(1, 1),
}


def canonical_coupling_fp(ffm: CouplingFFM) -> FaultPrimitive:
    """The canonical fault primitive of a coupling FFM."""
    return _CANONICAL[ffm]


def two_cell_state_probes() -> Tuple[SOS, ...]:
    """The two-cell probe SOSes: states, aggressor writes, victim reads."""
    probes = []
    for a_state in (0, 1):
        for v_state in (0, 1):
            inits = (Init(a_state, AGGRESSOR), Init(v_state, VICTIM))
            probes.append(SOS(inits, ()))
            probes.append(
                SOS(inits, (Op(OpKind.WRITE, 1 - a_state, AGGRESSOR),))
            )
            probes.append(
                SOS(inits, (Op(OpKind.READ, v_state, VICTIM),))
            )
    return tuple(probes)


def classify_two_cell_fp(fp: FaultPrimitive) -> Optional[CouplingFFM]:
    """Classify an observed two-cell FP into the coupling taxonomy.

    Returns None for primitives outside the taxonomy (no aggressor, more
    than one operation, non-faulty, or faulty behaviour not matching a
    victim flip).
    """
    sos = fp.sos
    a_init = sos.init_value(AGGRESSOR)
    v_init = sos.init_value(VICTIM)
    if a_init is None or v_init is None or not fp.is_faulty():
        return None
    if fp.faulty_value != 1 - v_init:
        return None
    ops = sos.ops
    if len(ops) == 0:
        key = (a_init, v_init)
        return {
            (0, 0): CouplingFFM.CFST_00, (0, 1): CouplingFFM.CFST_01,
            (1, 0): CouplingFFM.CFST_10, (1, 1): CouplingFFM.CFST_11,
        }[key]
    if len(ops) != 1:
        return None
    op = ops[0]
    if op.cell == AGGRESSOR and op.is_write and op.value != a_init:
        up = op.value == 1
        return {
            (True, 0): CouplingFFM.CFID_UP_0,
            (True, 1): CouplingFFM.CFID_UP_1,
            (False, 0): CouplingFFM.CFID_DOWN_0,
            (False, 1): CouplingFFM.CFID_DOWN_1,
        }[(up, v_init)]
    if (
        op.cell == VICTIM and op.is_read
        and fp.read_value == v_init
    ):
        return {
            (0, 0): CouplingFFM.CFRD_00, (0, 1): CouplingFFM.CFRD_01,
            (1, 0): CouplingFFM.CFRD_10, (1, 1): CouplingFFM.CFRD_11,
        }[(a_init, v_init)]
    return None
