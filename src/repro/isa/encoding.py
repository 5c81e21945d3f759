"""Fixed-width binary encoding for VLIW and NeuISA instructions.

The encoding is not meant to match any proprietary format; it exists so
the repository has a concrete, testable binary layout (round-trip encode
-> decode is property-tested) and so code-size numbers reported by the
NeuISA-overhead experiment rest on real byte counts.

Layout (little-endian):

- ME slot:      1 byte opcode, 1 byte engine, 2 bytes dst, 2 bytes src
- VE slot:      1 byte opcode, 1 byte engine, 2 bytes dst, 2x2 bytes srcs
- scalar slot:  1 byte opcode, 1 byte dst, 1 byte src, 4 bytes imm
- misc slot:    1 byte opcode, 4 bytes addr, 4 bytes size
- control slot: 1 byte opcode, 1 byte reg

A uTOp instruction is tagged with a presence bitmap so optional slots do
not consume space; a VLIW instruction is prefixed with its slot counts.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.errors import IsaError
from repro.isa.control import ControlOp, ControlOpcode
from repro.isa.utop import UTopInstruction
from repro.isa.vliw import (
    MatrixOp,
    MatrixOpcode,
    MiscOp,
    MiscOpcode,
    ScalarOp,
    ScalarOpcode,
    VectorOp,
    VectorOpcode,
    VliwInstruction,
)

_ME_FMT = "<BBHH"
_VE_FMT = "<BBHHH"
_SC_FMT = "<BBBi"
_MISC_FMT = "<BII"
_CTRL_FMT = "<BB"

_ME_OPCODES = list(MatrixOpcode)
_VE_OPCODES = list(VectorOpcode)
_SC_OPCODES = list(ScalarOpcode)
_MISC_OPCODES = list(MiscOpcode)
_CTRL_OPCODES = list(ControlOpcode)


def _opcode_index(opcodes: list, opcode) -> int:
    try:
        return opcodes.index(opcode)
    except ValueError as exc:  # pragma: no cover - enum guarantees member
        raise IsaError(f"unknown opcode {opcode}") from exc


def _opcode_from_index(opcodes: list, index: int):
    if not 0 <= index < len(opcodes):
        raise IsaError(f"opcode index {index} out of range")
    return opcodes[index]


# ----------------------------------------------------------------------
# Slot encoders/decoders
# ----------------------------------------------------------------------
def encode_matrix_op(op: MatrixOp) -> bytes:
    return struct.pack(
        _ME_FMT, _opcode_index(_ME_OPCODES, op.opcode), op.engine, op.dst, op.src
    )


def decode_matrix_op(data: bytes, offset: int = 0) -> Tuple[MatrixOp, int]:
    opc, engine, dst, src = struct.unpack_from(_ME_FMT, data, offset)
    op = MatrixOp(_opcode_from_index(_ME_OPCODES, opc), engine, dst, src)
    return op, offset + struct.calcsize(_ME_FMT)


def encode_vector_op(op: VectorOp) -> bytes:
    return struct.pack(
        _VE_FMT,
        _opcode_index(_VE_OPCODES, op.opcode),
        op.engine,
        op.dst,
        op.src_a,
        op.src_b,
    )


def decode_vector_op(data: bytes, offset: int = 0) -> Tuple[VectorOp, int]:
    opc, engine, dst, src_a, src_b = struct.unpack_from(_VE_FMT, data, offset)
    op = VectorOp(_opcode_from_index(_VE_OPCODES, opc), engine, dst, src_a, src_b)
    return op, offset + struct.calcsize(_VE_FMT)


def encode_scalar_op(op: ScalarOp) -> bytes:
    return struct.pack(
        _SC_FMT, _opcode_index(_SC_OPCODES, op.opcode), op.dst, op.src, op.imm
    )


def decode_scalar_op(data: bytes, offset: int = 0) -> Tuple[ScalarOp, int]:
    opc, dst, src, imm = struct.unpack_from(_SC_FMT, data, offset)
    op = ScalarOp(_opcode_from_index(_SC_OPCODES, opc), dst, src, imm)
    return op, offset + struct.calcsize(_SC_FMT)


def encode_misc_op(op: MiscOp) -> bytes:
    return struct.pack(
        _MISC_FMT, _opcode_index(_MISC_OPCODES, op.opcode), op.addr, op.size
    )


def decode_misc_op(data: bytes, offset: int = 0) -> Tuple[MiscOp, int]:
    opc, addr, size = struct.unpack_from(_MISC_FMT, data, offset)
    op = MiscOp(_opcode_from_index(_MISC_OPCODES, opc), addr, size)
    return op, offset + struct.calcsize(_MISC_FMT)


def encode_control_op(op: ControlOp) -> bytes:
    return struct.pack(_CTRL_FMT, _opcode_index(_CTRL_OPCODES, op.opcode), op.reg)


def decode_control_op(data: bytes, offset: int = 0) -> Tuple[ControlOp, int]:
    opc, reg = struct.unpack_from(_CTRL_FMT, data, offset)
    op = ControlOp(_opcode_from_index(_CTRL_OPCODES, opc), reg)
    return op, offset + struct.calcsize(_CTRL_FMT)


# ----------------------------------------------------------------------
# uTOp instruction: presence bitmap + optional slots
# ----------------------------------------------------------------------
_HAS_ME = 1 << 0
_HAS_SCALAR = 1 << 1
_HAS_MISC = 1 << 2
_HAS_CONTROL = 1 << 3


def encode_utop_instruction(inst: UTopInstruction) -> bytes:
    flags = 0
    if inst.me_slot is not None:
        flags |= _HAS_ME
    if inst.scalar_slot is not None:
        flags |= _HAS_SCALAR
    if not inst.misc_slot.is_nop:
        flags |= _HAS_MISC
    if inst.control is not None:
        flags |= _HAS_CONTROL
    parts = [struct.pack("<BB", flags, len(inst.ve_slots))]
    if inst.me_slot is not None:
        parts.append(encode_matrix_op(inst.me_slot))
    for ve_op in inst.ve_slots:
        parts.append(encode_vector_op(ve_op))
    if inst.scalar_slot is not None:
        parts.append(encode_scalar_op(inst.scalar_slot))
    if not inst.misc_slot.is_nop:
        parts.append(encode_misc_op(inst.misc_slot))
    if inst.control is not None:
        parts.append(encode_control_op(inst.control))
    return b"".join(parts)


def decode_utop_instruction(data: bytes, offset: int = 0) -> Tuple[UTopInstruction, int]:
    flags, n_ve = struct.unpack_from("<BB", data, offset)
    offset += 2
    me_slot: Optional[MatrixOp] = None
    if flags & _HAS_ME:
        me_slot, offset = decode_matrix_op(data, offset)
    ve_slots = []
    for _ in range(n_ve):
        ve_op, offset = decode_vector_op(data, offset)
        ve_slots.append(ve_op)
    scalar_slot: Optional[ScalarOp] = None
    if flags & _HAS_SCALAR:
        scalar_slot, offset = decode_scalar_op(data, offset)
    misc_slot = MiscOp()
    if flags & _HAS_MISC:
        misc_slot, offset = decode_misc_op(data, offset)
    control: Optional[ControlOp] = None
    if flags & _HAS_CONTROL:
        control, offset = decode_control_op(data, offset)
    inst = UTopInstruction(
        me_slot=me_slot,
        ve_slots=tuple(ve_slots),
        scalar_slot=scalar_slot,
        misc_slot=misc_slot,
        control=control,
    )
    return inst, offset


def encode_snippet(body: List[UTopInstruction]) -> bytes:
    parts = [struct.pack("<I", len(body))]
    parts.extend(encode_utop_instruction(inst) for inst in body)
    return b"".join(parts)


def decode_snippet(data: bytes, offset: int = 0) -> Tuple[List[UTopInstruction], int]:
    (count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    body: List[UTopInstruction] = []
    for _ in range(count):
        inst, offset = decode_utop_instruction(data, offset)
        body.append(inst)
    return body, offset


# ----------------------------------------------------------------------
# VLIW instruction
# ----------------------------------------------------------------------
def encode_vliw_instruction(inst: VliwInstruction) -> bytes:
    parts = [
        struct.pack(
            "<BBB", len(inst.me_slots), len(inst.ve_slots), len(inst.ls_slots)
        )
    ]
    parts.extend(encode_matrix_op(op) for op in inst.me_slots)
    parts.extend(encode_vector_op(op) for op in inst.ve_slots)
    parts.extend(encode_scalar_op(op) for op in inst.ls_slots)
    parts.append(encode_misc_op(inst.misc_slot))
    return b"".join(parts)


def decode_vliw_instruction(data: bytes, offset: int = 0) -> Tuple[VliwInstruction, int]:
    n_me, n_ve, n_ls = struct.unpack_from("<BBB", data, offset)
    offset += 3
    me_slots = []
    for _ in range(n_me):
        op, offset = decode_matrix_op(data, offset)
        me_slots.append(op)
    ve_slots = []
    for _ in range(n_ve):
        op, offset = decode_vector_op(data, offset)
        ve_slots.append(op)
    ls_slots = []
    for _ in range(n_ls):
        op, offset = decode_scalar_op(data, offset)
        ls_slots.append(op)
    misc, offset = decode_misc_op(data, offset)
    inst = VliwInstruction(
        me_slots=tuple(me_slots),
        ve_slots=tuple(ve_slots),
        ls_slots=tuple(ls_slots),
        misc_slot=misc,
    )
    return inst, offset


def utop_instruction_size_bytes(inst: UTopInstruction) -> int:
    return len(encode_utop_instruction(inst))
