"""The baseline VLIW-style NPU ISA (paper SectionII-A).

A conventional NPU instruction is very wide: it carries one slot per
matrix engine (ME), one slot per vector engine (VE), load/store slots for
the on-chip SRAM and a miscellaneous slot for DMA and scalar bookkeeping.
The ML compiler statically schedules operations into slots, which couples
the control flow of every engine (the root cause of the inflexibility the
paper identifies in SectionII-C, Fig. 9).

The same slot vocabulary is reused inside NeuISA uTOps
(:mod:`repro.isa.utop`), where an instruction carries at most one ME slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import IsaError


class MatrixOpcode(enum.Enum):
    """Operations accepted by an ME slot."""

    NOP = "nop"
    #: Push one input vector into the systolic array.
    PUSH = "push"
    #: Pop one 8x128 result vector out of the systolic array (8 cycles).
    POP = "pop"
    #: Pre-load weights into the array.
    LOAD_WEIGHTS = "load_weights"


class VectorOpcode(enum.Enum):
    """Operations accepted by a VE slot (one cycle each)."""

    NOP = "nop"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MAX = "max"
    RELU = "relu"
    EXP = "exp"
    RSQRT = "rsqrt"
    REDUCE = "reduce"
    COPY = "copy"


class ScalarOpcode(enum.Enum):
    """Scalar/load-store slot operations."""

    NOP = "nop"
    LOAD = "load"
    STORE = "store"
    ADDI = "addi"
    CMP = "cmp"
    BRANCH = "branch"


class MiscOpcode(enum.Enum):
    """Misc slot: DMA engine control and synchronisation."""

    NOP = "nop"
    DMA_IN = "dma_in"
    DMA_OUT = "dma_out"
    SYNC = "sync"


@dataclass(frozen=True)
class MatrixOp:
    """One ME-slot operation.

    ``engine`` identifies the statically targeted ME in the VLIW ISA;
    NeuISA uTOps always use engine 0 because the hardware binds the uTOp
    to a physical ME at dispatch time (paper SectionIII-D).
    """

    opcode: MatrixOpcode = MatrixOpcode.NOP
    engine: int = 0
    dst: int = 0
    src: int = 0

    @property
    def is_nop(self) -> bool:
        return self.opcode is MatrixOpcode.NOP

    @property
    def latency_cycles(self) -> int:
        """Issue-to-retire latency used by the functional model."""
        if self.opcode is MatrixOpcode.NOP:
            return 0
        if self.opcode is MatrixOpcode.POP:
            return 8  # an 8x128 output vector drains over 8 cycles
        return 1


@dataclass(frozen=True)
class VectorOp:
    """One VE-slot operation (single cycle on a 128x8 ALU)."""

    opcode: VectorOpcode = VectorOpcode.NOP
    engine: int = 0
    dst: int = 0
    src_a: int = 0
    src_b: int = 0

    @property
    def is_nop(self) -> bool:
        return self.opcode is VectorOpcode.NOP


@dataclass(frozen=True)
class ScalarOp:
    opcode: ScalarOpcode = ScalarOpcode.NOP
    dst: int = 0
    src: int = 0
    imm: int = 0

    @property
    def is_nop(self) -> bool:
        return self.opcode is ScalarOpcode.NOP


@dataclass(frozen=True)
class MiscOp:
    opcode: MiscOpcode = MiscOpcode.NOP
    addr: int = 0
    size: int = 0

    @property
    def is_nop(self) -> bool:
        return self.opcode is MiscOpcode.NOP


def _pad(ops: Sequence, width: int, filler) -> Tuple:
    """Pad a slot list with NOPs up to ``width``; reject overflow."""
    ops = tuple(ops)
    if len(ops) > width:
        raise IsaError(f"{len(ops)} operations for {width} slots")
    return ops + tuple(filler() for _ in range(width - len(ops)))


@dataclass(frozen=True)
class VliwInstruction:
    """One very-long instruction word.

    The slot widths are fixed per program (they reflect the number of
    engines the compiler targeted), so instructions store plain tuples and
    :class:`VliwProgram` validates uniformity.
    """

    me_slots: Tuple[MatrixOp, ...] = ()
    ve_slots: Tuple[VectorOp, ...] = ()
    ls_slots: Tuple[ScalarOp, ...] = ()
    misc_slot: MiscOp = field(default_factory=MiscOp)

    @staticmethod
    def build(
        me_ops: Iterable[MatrixOp] = (),
        ve_ops: Iterable[VectorOp] = (),
        ls_ops: Iterable[ScalarOp] = (),
        misc: Optional[MiscOp] = None,
        num_me_slots: int = 0,
        num_ve_slots: int = 0,
        num_ls_slots: int = 2,
    ) -> "VliwInstruction":
        """Construct an instruction, padding unused slots with NOPs."""
        return VliwInstruction(
            me_slots=_pad(tuple(me_ops), num_me_slots, MatrixOp),
            ve_slots=_pad(tuple(ve_ops), num_ve_slots, VectorOp),
            ls_slots=_pad(tuple(ls_ops), num_ls_slots, ScalarOp),
            misc_slot=misc if misc is not None else MiscOp(),
        )

    @property
    def num_me_slots(self) -> int:
        return len(self.me_slots)

    @property
    def num_ve_slots(self) -> int:
        return len(self.ve_slots)

    @property
    def active_mes(self) -> Tuple[int, ...]:
        """Indices of MEs this instruction drives (non-NOP slots)."""
        return tuple(i for i, op in enumerate(self.me_slots) if not op.is_nop)

    @property
    def active_ves(self) -> Tuple[int, ...]:
        return tuple(i for i, op in enumerate(self.ve_slots) if not op.is_nop)

    @property
    def is_nop(self) -> bool:
        return (
            not self.active_mes
            and not self.active_ves
            and all(op.is_nop for op in self.ls_slots)
            and self.misc_slot.is_nop
        )

    @property
    def issue_cycles(self) -> int:
        """Cycles the instruction occupies the issue stage.

        In the in-order VLIW pipeline an instruction retires when its
        slowest slot retires; POP operations dominate at 8 cycles.
        """
        latency = 1 if not self.is_nop else 1
        for op in self.me_slots:
            latency = max(latency, op.latency_cycles)
        return latency


@dataclass
class VliwProgram:
    """A straight-line VLIW program plus the engine counts it was
    compiled for.

    The key property the paper leans on (SectionII-C): ``num_mes_used`` is
    baked in at compile time -- the program can run *only* on exactly that
    many MEs, which is what NeuISA removes.
    """

    instructions: List[VliwInstruction] = field(default_factory=list)
    num_mes_used: int = 1
    num_ves_used: int = 1
    name: str = "vliw-program"

    def __post_init__(self) -> None:
        if self.num_mes_used < 0 or self.num_ves_used < 0:
            raise IsaError("engine counts cannot be negative")
        for idx, inst in enumerate(self.instructions):
            if inst.num_me_slots != self.num_mes_used:
                raise IsaError(
                    f"instruction {idx} has {inst.num_me_slots} ME slots, "
                    f"program compiled for {self.num_mes_used}"
                )
            if inst.num_ve_slots != self.num_ves_used:
                raise IsaError(
                    f"instruction {idx} has {inst.num_ve_slots} VE slots, "
                    f"program compiled for {self.num_ves_used}"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    def append(self, inst: VliwInstruction) -> None:
        if inst.num_me_slots != self.num_mes_used:
            raise IsaError("ME slot width mismatch")
        if inst.num_ve_slots != self.num_ves_used:
            raise IsaError("VE slot width mismatch")
        self.instructions.append(inst)

    @property
    def total_issue_cycles(self) -> int:
        """Sequential issue time of the whole program, in cycles."""
        return sum(inst.issue_cycles for inst in self.instructions)

    def me_busy_cycles(self, engine: int) -> int:
        """Cycles engine ``engine`` is driven by a non-NOP ME op."""
        busy = 0
        for inst in self.instructions:
            if engine < len(inst.me_slots) and not inst.me_slots[engine].is_nop:
                busy += max(1, inst.me_slots[engine].latency_cycles)
        return busy
