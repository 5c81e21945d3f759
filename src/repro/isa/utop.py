"""Micro tensor operators (uTOps) and uTOp groups (paper SectionIII-D).

NeuISA decouples the execution of independent MEs in a tensor operator by
separating the control flow of each ME into its own instruction sequence,
the *uTOp* (paper Fig. 13).  Two kinds exist for a core with ``nx`` MEs
and ``ny`` VEs:

- an **ME uTOp** carries instructions with exactly one ME slot and ``ny``
  VE slots.  It drives one ME for its whole lifetime; the VE slots let the
  compiler pipeline post-processing (e.g. the ReLU of a fused
  MatMul+ReLU) with the systolic array drain.
- a **VE uTOp** carries no ME slot and ``ny`` VE slots.  It performs pure
  vector work and may spread over every VE of the vNPU.

uTOps are organised in **uTOp groups**: up to ``nx`` ME uTOps plus up to
one VE uTOp.  uTOps inside one group may run concurrently in any order;
groups execute sequentially (group ``i+1`` after group ``i``) unless a
``uTop.nextGroup`` redirects control (paper Fig. 15).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import IsaError
from repro.isa.control import ControlOp, ControlOpcode
from repro.isa.vliw import MatrixOp, MiscOp, ScalarOp, VectorOp


class UTopKind(enum.Enum):
    ME = "me"
    VE = "ve"


@dataclass(frozen=True)
class UTopInstruction:
    """One instruction inside a uTOp code snippet.

    The format resembles the original VLIW ISA (paper SectionIII-D: "the
    instruction format inside a uTOp resembles the original VLIW ISA")
    but carries at most one ME slot.  An optional control slot holds one
    of the four uTOp control operations.
    """

    me_slot: Optional[MatrixOp] = None
    ve_slots: Tuple[VectorOp, ...] = ()
    scalar_slot: Optional[ScalarOp] = None
    misc_slot: MiscOp = field(default_factory=MiscOp)
    control: Optional[ControlOp] = None

    @property
    def uses_me(self) -> bool:
        return self.me_slot is not None and not self.me_slot.is_nop

    @property
    def issue_cycles(self) -> int:
        latency = 1
        if self.me_slot is not None:
            latency = max(latency, self.me_slot.latency_cycles)
        return latency


@dataclass(frozen=True)
class UTopCost:
    """Performance annotations attached by the compiler.

    The cycle-level simulator consumes these instead of re-executing every
    instruction: ``me_cycles`` is the ME busy time, ``ve_cycles`` the
    embedded VE work, ``hbm_bytes`` the DMA traffic, ``sram_bytes`` the
    peak scratchpad footprint.  ``parallelism`` bounds how many VEs a VE
    uTOp can productively use at once.
    """

    me_cycles: float = 0.0
    ve_cycles: float = 0.0
    hbm_bytes: float = 0.0
    sram_bytes: int = 0
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.me_cycles < 0 or self.ve_cycles < 0:
            raise IsaError("uTOp cycle costs cannot be negative")
        if self.hbm_bytes < 0 or self.sram_bytes < 0:
            raise IsaError("uTOp memory costs cannot be negative")
        if self.parallelism < 1:
            raise IsaError("uTOp parallelism must be at least 1")

    @property
    def total_cycles(self) -> float:
        return max(self.me_cycles, self.ve_cycles)


@dataclass
class UTop:
    """A micro tensor operator.

    ``snippet_addr`` names the shared code snippet this uTOp executes
    (NeuISA shares snippets between uTOps to limit code inflation, paper
    SectionIII-D); ``instructions`` optionally carries the decoded snippet
    for functional execution.
    """

    kind: UTopKind
    snippet_addr: int
    cost: UTopCost = field(default_factory=UTopCost)
    instructions: Optional[List[UTopInstruction]] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.snippet_addr < 0:
            raise IsaError("snippet address cannot be negative")
        if self.kind is UTopKind.VE and self.cost.me_cycles > 0:
            raise IsaError("a VE uTOp cannot carry ME work")
        if self.instructions is not None:
            self._validate_instructions()

    def _validate_instructions(self) -> None:
        assert self.instructions is not None
        if not self.instructions:
            raise IsaError("a decoded uTOp needs at least one instruction")
        for inst in self.instructions:
            if self.kind is UTopKind.VE and inst.uses_me:
                raise IsaError("VE uTOp contains an active ME slot")
        last = self.instructions[-1]
        if last.control is None or last.control.opcode is not ControlOpcode.FINISH:
            raise IsaError("uTOp must end with uTop.finish")

    @property
    def occupies_me(self) -> bool:
        return self.kind is UTopKind.ME


@dataclass
class UTopGroup:
    """A set of uTOps that may execute concurrently (paper Fig. 13).

    Constraints (enforced against the core's engine counts by
    :class:`ExecutionTable`): at most ``nx`` ME uTOps and at most one VE
    uTOp, because a single VE uTOp already carries ``ny`` VE slots.
    """

    me_utops: List[UTop] = field(default_factory=list)
    ve_utop: Optional[UTop] = None
    label: str = ""

    def __post_init__(self) -> None:
        for utop in self.me_utops:
            if utop.kind is not UTopKind.ME:
                raise IsaError("me_utops may only contain ME uTOps")
        if self.ve_utop is not None and self.ve_utop.kind is not UTopKind.VE:
            raise IsaError("ve_utop must be a VE uTOp")
        if not self.me_utops and self.ve_utop is None:
            raise IsaError("a uTOp group cannot be empty")

    @property
    def utops(self) -> List[UTop]:
        items = list(self.me_utops)
        if self.ve_utop is not None:
            items.append(self.ve_utop)
        return items

    @property
    def num_me_utops(self) -> int:
        return len(self.me_utops)

    @property
    def total_me_cycles(self) -> float:
        return sum(u.cost.me_cycles for u in self.me_utops)

    @property
    def total_ve_cycles(self) -> float:
        total = sum(u.cost.ve_cycles for u in self.me_utops)
        if self.ve_utop is not None:
            total += self.ve_utop.cost.ve_cycles
        return total

    @property
    def total_hbm_bytes(self) -> float:
        return sum(u.cost.hbm_bytes for u in self.utops)


@dataclass
class ExecutionTable:
    """The uTOp execution table (paper Fig. 15).

    Each row defines one uTOp group; each cell holds the start address of
    a uTOp code snippet (``None`` encodes a null entry).  For a physical
    core with ``nx`` MEs a row has ``nx`` ME entries plus one VE entry.
    """

    nx: int
    ny: int
    rows: List[UTopGroup] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise IsaError("execution table needs nx >= 1 and ny >= 1")
        for idx, group in enumerate(self.rows):
            self._check_group(idx, group)

    def _check_group(self, idx: int, group: UTopGroup) -> None:
        if group.num_me_utops > self.nx:
            raise IsaError(
                f"group {idx} has {group.num_me_utops} ME uTOps "
                f"but the core has only {self.nx} MEs"
            )

    def append(self, group: UTopGroup) -> int:
        """Add a group as the next row; returns its group index."""
        self._check_group(len(self.rows), group)
        self.rows.append(group)
        return len(self.rows) - 1

    def __len__(self) -> int:
        return len(self.rows)

    def group(self, index: int) -> UTopGroup:
        if not 0 <= index < len(self.rows):
            raise IsaError(f"uTOp group index {index} out of range")
        return self.rows[index]

    def row_cells(self, index: int) -> List[Optional[int]]:
        """Snippet addresses of row ``index`` padded with ``None`` to the
        hardware row width (nx ME entries + 1 VE entry)."""
        group = self.group(index)
        cells: List[Optional[int]] = [u.snippet_addr for u in group.me_utops]
        cells.extend([None] * (self.nx - len(cells)))
        cells.append(group.ve_utop.snippet_addr if group.ve_utop else None)
        return cells

    def snippet_addresses(self) -> Dict[int, int]:
        """Map of snippet address -> number of uTOps referencing it."""
        refs: Dict[int, int] = {}
        for group in self.rows:
            for utop in group.utops:
                refs[utop.snippet_addr] = refs.get(utop.snippet_addr, 0) + 1
        return refs


def make_me_utop(
    snippet_addr: int,
    me_cycles: float,
    ve_cycles: float = 0.0,
    hbm_bytes: float = 0.0,
    sram_bytes: int = 0,
    label: str = "",
    instructions: Optional[Sequence[UTopInstruction]] = None,
) -> UTop:
    """Convenience constructor for an ME uTOp with cost annotations."""
    return UTop(
        kind=UTopKind.ME,
        snippet_addr=snippet_addr,
        cost=UTopCost(
            me_cycles=me_cycles,
            ve_cycles=ve_cycles,
            hbm_bytes=hbm_bytes,
            sram_bytes=sram_bytes,
        ),
        instructions=list(instructions) if instructions is not None else None,
        label=label,
    )


def make_ve_utop(
    snippet_addr: int,
    ve_cycles: float,
    hbm_bytes: float = 0.0,
    sram_bytes: int = 0,
    parallelism: int = 1,
    label: str = "",
    instructions: Optional[Sequence[UTopInstruction]] = None,
) -> UTop:
    """Convenience constructor for a VE uTOp with cost annotations."""
    return UTop(
        kind=UTopKind.VE,
        snippet_addr=snippet_addr,
        cost=UTopCost(
            ve_cycles=ve_cycles,
            hbm_bytes=hbm_bytes,
            sram_bytes=sram_bytes,
            parallelism=parallelism,
        ),
        instructions=list(instructions) if instructions is not None else None,
        label=label,
    )
