"""Functional NeuISA virtual machine.

The interpreter executes a :class:`~repro.isa.program.NeuIsaProgram` at
control-flow granularity.  It walks the uTOp execution table, runs every
uTOp's snippet (scalar slots, control slots), enforces the
``uTop.nextGroup`` agreement rule and resolves cross-group branches such
as the loop in paper Fig. 15.  The output is the *dynamic uTOp sequence*
-- the order in which uTOp groups (and their member uTOps) would reach
the hardware scheduler -- which the performance simulator replays.

Scalar-slot semantics used by control flow:

``load  %rd, [addr]``   read scratch memory word ``addr`` into ``%rd``
``store %rs, [addr]``   write ``%rs`` into scratch memory word ``addr``
``addi  %rd, %rs, imm`` ``%rd = %rs + imm``
``cmp   %rd, %rs, imm`` ``%rd = 1 if %rs < imm else 0``
``branch %rs, imm``     if ``%rs == 0`` skip the next ``imm`` instructions

Scratch memory models the on-chip SRAM words that hold loop counters
(paper Fig. 15: "the loop counter Count is stored in the on-chip SRAM").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import IsaError
from repro.isa.control import ControlOpcode, ScalarRegisterFile
from repro.isa.program import NeuIsaProgram
from repro.isa.utop import UTop, UTopInstruction
from repro.isa.vliw import ScalarOpcode

#: Safety valve against runaway control flow in malformed programs.
DEFAULT_MAX_GROUP_EXECUTIONS = 100_000


@dataclass
class UTopExecution:
    """Record of one dynamic uTOp execution."""

    group_index: int
    utop_index: int
    utop: UTop
    instructions_executed: int


@dataclass
class GroupExecution:
    """Record of one dynamic uTOp-group execution."""

    group_index: int
    utop_runs: List[UTopExecution] = field(default_factory=list)
    next_group: Optional[int] = None


@dataclass
class InterpreterResult:
    """Dynamic trace of a whole program run."""

    groups: List[GroupExecution] = field(default_factory=list)
    scratch: Dict[int, int] = field(default_factory=dict)

    @property
    def dynamic_group_indices(self) -> List[int]:
        return [grp.group_index for grp in self.groups]

    @property
    def total_instructions(self) -> int:
        return sum(
            run.instructions_executed for grp in self.groups for run in grp.utop_runs
        )


class NeuIsaInterpreter:
    """Executes NeuISA programs functionally.

    The interpreter is deterministic: uTOps within a group are executed in
    table order (ME uTOps by index, then the VE uTOp).  Well-formed
    programs must not depend on intra-group ordering, and the
    ``uTop.nextGroup`` agreement rule is checked exactly as the hardware
    would: if two uTOps of the same group name different targets an
    exception is raised (paper Fig. 14).
    """

    def __init__(
        self,
        program: NeuIsaProgram,
        max_group_executions: int = DEFAULT_MAX_GROUP_EXECUTIONS,
    ) -> None:
        if not program.snippets:
            raise IsaError("interpreter needs decoded snippets")
        self.program = program
        self.max_group_executions = max_group_executions
        self.scratch: Dict[int, int] = dict(program.scratch_init)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> InterpreterResult:
        """Execute from group 0 until control falls off the table."""
        result = InterpreterResult()
        group_idx = 0
        executed = 0
        while 0 <= group_idx < self.program.num_groups:
            if executed >= self.max_group_executions:
                raise IsaError(
                    "group execution limit exceeded; "
                    "the program likely contains an unbounded loop"
                )
            grp_exec = self._run_group(group_idx)
            result.groups.append(grp_exec)
            executed += 1
            if grp_exec.next_group is not None:
                group_idx = grp_exec.next_group
            else:
                group_idx += 1
        result.scratch = dict(self.scratch)
        return result

    # ------------------------------------------------------------------
    # Group / uTOp execution
    # ------------------------------------------------------------------
    def _run_group(self, group_idx: int) -> GroupExecution:
        group = self.program.group(group_idx)
        grp_exec = GroupExecution(group_index=group_idx)
        proposed: Optional[int] = None
        for utop_index, utop in enumerate(group.utops):
            run, target = self._run_utop(group_idx, utop_index, utop)
            grp_exec.utop_runs.append(run)
            if target is not None:
                if proposed is not None and proposed != target:
                    raise IsaError(
                        f"uTop.nextGroup divergence in group {group_idx}: "
                        f"{proposed} vs {target}"
                    )
                proposed = target
        grp_exec.next_group = proposed
        return grp_exec

    def _run_utop(
        self, group_idx: int, utop_index: int, utop: UTop
    ) -> Tuple[UTopExecution, Optional[int]]:
        body = self.program.snippet(utop.snippet_addr)
        regs = ScalarRegisterFile()
        next_group: Optional[int] = None
        pc = 0
        executed = 0
        finished = False
        while pc < len(body):
            inst = body[pc]
            executed += 1
            skip = self._exec_scalar(inst, regs)
            ctrl_target, finished = self._exec_control(
                inst, regs, group_idx, utop_index
            )
            if ctrl_target is not None:
                next_group = ctrl_target
            if finished:
                break
            pc += 1 + skip
        if not finished:
            raise IsaError(
                f"uTOp (group {group_idx}, index {utop_index}) "
                "ran off its snippet without uTop.finish"
            )
        run = UTopExecution(
            group_index=group_idx,
            utop_index=utop_index,
            utop=utop,
            instructions_executed=executed,
        )
        return run, next_group

    # ------------------------------------------------------------------
    # Slot semantics
    # ------------------------------------------------------------------
    def _exec_scalar(self, inst: UTopInstruction, regs: ScalarRegisterFile) -> int:
        """Execute the scalar slot; returns how many following
        instructions to skip (non-zero only for a not-taken branch)."""
        op = inst.scalar_slot
        if op is None or op.opcode is ScalarOpcode.NOP:
            return 0
        if op.opcode is ScalarOpcode.LOAD:
            regs.write(op.dst, self.scratch.get(op.imm, 0))
            return 0
        if op.opcode is ScalarOpcode.STORE:
            self.scratch[op.imm] = regs.read(op.src)
            return 0
        if op.opcode is ScalarOpcode.ADDI:
            regs.write(op.dst, regs.read(op.src) + op.imm)
            return 0
        if op.opcode is ScalarOpcode.CMP:
            regs.write(op.dst, 1 if regs.read(op.src) < op.imm else 0)
            return 0
        if op.opcode is ScalarOpcode.BRANCH:
            if regs.read(op.src) == 0:
                if op.imm < 0:
                    raise IsaError("branch skip count cannot be negative")
                return op.imm
            return 0
        raise IsaError(f"unhandled scalar opcode {op.opcode}")

    def _exec_control(
        self,
        inst: UTopInstruction,
        regs: ScalarRegisterFile,
        group_idx: int,
        utop_index: int,
    ) -> Tuple[Optional[int], bool]:
        """Execute the control slot; returns (nextGroup target, finished)."""
        op = inst.control
        if op is None:
            return None, False
        if op.opcode is ControlOpcode.FINISH:
            return None, True
        if op.opcode is ControlOpcode.NEXT_GROUP:
            target = regs.read(op.reg)
            if not 0 <= target < self.program.num_groups:
                raise IsaError(f"uTop.nextGroup target {target} out of range")
            return target, False
        if op.opcode is ControlOpcode.GROUP:
            regs.write(op.reg, group_idx)
            return None, False
        if op.opcode is ControlOpcode.INDEX:
            regs.write(op.reg, utop_index)
            return None, False
        raise IsaError(f"unhandled control opcode {op.opcode}")


def run_program(program: NeuIsaProgram) -> InterpreterResult:
    """One-shot convenience wrapper around :class:`NeuIsaInterpreter`."""
    return NeuIsaInterpreter(program).run()
