"""The command ring (paper Fig. 11).

"During execution, the application issues commands such as memcpy and
compute offloading through the command buffer.  The NPU hardware
directly fetches the commands from the host memory without the
hypervisor intervention."  The ring is a classic single-producer
(driver) / single-consumer (device) circular buffer with head/tail
indices; overflow and malformed commands raise
:class:`~repro.errors.CommandRingError`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import CommandRingError


class CommandOpcode(enum.Enum):
    MEMCPY_H2D = "memcpy_h2d"
    MEMCPY_D2H = "memcpy_d2h"
    LAUNCH = "launch"
    SYNC = "sync"


@dataclass
class Command:
    opcode: CommandOpcode
    #: Guest address for memcpy source/destination.
    guest_addr: int = 0
    #: Device (vNPU-virtual) address.
    device_addr: int = 0
    size: int = 0
    #: Program handle for LAUNCH.
    program_id: int = 0
    completed: bool = False


class CommandRing:
    """Bounded circular command buffer."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 2:
            raise CommandRingError("ring capacity must be at least 2")
        self.capacity = capacity
        self._slots: List[Optional[Command]] = [None] * capacity
        self._head = 0  # next slot the device consumes
        self._tail = 0  # next slot the driver fills
        self._count = 0

    # ------------------------------------------------------------------
    # Producer (guest driver)
    # ------------------------------------------------------------------
    def push(self, command: Command) -> int:
        if self._count == self.capacity:
            raise CommandRingError("command ring overflow")
        if command.size < 0:
            raise CommandRingError("negative command size")
        slot = self._tail
        self._slots[slot] = command
        self._tail = (self._tail + 1) % self.capacity
        self._count += 1
        return slot

    # ------------------------------------------------------------------
    # Consumer (device)
    # ------------------------------------------------------------------
    def pop(self) -> Optional[Command]:
        if self._count == 0:
            return None
        command = self._slots[self._head]
        if command is None:
            raise CommandRingError(
                f"ring slot {self._head} empty with {self._count} pending"
            )
        self._slots[self._head] = None
        self._head = (self._head + 1) % self.capacity
        self._count -= 1
        return command

    def complete(self, command: Command) -> None:
        if command.completed:
            raise CommandRingError(
                f"{command.opcode.value} command completed twice"
            )
        command.completed = True

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count == self.capacity
