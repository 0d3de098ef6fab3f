"""Cycle-accurate interpreter for the HPU mini-ISA.

Every instruction costs one cycle (the A15's in-order IPC≈1 regime of
§4.2); scratchpad and packet-buffer accesses add ``k - 1`` extra cycles
(``k = 1`` by default: single-cycle access).  Simcalls cost the cost-model's
action overhead and are recorded — the surrounding DES charges their actual
latency, exactly as LogGOPSim charged gem5's handler runtimes plus its own
network costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hpu_isa.isa import Instruction

if TYPE_CHECKING:
    import numpy as np

__all__ = ["VM", "VMError", "VMResult"]

MASK32 = (1 << 32) - 1


class VMError(Exception):
    """Runtime fault: bad memory access, division, or runaway execution."""


@dataclass
class VMResult:
    """Outcome of one kernel execution."""

    cycles: int
    instructions: int
    simcalls: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)

    def cycles_per_byte(self, nbytes: int) -> float:
        return self.cycles / nbytes if nbytes else float("inf")


class VM:
    """One HPU core executing a handler kernel."""

    def __init__(
        self,
        memory_bytes: int = 4096,
        scratchpad_cycles: int = 1,
        max_cycles: int = 10_000_000,
    ):
        if scratchpad_cycles < 1:
            raise VMError("scratchpad access cost must be >= 1 cycle")
        import numpy as np

        self.memory = np.zeros(memory_bytes, dtype=np.uint8)
        self.packet = np.zeros(0, dtype=np.uint8)
        self.scratchpad_cycles = scratchpad_cycles
        self.max_cycles = max_cycles
        self.regs = [0] * 16

    # -- memory helpers ----------------------------------------------------
    def _check(self, arr: np.ndarray, addr: int, n: int, what: str) -> None:
        if addr < 0 or addr + n > arr.size:
            raise VMError(f"{what} access [{addr}, {addr + n}) out of bounds "
                          f"[0, {arr.size})")

    def _load(self, arr: np.ndarray, addr: int, n: int, what: str) -> int:
        self._check(arr, addr, n, what)
        return int.from_bytes(arr[addr : addr + n].tobytes(), "little")

    def _store(self, addr: int, value: int, n: int) -> None:
        import numpy as np

        self._check(self.memory, addr, n, "scratchpad")
        self.memory[addr : addr + n] = np.frombuffer(
            (value & ((1 << (8 * n)) - 1)).to_bytes(n, "little"), dtype=np.uint8
        )

    def _set(self, reg: int, value: int) -> None:
        if reg != 0:  # r0 is hardwired to zero
            self.regs[reg] = value & MASK32

    # -- execution ---------------------------------------------------------
    def run(self, program: list[Instruction], regs: dict[int, int] | None = None,
            packet: np.ndarray | None = None) -> VMResult:
        """Execute until ``halt``; returns cycle/instruction counts."""
        self.regs = [0] * 16
        for reg, value in (regs or {}).items():
            self._set(reg, value)
        if packet is not None:
            import numpy as np

            self.packet = np.asarray(packet, dtype=np.uint8).ravel()
        r = self.regs
        pc = 0
        cycles = 0
        instructions = 0
        simcalls: list[tuple[str, tuple[int, ...]]] = []
        mem_extra = self.scratchpad_cycles - 1

        while True:
            if pc < 0 or pc >= len(program):
                raise VMError(f"pc {pc} outside program of {len(program)}")
            if cycles > self.max_cycles:
                raise VMError(f"runaway kernel: > {self.max_cycles} cycles "
                              "(§7: the NIC would kill this handler)")
            ins = program[pc]
            op, a = ins.opcode, ins.operands
            cycles += 1
            instructions += 1
            pc += 1

            if op == "halt":
                return VMResult(cycles, instructions, simcalls)
            elif op == "nop":
                pass
            elif op == "add":
                self._set(a[0], r[a[1]] + r[a[2]])
            elif op == "sub":
                self._set(a[0], r[a[1]] - r[a[2]])
            elif op == "mul":
                self._set(a[0], r[a[1]] * r[a[2]])
            elif op == "and":
                self._set(a[0], r[a[1]] & r[a[2]])
            elif op == "or":
                self._set(a[0], r[a[1]] | r[a[2]])
            elif op == "xor":
                self._set(a[0], r[a[1]] ^ r[a[2]])
            elif op == "sll":
                self._set(a[0], r[a[1]] << (r[a[2]] & 31))
            elif op == "srl":
                self._set(a[0], r[a[1]] >> (r[a[2]] & 31))
            elif op == "addi":
                self._set(a[0], r[a[1]] + a[2])
            elif op == "subi":
                self._set(a[0], r[a[1]] - a[2])
            elif op == "andi":
                self._set(a[0], r[a[1]] & a[2])
            elif op == "ori":
                self._set(a[0], r[a[1]] | a[2])
            elif op == "xori":
                self._set(a[0], r[a[1]] ^ a[2])
            elif op == "slli":
                self._set(a[0], r[a[1]] << (a[2] & 31))
            elif op == "srli":
                self._set(a[0], r[a[1]] >> (a[2] & 31))
            elif op == "li":
                self._set(a[0], a[1])
            elif op == "mov":
                self._set(a[0], r[a[1]])
            elif op == "ldw":
                cycles += mem_extra
                self._set(a[0], self._load(self.memory, r[a[1]] + a[2], 4,
                                           "scratchpad"))
            elif op == "ldb":
                cycles += mem_extra
                self._set(a[0], self._load(self.memory, r[a[1]] + a[2], 1,
                                           "scratchpad"))
            elif op == "stw":
                cycles += mem_extra
                self._store(r[a[1]] + a[2], r[a[0]], 4)
            elif op == "stb":
                cycles += mem_extra
                self._store(r[a[1]] + a[2], r[a[0]], 1)
            elif op == "ldpw":
                cycles += mem_extra
                self._set(a[0], self._load(self.packet, r[a[1]] + a[2], 4,
                                           "packet"))
            elif op == "ldpb":
                cycles += mem_extra
                self._set(a[0], self._load(self.packet, r[a[1]] + a[2], 1,
                                           "packet"))
            elif op == "beq":
                if r[a[0]] == r[a[1]]:
                    pc = a[2]
            elif op == "bne":
                if r[a[0]] != r[a[1]]:
                    pc = a[2]
            elif op == "blt":
                if r[a[0]] < r[a[1]]:
                    pc = a[2]
            elif op == "bge":
                if r[a[0]] >= r[a[1]]:
                    pc = a[2]
            elif op == "beqz":
                if r[a[0]] == 0:
                    pc = a[1]
            elif op == "bnez":
                if r[a[0]] != 0:
                    pc = a[1]
            elif op == "jmp":
                pc = a[0]
            elif op.startswith("sc_"):
                cycles += 9  # +1 base above = the cost model's 10-cycle action
                simcalls.append((op, tuple(r[x] for x in a)))
            else:  # pragma: no cover - assembler prevents this
                raise VMError(f"unimplemented opcode {op}")
