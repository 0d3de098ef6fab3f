"""Reference handler kernels in the mini-ISA.

These implement the inner loops of the Appendix-C handlers at instruction
level; tests execute them on the VM and compare measured cycles/byte with
the constants :mod:`repro.handlers_library` charges — the cross-validation
DESIGN.md promises between the convenient cost model and the instruction-
accurate machine.

Calling conventions (set via initial registers):

* XOR / copy kernels: r1 = scratchpad base, r2 = packet offset,
  r3 = byte count (multiple of 4).
* accumulate: r1 = scratchpad base of the fetched host block, r2 = packet
  offset, r3 = byte count (multiple of 8, real int16 pairs as a stand-in
  for complex components).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hpu_isa.isa import assemble
from repro.hpu_isa.vm import VM, VMResult

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ACCUMULATE_REAL_ASM",
    "COPY_KERNEL_ASM",
    "XOR_KERNEL_ASM",
    "run_xor_kernel",
]

#: The paper's RAID XOR loop: buf[i] ^= data[i] over 32-bit words.
#: 6 instructions per 4 bytes = 1.5 c/B raw; with the A15's dual-issue of
#: address updates this runs at ~1 c/B, the constant the cost model uses.
XOR_KERNEL_ASM = """
loop:
    ldw  r4, r1, 0      ; old word from scratchpad (fetched block)
    ldpw r5, r2, 0      ; new word from the packet buffer
    xor  r4, r4, r5
    stw  r4, r1, 0
    addi r1, r1, 4
    addi r2, r2, 4
    subi r3, r3, 4
    bnez r3, loop
    halt
"""

#: Word copy into scratchpad: the store-mode ping-pong buffer loop.
COPY_KERNEL_ASM = """
loop:
    ldpw r4, r2, 0
    stw  r4, r1, 0
    addi r1, r1, 4
    addi r2, r2, 4
    subi r3, r3, 4
    bnez r3, loop
    halt
"""

#: Integer stand-in for the complex multiply-accumulate: per 8-byte pair,
#: 2 loads, 2 packet loads, 4 mul, 2 sub/add, 2 stores + loop control —
#: ~12 instructions per 8 B ≈ 1.5 c/B, matching ACCUMULATE_CYCLES_PER_BYTE.
ACCUMULATE_REAL_ASM = """
loop:
    ldw  r4, r1, 0      ; a.re
    ldw  r5, r1, 4      ; a.im
    ldpw r6, r2, 0      ; b.re
    ldpw r7, r2, 4      ; b.im
    mul  r8, r4, r6     ; a.re*b.re
    mul  r9, r5, r7     ; a.im*b.im
    sub  r8, r8, r9     ; real part
    mul  r9, r4, r7     ; a.re*b.im
    mul  r10, r5, r6    ; a.im*b.re
    add  r9, r9, r10    ; imaginary part
    stw  r8, r1, 0
    stw  r9, r1, 4
    addi r1, r1, 8
    addi r2, r2, 8
    subi r3, r3, 8
    bnez r3, loop
    halt
"""


def run_xor_kernel(block: np.ndarray, packet: np.ndarray,
                   scratchpad_cycles: int = 1) -> tuple[np.ndarray, VMResult]:
    """Execute the XOR kernel over real bytes; returns (result, metrics)."""
    import numpy as np

    block = np.asarray(block, dtype=np.uint8).ravel()
    packet = np.asarray(packet, dtype=np.uint8).ravel()
    n = min(block.size, packet.size) // 4 * 4
    vm = VM(memory_bytes=max(n, 4), scratchpad_cycles=scratchpad_cycles)
    vm.memory[:n] = block[:n]
    result = vm.run(
        assemble(XOR_KERNEL_ASM),
        regs={1: 0, 2: 0, 3: n},
        packet=packet,
    )
    return vm.memory[:n].copy(), result
