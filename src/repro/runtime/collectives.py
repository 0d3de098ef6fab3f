"""Collective communication schedules for the application traces.

The NIC-level broadcast protocols live in
:mod:`repro.experiments.broadcast`; this module provides the allreduce
schedule :mod:`repro.apps.tracegen` lays its traces out with.
"""

from __future__ import annotations

import math

__all__ = ["recursive_doubling_rounds"]


def recursive_doubling_rounds(nprocs: int) -> list[list[tuple[int, int]]]:
    """Allreduce via recursive doubling: per-round peer exchange pairs.

    For power-of-two P: log2(P) rounds; round k pairs rank r with r XOR
    2^k.  Non-power-of-two falls back to the nearest lower power with a
    fold-in/fold-out round (the classic MPICH scheme, simplified to full
    exchanges for the trace generator's purposes).
    """
    rounds: list[list[tuple[int, int]]] = []
    pow2 = 1 << int(math.log2(nprocs)) if nprocs > 1 else 1
    if pow2 != nprocs:
        # Fold the stragglers into the power-of-two core.
        rounds.append([(r, r - pow2) for r in range(pow2, nprocs)])
    k = 1
    while k < pow2:
        pairs = []
        for r in range(pow2):
            peer = r ^ k
            if r < peer:
                pairs.append((r, peer))
        rounds.append(pairs)
        k <<= 1
    if pow2 != nprocs:
        rounds.append([(r - pow2, r) for r in range(pow2, nprocs)])
    return rounds
