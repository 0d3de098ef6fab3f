"""Shared experiment scaffolding (thin wrappers over :mod:`repro.sim`)."""

from __future__ import annotations

from typing import Optional

from repro.machine.config import (
    CROSS_POD_LATENCY_PS,
    MachineConfig,
    config_by_name,
)
from repro.sim.session import ClusterSpec, Session

__all__ = ["config_by_name", "pair_session", "CROSS_POD_LATENCY_PS"]


def pair_session(
    config: MachineConfig | str,
    nprocs: int = 2,
    trace: bool = False,
    with_memory: bool = True,
    latency_ps: Optional[int] = None,
) -> Session:
    """A session whose endpoint pairs sit cross-pod (worst case L).

    Routed through the session reuse pool: memory-less, trace-less specs
    (the microbenchmark shape) are rewound and reused across calls instead
    of rebuilt.  Callers that want to opt in should ``sess.release()``
    when done; everything else just works — an unpoolable spec builds
    fresh as before.
    """
    return Session.checkout(ClusterSpec(
        nodes=nprocs,
        config=config,
        nic="spin",
        topology="pair",
        latency_ps=latency_ps,
        trace=trace,
        with_memory=with_memory,
    ))

