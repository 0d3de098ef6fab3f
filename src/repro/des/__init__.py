"""Discrete-event simulation kernel.

A small, dependency-free, generator-based discrete-event engine in the style
of SimPy, purpose-built for the sPIN reproduction.  Simulated processes are
Python generators that ``yield`` events (timeouts, resource requests, other
processes); the :class:`~repro.des.engine.Environment` steps the global event
queue in timestamp order.

The kernel carries only what the model calls (see
:mod:`repro.des.engine`); contention points are in
:mod:`repro.des.resources`, where a :class:`~repro.des.resources.Server` is
a capacity-1 :class:`~repro.des.resources.Resource` that also keeps
service accounting.

Time is kept internally in integer **picoseconds** so that long simulations
never accumulate floating-point drift; the helpers :func:`~repro.des.engine.ns`
and :func:`~repro.des.engine.us` convert from the nanosecond/microsecond
quantities used throughout the paper.
"""

from repro.des.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
    ns,
    ps_to_ns,
    ps_to_us,
    us,
)
from repro.des.resources import RateLimiter, Resource, Server, Store
from repro.des.trace import Span, Timeline, render_timeline

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "RateLimiter",
    "Resource",
    "Server",
    "SimulationError",
    "Span",
    "Store",
    "Timeline",
    "Timeout",
    "ns",
    "ps_to_ns",
    "ps_to_us",
    "render_timeline",
    "us",
]
