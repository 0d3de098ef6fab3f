"""Kernel event metering.

A :class:`KernelMeter` hooks :mod:`repro.des.engine` so every
:class:`~repro.des.engine.Environment` created while the meter is active
registers itself; at exit the meter sums each environment's scheduled-event
counter.  This measures *kernel events per second* without threading the
environment through every scenario API — scenarios keep returning plain
result dicts.

"Kernel events" are heap entries pushed onto the event queue (timeouts,
process resumptions, fire-and-forget callbacks).  The simulation is
deterministic, so counts are exact and comparable across code versions.
"""

from __future__ import annotations

import time

from repro.des import engine as _engine

__all__ = ["KernelMeter"]


class KernelMeter:
    """Context manager: count kernel events scheduled inside the window.

    Usage::

        with KernelMeter() as meter:
            run_scenario(...)
        print(meter.events, meter.wall_s, meter.events_per_sec)

    Nested meters raise, so basket items cannot double-count each other.
    """

    def __init__(self) -> None:
        self._envs: list = []
        self.events: int = 0
        self.environments: int = 0
        self.wall_s: float = 0.0
        self._t0: float = 0.0

    def register(self, env) -> None:
        """Called by ``Environment.__init__`` while this meter is installed.

        Every session builds its own environment, so each one registers
        exactly once, at construction.
        """
        self._envs.append(env)

    def __enter__(self) -> "KernelMeter":
        if _engine._METER is not None:
            raise RuntimeError("another KernelMeter is already active")
        _engine._METER = self
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        _engine._METER = None
        self.events = sum(env._seq for env in self._envs)
        self.environments = len(self._envs)
        self._envs.clear()

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def stats(self) -> dict:
        """JSON-ready measurement snapshot (telemetry reports).

        Only meaningful after the metered window closed; inside the
        window the totals have not been summed yet.
        """
        return {
            "events": self.events,
            "environments": self.environments,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
        }
