"""Ambient observation: observe every session built inside a block.

Scenario runners build their own sessions internally, so caller code
never holds a :class:`~repro.sim.session.Session` to call
``attach_observer`` on.  :class:`ObsCapture` closes that gap with the
same ambient-hook pattern as :class:`~repro.perf.meter.KernelMeter`:
while the context is active, every ``Session`` constructed anywhere in
the process is forced to trace and gets an observer attached, collected
on the capture for export afterwards::

    from repro.obs import ObsCapture
    from repro.sim.scenarios import get_scenario

    with ObsCapture() as cap:
        result = get_scenario("incast_load").run({"fanin": 2, "count": 6})
    cap.export_trace("run.perfetto.json")
    report = cap.build_report(scenario="incast_load")

Forcing ``trace=True`` leaves the simulated behaviour byte-identical
(the golden-trace contract pins the span stream regardless of whether
anyone records it).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.obs.observer import ObsConfig, Observer

__all__ = ["ObsCapture"]


class ObsCapture:
    """Context manager installing the session-construction hook."""

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config or ObsConfig()
        #: One observer per session built under the context, build order.
        self.observers: list[Observer] = []
        self._active = False

    # -- context protocol --------------------------------------------------
    def __enter__(self) -> "ObsCapture":
        from repro.sim import session as session_mod
        if session_mod._OBS_HOOK is not None:
            raise RuntimeError("an ObsCapture is already active")
        session_mod._OBS_HOOK = self
        self._active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        from repro.sim import session as session_mod
        if session_mod._OBS_HOOK is self:
            session_mod._OBS_HOOK = None
        self._active = False

    # -- Session construction hook (see repro.sim.session._OBS_HOOK) -------
    def prepare(self, spec):
        """Pre-build: force the spec to trace (observers need spans)."""
        if getattr(spec, "trace", False):
            return spec
        return replace(spec, trace=True)

    def attach(self, session) -> None:
        """Post-build: arm an observer on the new session and keep it."""
        self.observers.append(session.attach_observer(self.config))

    # -- exports -----------------------------------------------------------
    def export_trace(self, path=None) -> str:
        """Perfetto trace JSON over every captured session."""
        if not self.observers:
            raise ValueError("no sessions were built under this capture")
        from repro.obs.perfetto import trace_events, trace_json
        text = trace_json(trace_events(self.observers))
        if path is not None:
            from pathlib import Path
            Path(path).write_text(text + "\n")
        return text

    def build_report(self, **kwargs) -> dict:
        """Telemetry report over every captured session."""
        if not self.observers:
            raise ValueError("no sessions were built under this capture")
        from repro.obs.report import build_report
        return build_report(self.observers, **kwargs)
