"""Scenario registry: every experiment registers a typed parameter space.

A *scenario* is a named, parameterised simulation entry point.  Modules
under :mod:`repro.experiments`, :mod:`repro.usecases`, :mod:`repro.storage`
and :mod:`repro.apps` register themselves with the :func:`scenario`
decorator; the sweep planner and campaign executor then discover them by
name, validate and coerce parameter values against the declared
:class:`Param` specs, and expand grids into jobs.

This module deliberately imports nothing from the rest of ``repro`` so the
experiment modules can import it without cycles.  :data:`SCENARIO_MODULES`
indexes each built-in scenario by the module that registers it, so
:func:`get_scenario` imports just that one module: a cold
``campaign run`` loads only the scenario it runs.  :func:`load_builtins`
(and with it :func:`all_scenarios`) imports every indexed module.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

__all__ = [
    "Param",
    "SCENARIO_MODULES",
    "Scenario",
    "ScenarioError",
    "all_scenarios",
    "get_scenario",
    "load_builtins",
    "register",
    "scenario",
]

#: Built-in scenario name -> the module whose import registers it.  Kept
#: as strings so the registry stays import-cycle free; add an entry when a
#: module grows a scenario (``tests/campaign/test_registry.py`` checks the
#: index against what each module really registers).
SCENARIO_MODULES: dict[str, str] = {
    "pingpong": "repro.experiments.pingpong",
    "accumulate": "repro.experiments.accumulate",
    "broadcast": "repro.experiments.broadcast",
    "datatype_recv": "repro.experiments.datatype_recv",
    "raid_update": "repro.experiments.raid_update",
    "linerate": "repro.experiments.littles_law",
    "spc_replay": "repro.storage.spc",
    "apps_matching": "repro.apps.simulator",
    "kvstore_insert": "repro.usecases.kvstore",
    "pingpong_open_load": "repro.sim.scenarios",
    "kvstore_load": "repro.sim.scenarios",
    "mixed_tenants": "repro.sim.scenarios",
    "incast_load": "repro.sim.scenarios",
    "permutation_traffic": "repro.sim.scenarios",
    "congested_tenants": "repro.sim.scenarios",
    "kv_serving": "repro.sim.serving",
    "tenant_overload": "repro.sim.serving",
    "lossy_pingpong": "repro.faults.scenarios",
    "link_flap_recovery": "repro.faults.scenarios",
    "ftbcast_faults": "repro.faults.scenarios",
    "incast_transient": "repro.traffic.scenarios",
    "bursting_load": "repro.traffic.scenarios",
    "burst_under_flap": "repro.traffic.scenarios",
    "replay_trace": "repro.traffic.scenarios",
}


class ScenarioError(Exception):
    """Unknown scenario, bad parameter name, or an un-coercible value."""


@dataclass(frozen=True)
class Param:
    """One typed parameter of a scenario's parameter space."""

    name: str
    type: type
    default: Any = None
    choices: Optional[tuple] = None
    help: str = ""

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` (possibly a CLI string) to this param's type."""
        if isinstance(value, str) and self.type is not str:
            try:
                if self.type is bool:
                    lowered = value.lower()
                    if lowered in ("1", "true", "yes", "on"):
                        value = True
                    elif lowered in ("0", "false", "no", "off"):
                        value = False
                    else:
                        raise ValueError(value)
                else:
                    value = self.type(value)
            except ValueError as exc:
                raise ScenarioError(
                    f"param {self.name!r}: cannot parse {value!r} as "
                    f"{self.type.__name__}"
                ) from exc
        if not isinstance(value, self.type):
            # Allow int-where-float (JSON round trips drop the distinction).
            if self.type is float and isinstance(value, int):
                value = float(value)
            else:
                raise ScenarioError(
                    f"param {self.name!r}: expected {self.type.__name__}, "
                    f"got {type(value).__name__} ({value!r})"
                )
        if self.choices is not None and value not in self.choices:
            raise ScenarioError(
                f"param {self.name!r}: {value!r} not in {self.choices}"
            )
        return value


@dataclass(frozen=True)
class Scenario:
    """A registered simulation entry point plus its typed parameter space."""

    name: str
    fn: Callable[..., dict]
    params: tuple[Param, ...]
    description: str = ""
    #: Parameter overrides for a fast smoke run (``--tiny``).
    tiny: Mapping[str, Any] = field(default_factory=dict)
    #: Default sweep grid: param name → tuple of values.
    sweep: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    tags: tuple[str, ...] = ()

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise ScenarioError(f"scenario {self.name!r} has no param {name!r}")

    def resolve(self, overrides: Optional[Mapping[str, Any]] = None) -> dict:
        """Full, validated parameter dict: defaults + coerced overrides."""
        overrides = dict(overrides or {})
        resolved = {}
        for p in self.params:
            if p.name in overrides:
                resolved[p.name] = p.coerce(overrides.pop(p.name))
            elif p.default is not None or p.type is type(None):
                resolved[p.name] = p.default
            else:
                raise ScenarioError(
                    f"scenario {self.name!r}: param {p.name!r} has no "
                    f"default and was not provided"
                )
        if overrides:
            raise ScenarioError(
                f"scenario {self.name!r}: unknown params {sorted(overrides)}"
            )
        return resolved

    def run(self, overrides: Optional[Mapping[str, Any]] = None) -> dict:
        """Resolve parameters and execute the scenario in-process."""
        return self.fn(**self.resolve(overrides))


_REGISTRY: dict[str, Scenario] = {}
_BUILTINS_LOADED = False


def register(sc: Scenario) -> Scenario:
    """Register a scenario (idempotent re-registration of the same module)."""
    existing = _REGISTRY.get(sc.name)
    if existing is not None and existing.fn.__module__ != sc.fn.__module__:
        raise ScenarioError(
            f"scenario name {sc.name!r} already registered by "
            f"{existing.fn.__module__}"
        )
    _REGISTRY[sc.name] = sc
    return sc


def scenario(
    name: str,
    params: Sequence[Param],
    description: str = "",
    tiny: Optional[Mapping[str, Any]] = None,
    sweep: Optional[Mapping[str, Sequence[Any]]] = None,
    tags: Sequence[str] = (),
) -> Callable:
    """Decorator: register the wrapped function as a campaign scenario.

    The function must accept the declared params as keyword arguments and
    return a JSON-serialisable dict of result values.
    """

    def deco(fn: Callable[..., dict]) -> Callable[..., dict]:
        doc_first_line = next(iter((fn.__doc__ or "").strip().splitlines()), "")
        register(Scenario(
            name=name,
            fn=fn,
            params=tuple(params),
            description=description or doc_first_line,
            tiny=dict(tiny or {}),
            sweep={k: tuple(v) for k, v in (sweep or {}).items()},
            tags=tuple(tags),
        ))
        return fn

    return deco


def load_builtins() -> None:
    """Import every module known to register scenarios (once per process)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    for modname in SCENARIO_MODULES.values():
        importlib.import_module(modname)
    _BUILTINS_LOADED = True


def get_scenario(name: str) -> Scenario:
    """The scenario registered as ``name``.

    A built-in name imports only its own module, even when the name is
    already registered, so a clash with a user scenario of the same name
    still raises; any other name loads every built-in first, so an
    unknown name lists them all.
    """
    modname = SCENARIO_MODULES.get(name)
    if modname is None:
        load_builtins()
    else:
        importlib.import_module(modname)
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ScenarioError(
            f"unknown scenario {name!r}; known: {known}"
        ) from None


def all_scenarios() -> dict[str, Scenario]:
    load_builtins()
    return dict(sorted(_REGISTRY.items()))
