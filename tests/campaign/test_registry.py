"""The scenario index: ``SCENARIO_MODULES`` says which module registers
each built-in scenario, so ``get_scenario`` imports just that module.

The index is hand-kept, so these tests guard it against drift: every
indexed module registers exactly the names the index maps to it, an
unknown name still lists every built-in, and a user scenario that
reuses a built-in name still clashes whichever registers first.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.campaign.registry import (
    SCENARIO_MODULES,
    Scenario,
    ScenarioError,
    get_scenario,
    register,
)

SRC = Path(repro.__file__).resolve().parents[1]


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True,
                          timeout=300)


def test_each_indexed_module_registers_exactly_its_indexed_names():
    # A fresh interpreter, so each import really runs its decorators.
    proc = _run("""
        import importlib
        from repro.campaign.registry import SCENARIO_MODULES, _REGISTRY
        for mod in dict.fromkeys(SCENARIO_MODULES.values()):
            importlib.import_module(mod)
            registered = {n for n, sc in _REGISTRY.items()
                          if sc.fn.__module__ == mod}
            indexed = {n for n, m in SCENARIO_MODULES.items() if m == mod}
            assert registered == indexed, (mod, registered ^ indexed)
        assert set(_REGISTRY) == set(SCENARIO_MODULES), \\
            set(_REGISTRY) ^ set(SCENARIO_MODULES)
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_unknown_name_lists_every_builtin():
    with pytest.raises(ScenarioError, match="unknown scenario 'nope'") as exc:
        get_scenario("nope")
    known = str(exc.value).split("known: ", 1)[1].split(", ")
    assert set(SCENARIO_MODULES) <= set(known)


def _impostor() -> dict:
    return {}


def test_registering_a_builtin_name_clashes():
    get_scenario("pingpong")
    with pytest.raises(ScenarioError, match="already registered by "
                                            "repro.experiments.pingpong"):
        register(Scenario(name="pingpong", fn=_impostor, params=()))
    assert get_scenario("pingpong").fn.__module__ == \
        "repro.experiments.pingpong"


def test_user_scenario_registered_first_still_clashes():
    """``get_scenario`` imports the built-in module even though the name is
    already registered, so the clash surfaces instead of the impostor."""
    proc = _run("""
        from repro.campaign.registry import (
            Scenario, ScenarioError, get_scenario, register)
        register(Scenario(name="pingpong", fn=lambda: {}, params=()))
        try:
            get_scenario("pingpong")
        except ScenarioError as exc:
            assert "already registered by __main__" in str(exc), exc
        else:
            raise AssertionError("clash with a built-in name went unnoticed")
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr
