"""Import budget: the simulation path never loads networkx.

networkx is a test-side dependency (the fat-tree cross-validation and the
SSSP ground truth) and is not in ``install_requires``.  Each test runs a
fresh interpreter, imports the campaign layer, loads the built-in
registry and runs ``--tiny`` points, then checks which modules were
loaded.  A module count is exact on any host, unlike an import timing.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, REPRO_CODE_VERSION="import-budget")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True,
                          timeout=300)


def test_tiny_runs_work_without_networkx_installed():
    """A plain ``pip install -e .`` (no extras) runs the CLI's jobs."""
    proc = _run("""
        import sys
        sys.modules["networkx"] = None  # `import networkx` now raises
        import repro.campaign as campaign
        from repro.campaign.executor import run_one
        campaign.load_builtins()
        for name in ("pingpong", "incast_load", "kv_serving"):
            run_one(name, dict(campaign.get_scenario(name).tiny))
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_no_builtin_tiny_run_imports_networkx():
    proc = _run("""
        import sys
        import repro.campaign as campaign
        from repro.campaign.executor import run_one
        from repro.campaign.registry import BUILTIN_SCENARIO_MODULES
        campaign.load_builtins()
        assert "networkx" not in sys.modules, "load_builtins"
        for name, sc in campaign.all_scenarios().items():
            if sc.fn.__module__ in BUILTIN_SCENARIO_MODULES:
                run_one(name, dict(sc.tiny))
                assert "networkx" not in sys.modules, name
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr
