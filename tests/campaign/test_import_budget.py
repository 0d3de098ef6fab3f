"""Import budget: the simulation path never loads networkx, loads numpy
only in runs that move payload bytes, and a cold serial ``campaign run``
loads only its own scenario module and no multiprocessing.

networkx is a test-side dependency (the fat-tree cross-validation and the
SSSP ground truth) and is not in ``install_requires``.  numpy is a hard
dependency, but it is imported only where real bytes are built, copied or
checked, so a modelled run or a cached replay never pays for it.  Each
test runs a fresh interpreter, imports the campaign layer, loads the
built-in registry and runs ``--tiny`` points, then checks which modules
were loaded.  A module count is exact on any host, unlike an import
timing.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]


#: Built-in scenarios whose ``--tiny`` run loads numpy: the KV store
#: inserts real key/value bytes, the RAID update writes and verifies real
#: blocks, and the SPC replay draws its synthetic trace from numpy's
#: generator.  pingpong's spin_store mode is not here: a payload-free ping
#: gets a payload-free pong and never touches the HPU byte arena.
NUMPY_SCENARIOS = ("kvstore_insert", "raid_update", "spc_replay")


def _run(script: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, REPRO_CODE_VERSION="import-budget")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True,
                          timeout=300, cwd=cwd)


def test_tiny_runs_work_without_networkx_installed():
    """A plain ``pip install -e .`` (no extras) runs the CLI's jobs."""
    proc = _run("""
        import sys
        sys.modules["networkx"] = None  # `import networkx` now raises
        import repro.campaign as campaign
        from repro.campaign import plan_points, run_jobs
        campaign.load_builtins()
        for name in ("pingpong", "incast_load", "kv_serving"):
            run_jobs(plan_points(name, [dict(campaign.get_scenario(name).tiny)]))
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_no_builtin_tiny_run_imports_networkx():
    proc = _run("""
        import sys
        import repro.campaign as campaign
        from repro.campaign import plan_points, run_jobs
        from repro.campaign.registry import SCENARIO_MODULES
        campaign.load_builtins()
        assert "networkx" not in sys.modules, "load_builtins"
        for name, sc in campaign.all_scenarios().items():
            if sc.fn.__module__ in SCENARIO_MODULES.values():
                run_jobs(plan_points(name, [dict(sc.tiny)]))
                assert "networkx" not in sys.modules, name
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_only_byte_moving_tiny_runs_import_numpy():
    proc = _run(f"""
        import sys
        import repro.campaign as campaign
        from repro.campaign import plan_points, run_jobs
        from repro.campaign.registry import SCENARIO_MODULES
        campaign.load_builtins()
        assert "numpy" not in sys.modules, "load_builtins"
        builtins = [name for name, sc in campaign.all_scenarios().items()
                    if sc.fn.__module__ in SCENARIO_MODULES.values()]
        allowed = {NUMPY_SCENARIOS!r}
        assert set(allowed) <= set(builtins), allowed
        for name in builtins:
            if name not in allowed:
                run_jobs(plan_points(name, [dict(campaign.get_scenario(name).tiny)]))
                assert "numpy" not in sys.modules, name
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_executed_cli_run_loads_only_its_scenario_module(tmp_path):
    """A cold serial ``campaign run pingpong`` imports one scenario module,
    and neither numpy (the job moves no bytes) nor multiprocessing."""
    proc = _run("""
        import sys
        from repro.campaign.__main__ import main
        from repro.campaign.registry import SCENARIO_MODULES
        assert main(["run", "pingpong", "--tiny", "--no-cache"]) == 0
        loaded = sorted(set(sys.modules) & set(SCENARIO_MODULES.values()))
        assert loaded == ["repro.experiments.pingpong"], loaded
        assert "numpy" not in sys.modules, "numpy"
        assert "multiprocessing" not in sys.modules, "multiprocessing"
    """, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 executed, 0 cached" in proc.stdout


def test_cached_cli_replay_does_not_import_numpy(tmp_path):
    script = """
        import sys
        from repro.campaign.__main__ import main
        assert main(["run", "pingpong", "--tiny"]) == 0
        print("numpy" in sys.modules)
    """
    first = _run(script, cwd=tmp_path)
    assert first.returncode == 0, first.stdout + first.stderr
    assert "1 executed, 0 cached" in first.stdout
    replay = _run(script, cwd=tmp_path)
    assert replay.returncode == 0, replay.stdout + replay.stderr
    assert "0 executed, 1 cached" in replay.stdout
    assert replay.stdout.splitlines()[-1] == "False", replay.stdout
