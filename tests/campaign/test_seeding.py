"""The executor's seeding contract: every job starts from its own seed.

A job sees ``random`` and ``numpy.random`` seeded from its planner seed,
whether numpy was loaded before the job, is first imported by the job,
or the job runs in a forked worker.  Each case runs in a fresh
interpreter so "numpy not yet imported" is real.
"""

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = """
    import json, random, sys
    if {preimport}:
        import numpy
    from repro.campaign.executor import run_jobs
    from repro.campaign.planner import plan_points
    from repro.campaign.registry import Param, scenario

    @scenario("_test_numpy_draw", params=[
        Param("use_numpy", bool, default=True),
        Param("seed", int, default=1),
    ], description="test helper: one draw from each global RNG")
    def _draw(use_numpy: bool, seed: int) -> dict:
        out = {{"random": random.random()}}
        if use_numpy:
            import numpy as np
            out["numpy"] = np.random.random()
        return out

    jobs = plan_points("_test_numpy_draw", [
        {{"use_numpy": False, "seed": 1}},
        {{"use_numpy": True, "seed": 2}},
        {{"use_numpy": True, "seed": 3}},
    ])
    loaded = "numpy" in sys.modules
    parallel = run_jobs(jobs, workers=2).results()
    serial = run_jobs(jobs).results()
    print(json.dumps({{"loaded": loaded, "seeds": [j.seed for j in jobs],
                      "serial": serial, "parallel": parallel}}))
"""


def _run(preimport: bool) -> dict:
    env = dict(os.environ, REPRO_CODE_VERSION="seeding")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    script = textwrap.dedent(SCRIPT.format(preimport=preimport))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("preimport", [False, True])
def test_each_job_sees_its_own_seed(preimport):
    out = _run(preimport)
    assert out["loaded"] is preimport
    expected = []
    for seed, use_numpy in zip(out["seeds"], (False, True, True)):
        draw = {"random": random.Random(seed).random()}
        if use_numpy:
            draw["numpy"] = np.random.RandomState(seed % 2**32).random_sample()
        expected.append(draw)
    assert out["serial"] == expected
    assert out["parallel"] == out["serial"]
