"""Golden result corpus: every built-in scenario's ``--tiny`` result dict.

Each registered scenario runs its ``--tiny`` point in-process through
:func:`~repro.campaign.executor.run_one`; the sha256 of the result dict
(``json.dumps(result, sort_keys=True)``) must equal the pinned digest.
This is the behaviour gate for refactors below the scenario layer: a
change that claims to leave simulated results alone must leave every
digest here alone.  ``tests/des/test_golden_traces.py`` pins the same
runs' event traces.

A new built-in scenario must add its digest; a deliberate change to a
scenario's results must update its digest in the same change.
"""

import hashlib
import json

from repro.campaign.executor import run_one
from repro.campaign.registry import SCENARIO_MODULES, all_scenarios

GOLDEN = {
    "accumulate": "e2443a85f6fa736f5936781011f48e1160dabe517698309a45ed6b7de5ef4b8b",
    "apps_matching": "76259b4b0a2b3256670e89e2477602c6b380f2a3430ed9c5fb4a025f9e385ddd",
    "broadcast": "ae56f8d43754fe5533333281afd69efdbf5b4f095aaa5ba3d87aa6ad4e319450",
    "burst_under_flap": "54f92bf5524182cd5028f4a65e03c8468323cb06c0dc9c86f539e544ec7f679b",
    "bursting_load": "899ce5d7b1d11e39dd0f61bb5bb4a125883aa2d33a1c6e05d274ca7eb36b8db6",
    "congested_tenants": "8318bcb5aa4b9b1b2fb84f275c10c78bff4f4a27036dc85bac3383f7e00c215a",
    "datatype_recv": "0a773a9effc68ac9b6d1ef502d28c3769e7cdfa112662c9d641716233b4f5943",
    "ftbcast_faults": "8776473b71d4ef763ea124fa49de4604a37026736bba950ae0277f754660ae32",
    "incast_load": "1a861832c9727b3a499fdf9874cbf7c1daea11e8a448c1f0eeac4bc788a54bc9",
    "incast_transient": "473e4d0d79326042579b7cc5bedc3e28bcb25edd839b84bc524aeea41fbe77cc",
    "kv_serving": "f65e2b98e269a4cb6c53319cc93e4b77254f87d678a1662d1d5e93f135069140",
    "kvstore_insert": "55218e8b8fb0178d1dc8a3709b4cd7c23bcc774c2a97a604c015472c00bafd9b",
    "kvstore_load": "efc8a283b0a2bc11ef412bdef7c378b710267f4d7033339d8fbf42dfdc998c7e",
    "linerate": "1305f38f437777477d857fd4fa2ef1430058f61cebe34b38fb516f56ac43c8f2",
    "link_flap_recovery": "9cc844077b4eeba01895753d64b91b9b034d681cdac28e16c2f65385468c1566",
    "lossy_pingpong": "f346ce9a16f584b7d552660623bda28ed61eb3ce636999196f98c217a3a7af68",
    "mixed_tenants": "19f6347b0f6b88d0969312f52a884719e6fa9fc3f000ebcff96401a611373056",
    "permutation_traffic": "ebeed84f12defebe87c565de33cddfe36c5f202e85e63444417a607beb19ef08",
    "pingpong": "881da1745f38982791d78cc0ac4a31aa238bf36f0f3fbac329d6c3678334da66",
    "pingpong_open_load": "d0efaed24347b1d7fb18dcbc7a4fbbc6c00972c22f52793e8014e30be05a0aa3",
    "raid_update": "c5318927bc5ccf9e1629c5e97d59e34d53f8b1be2e312444781458163195891e",
    "replay_trace": "ee7130bf43747dc7fcfee8eb3847b809747e6ab9696c3d4659ae2732b82bc0c2",
    "spc_replay": "e456079bb4c65e39044714c877eabab27445cb7c93c596d2ced1b12454f5bbb4",
    "tenant_overload": "3fe919b816fffef89d2b2de9d07729c7bae532cbb6bbd69bd7a7dc40cefc997c",
}


def _builtin_scenarios() -> dict:
    # Test modules may register helper scenarios into the same registry;
    # the corpus covers exactly the scenarios the package ships.
    return {name: sc for name, sc in all_scenarios().items()
            if sc.fn.__module__ in SCENARIO_MODULES.values()}


def test_corpus_covers_every_builtin_scenario():
    assert set(_builtin_scenarios()) == set(GOLDEN)


def test_tiny_results_match_golden_digests(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "golden-corpus")
    mismatched = []
    for name, sc in _builtin_scenarios().items():
        result = run_one(name, dict(sc.tiny))
        digest = hashlib.sha256(
            json.dumps(result, sort_keys=True).encode()).hexdigest()
        if digest != GOLDEN.get(name):
            mismatched.append(name)
    assert not mismatched, f"result dicts changed: {mismatched}"
