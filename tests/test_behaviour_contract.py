"""Behaviour contract: one pinned run per scenario point.

The simulation is deterministic, so one observed, metered run of a
scenario point yields four exact values, pinned together in
:data:`CONTRACT`:

* **result** — sha256 of the result dict (``json.dumps(result,
  sort_keys=True)``), the gate for refactors below the scenario layer;
* **trace** — every session's ``Timeline.canonical_bytes()`` hashed and
  the per-session digests folded, in build order, into one sha256
  (``None`` when the point builds no session).  A change that shifts every
  timestamp by the same amount moves it, which a run-vs-run comparison
  cannot see;
* **kernel_events** and **environments** — what a
  :class:`~repro.perf.meter.KernelMeter` counts over the run: the host-free
  cost of the point.

A point is a scenario plus its params: ``"<scenario> --tiny"`` is the
scenario's built-in ``--tiny`` point, ``"<scenario> k=v ..."`` the explicit
params ``python -m repro.campaign run <scenario> -p k=v ...`` runs.  Every
built-in scenario has its ``--tiny`` point; the rest cover load profiles
the ``--tiny`` points are too small to reach.

A new built-in scenario adds its ``--tiny`` point.  A change that moves a
pin on purpose updates it here and says why; the gate names every point
and field that moved.

Other modules check one facet each of the same runs, shared through the
``contract_measured`` fixture (``tests/conftest.py``): the ``--tiny``
result digests and scenario coverage (``tests/campaign/test_golden_corpus.py``),
the ``--tiny`` trace digests and which scenarios trace
(``tests/des/test_golden_traces.py``), and the load-profile event counts
summed per profile (``tests/perf/test_perf.py``).
"""

import hashlib
import json

from repro.campaign.executor import run_observed
from repro.campaign.planner import plan_points
from repro.campaign.registry import SCENARIO_MODULES, all_scenarios, get_scenario
from repro.machine import config as config_mod
from repro.obs import ObsCapture
from repro.perf.meter import KernelMeter

FIELDS = ("result", "trace", "kernel_events", "environments")

#: point -> (result sha256, trace sha256 or None, kernel_events, environments)
CONTRACT = {
    "accumulate --tiny": (
        "e2443a85f6fa736f5936781011f48e1160dabe517698309a45ed6b7de5ef4b8b",
        "34ad7ceb05ecd3ffefd6fe8ff2502dcbe8e4a977a987d92d4cc971ad9b35416c",
        27, 1),
    "apps_matching --tiny": (
        "76259b4b0a2b3256670e89e2477602c6b380f2a3430ed9c5fb4a025f9e385ddd",
        None,
        3926, 2),
    "broadcast --tiny": (
        "ae56f8d43754fe5533333281afd69efdbf5b4f095aaa5ba3d87aa6ad4e319450",
        "87ac602c5b833ff84fe68493b7f43c6b82c7f9fd278855349e018280002cce57",
        72, 1),
    "burst_under_flap --tiny": (
        "54f92bf5524182cd5028f4a65e03c8468323cb06c0dc9c86f539e544ec7f679b",
        "5febe8231dcca6f3563a7f8cea65fa68d7754dd813064c3ccbeddeaf51ac0284",
        514, 1),
    "bursting_load --tiny": (
        "899ce5d7b1d11e39dd0f61bb5bb4a125883aa2d33a1c6e05d274ca7eb36b8db6",
        "3618af4411607687f020fdb3b9f9e85e35291d69b220b08226c02581f163cacb",
        1204, 1),
    "congested_tenants --tiny": (
        "8318bcb5aa4b9b1b2fb84f275c10c78bff4f4a27036dc85bac3383f7e00c215a",
        "a569ea81ef45e31a6f8f1765b86cc164837685de4957e15958e34cbfc5496b85",
        807, 1),
    "datatype_recv --tiny": (
        "0a773a9effc68ac9b6d1ef502d28c3769e7cdfa112662c9d641716233b4f5943",
        "b687231066913e0442b1c63436a8f17594558c2901d69e2a10e98b01f1b48478",
        400, 1),
    "ftbcast_faults --tiny": (
        "8776473b71d4ef763ea124fa49de4604a37026736bba950ae0277f754660ae32",
        "0ef3a377639c130ec02fe95bb0026997368e8c04be2fe889b518d143b60ea079",
        364, 1),
    "incast_load --tiny": (
        "1a861832c9727b3a499fdf9874cbf7c1daea11e8a448c1f0eeac4bc788a54bc9",
        "138b6aaaed7da93e92e8815f4fe9a18d4550fe84826ff7cc0ff3a4d828d499aa",
        355, 1),
    "incast_transient --tiny": (
        "473e4d0d79326042579b7cc5bedc3e28bcb25edd839b84bc524aeea41fbe77cc",
        "0483b594090039a1f684fcf06b9f72d18fb125728a93a7226604242f796f182c",
        1145, 1),
    "kv_serving --tiny": (
        "f65e2b98e269a4cb6c53319cc93e4b77254f87d678a1662d1d5e93f135069140",
        "b6ce04a8564761ff473dbef380d20a26089acb291f83928c177e493bd619c0f5",
        29667, 1),
    "kvstore_insert --tiny": (
        "55218e8b8fb0178d1dc8a3709b4cd7c23bcc774c2a97a604c015472c00bafd9b",
        "aabd39be4136a6525023edae4a1bc8aae897a816cf5b3e745c229011ae44a1e2",
        106, 1),
    "kvstore_load --tiny": (
        "efc8a283b0a2bc11ef412bdef7c378b710267f4d7033339d8fbf42dfdc998c7e",
        "b92b9afd37c8345aa921fb29bc9105eef8a023719bc045463647194f3834538c",
        173, 1),
    "linerate --tiny": (
        "1305f38f437777477d857fd4fa2ef1430058f61cebe34b38fb516f56ac43c8f2",
        None,
        0, 0),
    "link_flap_recovery --tiny": (
        "9cc844077b4eeba01895753d64b91b9b034d681cdac28e16c2f65385468c1566",
        "854706516b41ea8a4c8c45dc20bd6231a22faa15168c9fd1d2e89317f9950369",
        602, 1),
    "lossy_pingpong --tiny": (
        "f346ce9a16f584b7d552660623bda28ed61eb3ce636999196f98c217a3a7af68",
        "943cba99f891255d3cdf28ce6baa2dc70c03e0455228f850af97af46f63ea50f",
        573, 1),
    "mixed_tenants --tiny": (
        "19f6347b0f6b88d0969312f52a884719e6fa9fc3f000ebcff96401a611373056",
        "49c677fdb1ebb6c08cdc00830f37935c6ff122e26fd1fcbf10531580d0b4a184",
        396, 1),
    "permutation_traffic --tiny": (
        "ebeed84f12defebe87c565de33cddfe36c5f202e85e63444417a607beb19ef08",
        "6121652490c1bd3e982dc185cd152f6bce19b2ea2c663d32bef9ddf11ac514f7",
        3243, 1),
    "pingpong --tiny": (
        "881da1745f38982791d78cc0ac4a31aa238bf36f0f3fbac329d6c3678334da66",
        "a8d5443e57facfe0b479dca0986c4765410561e868ec0340a0d3362301ea1f06",
        29, 1),
    "pingpong_open_load --tiny": (
        "d0efaed24347b1d7fb18dcbc7a4fbbc6c00972c22f52793e8014e30be05a0aa3",
        "dedc90af6eeddb8250ed6e82794bea00d0604c3894e0f44dfd4030a4944092d5",
        420, 1),
    "raid_update --tiny": (
        "c5318927bc5ccf9e1629c5e97d59e34d53f8b1be2e312444781458163195891e",
        None,
        271, 1),
    "replay_trace --tiny": (
        "ee7130bf43747dc7fcfee8eb3847b809747e6ab9696c3d4659ae2732b82bc0c2",
        "778b29c9f34d8bb46b9f1b345554f4fd599aa024617559b4d67ff452948ff808",
        854, 2),
    "spc_replay --tiny": (
        "e456079bb4c65e39044714c877eabab27445cb7c93c596d2ced1b12454f5bbb4",
        None,
        1871, 1),
    "tenant_overload --tiny": (
        "3fe919b816fffef89d2b2de9d07729c7bae532cbb6bbd69bd7a7dc40cefc997c",
        "48fc327f4072f32f77c1a0bb16791750d0be3f37df87fc238783f67e64a17b40",
        24432, 1),
    # -- load profiles beyond the --tiny points ---------------------------
    # Message-rate-bound pingpongs: 64 B over every protocol (the
    # spin_store one is the --tiny point above).
    "pingpong size=64 mode=rdma": (
        "4b4bcae8f51211006a094a8ddaefc66f5939f2aec15d438541dfa1c912276f5a",
        "b8c2288e15bf17e6a3920e988bfbe13a242bfa4ce1956c5cd4923544b5d7614b",
        30, 1),
    "pingpong size=64 mode=p4": (
        "ea7d77a0f34c81df9443141dd1365f7695b163ed9f82512464ae47bc8090aeb8",
        "8ba2a05e6299fbcc23d0b01267674de59c8e48a5146fe096aa57b1ef6445ac98",
        27, 1),
    "pingpong size=64 mode=spin_stream": (
        "a1ef8fc3bec78c28b5b1d748d70fccae750d3ef5c42e728721ec0faf7d319285",
        "af5ebcbd4ebce8f999e2dad92f9b2acc2e40e5805680bfa09c3bbbb2ea9208c6",
        29, 1),
    # Bandwidth-bound pingpongs: the fabric serialization pipeline.
    "pingpong size=65536 mode=rdma": (
        "c0d21877170ac603e99d461bb170ee20b1e9016283c73134d5f4e5b204452d6c",
        "76e4f0d48940205fdf7870c11f05ba7746f8b0b0f651083e3378f8233ba2bbad",
        214, 1),
    "pingpong size=65536 mode=p4": (
        "f4dc17f11a777dbda530f4e7e3274d135a9186af4e1287e64c3ae0ae5ce2783b",
        "c11087c3ece3e17db795fa86620fab42c02e88b696fc97ff888f29faee579583",
        211, 1),
    "pingpong size=65536 mode=spin_store": (
        "79b75e2492266381aeb36ceb53682a1060272e03372506c484a270f19b46c5e0",
        "1b541215a294c1cd42272f3605f98914edbfb861e3257fdb254265d92632cbd6",
        216, 1),
    "pingpong size=65536 mode=spin_stream": (
        "b9974e6a4238d47a46146e7748ebe6d6e18c2fd6d13ee10d93990d83fa787386",
        "bd07a3d9c7639505aaeef21f37a3d0173fe5ef9c191daf32a99792a81c094a85",
        286, 1),
    "pingpong size=262144 mode=rdma": (
        "3b598bec7f7be25c13664bf3dbe0f6079a8234c9dda28bb9b41a99b4aae603b8",
        "4b12ad3006cd12235ffd998acc7d37057a82801e4dd33230865a534b1d8019d6",
        790, 1),
    "pingpong size=262144 mode=spin_stream": (
        "7dbc02e4bcf313e63a5f021c153b5b9de98999153d5068e411124baa454973ba",
        "3a5c29e460b1068a3e7e7322adc65811904f2413e8a6a3202c56cb4a7a2d8991",
        1116, 1),
    # SPC trace replay over the RAID cluster (deep pipelines, contention).
    "spc_replay nops=60 family=financial mode=rdma": (
        "32b4d6487846e058434a96675597985b5a1d93f274db64277b34941073a9f122",
        None,
        13323, 1),
    "spc_replay nops=60 family=financial mode=spin": (
        "c472d84461633eb10e962ce4a291a8f04320c1d2b6db9accc1ca47b35ccbbfb4",
        None,
        14910, 1),
    "spc_replay nops=60 family=websearch mode=rdma": (
        "9f792999210529b3733d95dc5a0df78a14a1f7b93edb44c106a6eeac2f5815dc",
        None,
        3936, 1),
    "spc_replay nops=60 family=websearch mode=spin": (
        "97ab523d925ad5b7cf77dbc3c67d6c362b9791fa3e0031ca0a0cbc9adca0bd4b",
        None,
        3801, 1),
    # Full-application trace matching at 16 ranks.
    "apps_matching nprocs=16 iters=1 app=MILC": (
        "cbb8f889eae7361fb88f82aa110b6c28dda2a2f7d6c11ffc948db71793180d13",
        None,
        31954, 2),
    "apps_matching nprocs=16 iters=1 app=POP": (
        "ad6ad0862578099ca404b4456dd9f5fa60fe3a921c609e536da4da9cfa3db205",
        None,
        5074, 2),
    # Congestion fabric: per-link routed walks, incast and permutations.
    "incast_load fanin=8 count=16 seed=3": (
        "2949d4b6c7e6dbe9bd5a0860ec3b34eb4dfadf271db50d39b0b13bbb8f52f0e2",
        "139b4ad72aa7ee1465cf9f3cd300c927f273baa7d12ab9e60794a3d47dcc68e4",
        3665, 1),
    "permutation_traffic nhosts=16 shift=4 count=8 routing=ecmp seed=3": (
        "8af000317377f6790f4c5c7fa3d241871fe282c9cccd7b8b2ec35ec7d24112b2",
        "f052964dde2ff5868a0a4281b79c348278f2de57d40007319be0343a02f1a7e4",
        12818, 1),
    "permutation_traffic nhosts=16 shift=4 count=8 routing=dmodk seed=3": (
        "c5efe28cbe79294749c95bd9a46e74ef531b61d3ac7a402e40078d1be4b67497",
        "3d52c262bf2f863a7828a646e9d81908be9de0199995c8d9c9df490e73b824bd",
        12829, 1),
    # Million-client serving: fluid arrivals, sketches, Zipf draws.
    "kv_serving requests=1500 window_ns=60000 seed=3": (
        "6645b4a5d3f3bb08588b237aa3e585a08b070494068f2655fdb3eeddbb9c7877",
        "f263f9aeea9d2ed4d399ec202106e507e071e0f429cac447c0ba1b2989cd49c3",
        37069, 1),
    "tenant_overload tenants=2 population=50000 requests=600 window_ns=40000 seed=3": (
        "e3566c3401013a8f18f7d01932abdae9d4ee51d923a7213a9b4b2c3952c665df",
        "3532309b67b165807cbb392a7843836d636a74454c61cc07dff775fb7d142ce8",
        29399, 1),
}

def builtin_scenarios() -> set:
    # Test modules may register helper scenarios into the same registry;
    # the contract covers exactly the scenarios the package ships.
    return {name for name, sc in all_scenarios().items()
            if sc.fn.__module__ in SCENARIO_MODULES.values()}


def tiny_points() -> dict:
    """Scenario -> its ``--tiny`` point in :data:`CONTRACT`."""
    return {point.split()[0]: point for point in CONTRACT
            if point.endswith(" --tiny")}


def _params(point: str) -> tuple:
    """``"<scenario> --tiny"`` / ``"<scenario> k=v ..."`` -> (name, params)."""
    name, *rest = point.split()
    if rest == ["--tiny"]:
        return name, dict(get_scenario(name).tiny)
    return name, dict(pair.split("=", 1) for pair in rest)


def measure(point: str) -> tuple:
    """Run ``point`` once, observed and metered: its four contract values."""
    name, params = _params(point)
    capture, meter = ObsCapture(), KernelMeter()
    record, = run_observed(plan_points(name, [params]), capture,
                           meter=meter).records
    result = hashlib.sha256(
        json.dumps(record["result"], sort_keys=True).encode()).hexdigest()
    trace = None
    if capture.observers:
        folded = b"".join(
            hashlib.sha256(obs.timeline.canonical_bytes()).digest()
            for obs in capture.observers)
        trace = hashlib.sha256(folded).hexdigest()
    return result, trace, meter.events, meter.environments


def contract_mismatches(table: dict, measured: dict) -> list:
    """One line per point of ``table`` whose ``measured`` values moved."""
    lines = []
    for point, pinned in table.items():
        moved = [f"{field} pinned {want!r}, measured {got!r}"
                 for field, want, got in zip(FIELDS, pinned, measured[point])
                 if want != got]
        if moved:
            lines.append(f"{point}: " + "; ".join(moved))
    return lines


def test_every_point_matches_its_pin(contract_measured):
    mismatches = contract_mismatches(CONTRACT, contract_measured)
    assert not mismatches, "behaviour contract moved:\n" + "\n".join(mismatches)


def test_gate_names_the_point_and_field_that_moved():
    result, trace, events, envs = CONTRACT["incast_load --tiny"]
    off_by_one = dict(CONTRACT)
    off_by_one["incast_load --tiny"] = (result, trace, events + 1, envs)
    assert contract_mismatches(off_by_one, CONTRACT) == [
        f"incast_load --tiny: kernel_events pinned {events + 1}, "
        f"measured {events}"]

    result, trace, events, envs = CONTRACT["pingpong size=64 mode=rdma"]
    retraced = dict(CONTRACT)
    retraced["pingpong size=64 mode=rdma"] = (result, "0" * 64, events, envs)
    mismatch, = contract_mismatches(retraced, CONTRACT)
    assert mismatch.startswith("pingpong size=64 mode=rdma: trace pinned ")
    assert trace in mismatch


def test_uniform_shift_moves_the_pinned_digest(monkeypatch):
    """One extra picosecond of header matching shifts every later span
    consistently — a run-vs-run comparison passes, the pin must not."""
    base = config_mod.config_by_name("int")
    monkeypatch.setitem(config_mod._CONFIG_CACHE, "int", base.with_nic(
        header_match_ps=base.nic.header_match_ps + 1))
    shifted = measure("pingpong --tiny")
    assert shifted[1] is not None, "the shifted run built no traced session"
    assert shifted[1] != CONTRACT["pingpong --tiny"][1]
    assert measure("pingpong --tiny") == shifted
