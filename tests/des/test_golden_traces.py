"""Golden-trace regression tests: the DES is byte-for-byte deterministic.

Two kinds of check live here:

* **Absolute pins.** Every built-in scenario's ``--tiny`` trace digest is
  the ``trace`` field of its point in :data:`CONTRACT`
  (``tests/test_behaviour_contract.py``), checked here on its own so that
  a moved trace names its scenario.  The pingpong/accumulate experiments
  and a randomized raw-fabric contention workload are traced and their
  ``Timeline.canonical_bytes()`` digests pinned below.
* **Self-consistency.** Each experiment runs twice in-process with
  identical inputs and must produce the same canonical bytes, and tracing
  must not perturb the simulated result.

A deliberate change to an experiment's simulated timing must update its
digest here in the same change.
"""

import hashlib
import json
import random

import pytest

from repro.des.engine import Environment
from repro.des.trace import Timeline
from repro.experiments.accumulate import accumulate_completion_ns
from repro.experiments.pingpong import PINGPONG_MODES, pingpong_half_rtt_ns
from repro.network.fabric import Fabric
from repro.network.loggp import NetworkParams
from repro.network.packets import Message
from repro.network.topology import FatTree

from test_behaviour_contract import CONTRACT, builtin_scenarios, tiny_points

PP_SIZE = 8192
ACC_SIZE = 16384

#: ``Timeline.digest()`` of the determinism-test runs below.
PINGPONG_TRACES = {
    "rdma": "f9bcf98a1ef9870579ad02a31f05ec7550f13b18dcf9d1612af51afc382178e8",
    "p4": "93ede91d380a5740c63a83295a3a4bac9833d0749eb1b7408e053d3299dd055c",
    "spin_store": "012ac2aa920f69736ee3f48d87e88f47d83bcb7cd7edf3da9d3618d5f213e687",
    "spin_stream": "00a8b4ba73140ff6088bf15936fea6e158a2769c44b7ef589c30e34353de57e0",
}
ACCUMULATE_TRACES = {
    "rdma": "fa0f1085cdb1f6fde0642697b68f8bb0c58e1828565cc33639f4626280cb22b4",
    "spin": "285b69cfe1b99172d8eab5fa6d14ae3a655e925fe86cc918a838c2cdbe5536aa",
}

#: sha256 over the arrivals and canonical trace of
#: :func:`_run_contention_pattern`, per seed.
CONTENTION_TRACES = {
    0: "e1196cbb1eee520f1dfbf24bcb76a1f2ce311530712eb65bfd81464dffd4c9b6",
    1: "8f622e70f51b0c2f1baea7495f1c3824d743d56b65e6aeeb01874c63a670d938",
    2: "0a12e1ec3897685aed5a4e14f665343cd7b95e96a0bd7b7ad7e0b35b1ab8e26c",
    3: "be746a34c7c7975370f0a7de662685281fc148c6898f2ad9d60d3c2db1e1ee66",
    4: "a4529ac5d8bbea7c93f3834944d49cf72bb753b1ba67dfeebffbfa8c1b76f862",
    5: "08ec6464feb194069a82ab284493933b98b2652edfee558e9db30f4bb4f40776",
    6: "520d1b80a0e50c656699b83d6b48d8f67fa3a0a6c23092fd12cb5c5693f7740e",
    7: "cbeb4c11da166ab411d43258596394feb34289c0e0546d86eccf16b4ffdc8391",
    8: "9ade6da3eb9e7eed5086df3d8c5858a705554e77e29b90cb11109e7aeb0eda08",
    9: "b1223a3c46d03d002f8176ef91949eecfaeaf3e6d1de6a68f058a73a76fcd7f2",
    10: "695d1583723d00c14488eca985ff4cb7cf51ad3fb0ee64513d65bfbc9feeb593",
    11: "85cc327e507b80620f575df1db1147022f0b4fb50755d99537dbfff945e52850",
}


#: Built-in scenarios that build no ``Session`` (closed forms), so there is
#: no trace to pin.
UNTRACED_SCENARIOS = frozenset({"linerate"})


def test_trace_corpus_covers_every_builtin_scenario():
    """A scenario that stops (or starts) tracing fails here by name."""
    untraced = {name for name, point in tiny_points().items()
                if CONTRACT[point][1] is None}
    assert untraced == UNTRACED_SCENARIOS
    assert set(tiny_points()) == builtin_scenarios()


def test_tiny_traces_match_golden_digests(contract_measured):
    mismatched = [name for name, point in sorted(tiny_points().items())
                  if contract_measured[point][1] != CONTRACT[point][1]]
    assert not mismatched, f"traces changed: {mismatched}"


def _pingpong_run(mode):
    sink = []
    value = pingpong_half_rtt_ns(PP_SIZE, mode, "int", timeline_sink=sink)
    return value, sink[0]


def _accumulate_run(mode):
    sink = []
    value = accumulate_completion_ns(ACC_SIZE, mode, "int", timeline_sink=sink)
    return value, sink[0]


@pytest.mark.parametrize("mode", PINGPONG_MODES)
def test_pingpong_trace_deterministic(mode):
    v1, tl1 = _pingpong_run(mode)
    v2, tl2 = _pingpong_run(mode)
    assert tl1.spans, "trace-enabled run recorded no spans"
    assert v1 == v2
    golden = tl1.canonical_bytes()
    assert tl2.canonical_bytes() == golden  # byte-for-byte
    assert tl1.digest() == PINGPONG_TRACES[mode]


@pytest.mark.parametrize("mode", ("rdma", "spin"))
def test_accumulate_trace_deterministic(mode):
    v1, tl1 = _accumulate_run(mode)
    v2, tl2 = _accumulate_run(mode)
    assert tl1.spans, "trace-enabled run recorded no spans"
    assert v1 == v2
    assert tl2.canonical_bytes() == tl1.canonical_bytes()
    assert tl1.digest() == ACCUMULATE_TRACES[mode]


def test_trace_digest_distinguishes_protocols():
    """The digest actually captures trace content, not just its length."""
    digests = {mode: _pingpong_run(mode)[1].digest() for mode in PINGPONG_MODES}
    assert len(set(digests.values())) == len(digests)


def test_trace_digest_sensitive_to_spans():
    """Mutating a single span changes the canonical encoding."""
    _, tl = _pingpong_run("spin_store")
    base = tl.digest()
    span = tl.spans[len(tl.spans) // 2]
    tl.spans[len(tl.spans) // 2] = type(span)(
        rank=span.rank, lane=span.lane, start=span.start,
        end=span.end + 1, label=span.label,
    )
    assert tl.digest() != base


def test_timeline_sink_does_not_change_result():
    """Enabling tracing must not perturb the simulated timings."""
    sink = []
    traced = pingpong_half_rtt_ns(PP_SIZE, "spin_stream", "int",
                                  timeline_sink=sink)
    untraced = pingpong_half_rtt_ns(PP_SIZE, "spin_stream", "int")
    assert traced == untraced


def _run_contention_pattern(seed: int):
    """Random overlapping sends on one NIC; returns (trace bytes, arrivals).

    Injection times are dense relative to per-message serialization time,
    so messages pile up at the source wire and interleave packet-by-packet
    on its FIFO.
    """
    rng = random.Random(seed)
    params = NetworkParams()
    env = Environment()
    timeline = Timeline(enabled=True)
    topology = FatTree(params=params, nhosts=4)
    fabric = Fabric(env, topology, params, timeline=timeline)

    arrivals = []
    for nid in range(4):
        fabric.attach(
            nid,
            lambda pkt, nid=nid: arrivals.append(
                (env.now, nid, pkt.message.msg_id, pkt.seq)
            ),
        )

    messages = []
    for i in range(20):
        messages.append(
            (
                rng.randrange(0, 3_000_000),            # inject time (ps)
                rng.choice((1, 2, 3)),                  # target
                rng.choice((1, 2000, 4096, 9000, 20000)),  # size in bytes
            )
        )

    def injector(at, target, size, msg_id):
        yield env.timeout(at)
        msg = Message(source=0, target=target, length=size)
        # Pin msg_id so the digest is independent of earlier messages.
        msg.msg_id = msg_id
        done = fabric.inject(msg)
        yield done

    for i, (at, target, size) in enumerate(messages):
        env.process(injector(at, target, size, i))
    env.run()
    return timeline.canonical_bytes(), arrivals


@pytest.mark.parametrize("seed", range(12))
def test_random_contention_matches_pinned_digest(seed):
    trace, arrivals = _run_contention_pattern(seed)
    digest = hashlib.sha256(json.dumps(arrivals).encode() + trace).hexdigest()
    assert digest == CONTENTION_TRACES[seed]


def test_contention_interleaves_packets():
    """Sanity: the pattern actually creates cross-message interleaving."""
    trace, arrivals = _run_contention_pattern(0)
    order = [msg_id for _, _, msg_id, _ in arrivals]
    # Some message's packets must be split around another message's.
    interleaved = any(
        order[i] != order[i + 1] and order[i] in order[i + 2:]
        for i in range(len(order) - 2)
    )
    assert interleaved, "contention pattern produced no interleaving"
