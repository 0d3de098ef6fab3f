"""Golden-trace regression tests: the DES is byte-for-byte deterministic.

Each experiment runs twice in-process with identical (fixed) inputs; the
full event trace (every CPU/NIC/DMA/HPU busy span, in recording order) is
snapshotted as canonical bytes and hashed.  Any nondeterminism in the
engine's event ordering, the LogGP fabric, or the handler scheduling shows
up as a digest mismatch — the property the parallel campaign executor's
result caching relies on.
"""

import pytest

from repro.experiments.accumulate import accumulate_completion_ns
from repro.experiments.pingpong import PINGPONG_MODES, pingpong_half_rtt_ns

PP_SIZE = 8192
ACC_SIZE = 16384


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
    assert tl1.digest() == tl2.digest()


@pytest.mark.parametrize("mode", ("rdma", "spin"))
def test_accumulate_trace_deterministic(mode):
    v1, tl1 = _accumulate_run(mode)
    v2, tl2 = _accumulate_run(mode)
    assert tl1.spans, "trace-enabled run recorded no spans"
    assert v1 == v2
    assert tl2.canonical_bytes() == tl1.canonical_bytes()
    assert tl1.digest() == tl2.digest()


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

