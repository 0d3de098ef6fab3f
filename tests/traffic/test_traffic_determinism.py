"""Traffic determinism: specs replay byte-identically on every flavour.

Arrival schedules are materialised from per-edge RNGs before the
simulation starts, so kernel interleaving cannot perturb the draws; the
queue-depth sampler only reads fabric state and the Timeline records
only spans.  An identical ``TrafficSpec`` + seed must therefore produce
byte-identical ``Timeline.canonical_bytes()`` on both fast-path
flavours — and attaching the windowed sink must not move
a single kernel event.
"""

import json

import pytest

from repro.sim import ClusterSpec, Session, WindowedMetrics
from repro.traffic import BurstyOnOff, Poisson, TrafficRun, TrafficSpec, all_to_one, permutation

#: Walk flavours: the fast callback chains and the generator reference paths.
FLAVOURS = (True, False)


def _set_flavour(monkeypatch, fast: bool) -> None:
    monkeypatch.setenv("REPRO_FABRIC_FAST_PATH", "1" if fast else "0")
    monkeypatch.setenv("REPRO_NIC_FAST_RX", "1" if fast else "0")


def _spec(seed=9):
    return TrafficSpec(
        edges=(all_to_one(3, 3, BurstyOnOff(
                   on_ns=1000.0, off_ns=1000.0, rate_on_mmps=6.0, cycles=2),
                   size=2048, stream="burst")
               + permutation(3, 1, Poisson(rate_mmps=1.0, count=4),
                             size=512)),
        nodes=4, seed=seed)


def _traced_run(spec, windows=False):
    sink = WindowedMetrics(window_ns=500.0) if windows else None
    with Session(ClusterSpec(nodes=4, fabric="congestion",
                             link_queue_depth=64, trace=True)) as sess:
        run = TrafficRun(sess, spec, windows=sink)
        metrics = run.run()
        trace = sess.timeline.canonical_bytes()
    ts = (json.dumps(sink.timeseries(), sort_keys=True) if windows else None)
    return metrics.total().completed, trace, ts


def test_identical_spec_replays_identically_across_all_flavours(monkeypatch):
    results = []
    for fast in FLAVOURS:
        _set_flavour(monkeypatch, fast)
        results.append(_traced_run(_spec(), windows=True))
    completed, trace, ts = results[0]
    assert completed > 0, "nothing completed — weak fixture"
    for (c, t, s), fast in zip(results[1:], FLAVOURS[1:]):
        assert t == trace, f"flavour (fast={fast}): trace diverged"
        assert s == ts, f"flavour (fast={fast}): timeseries diverged"
        assert c == completed


def test_windowed_sink_leaves_the_trace_byte_identical(monkeypatch):
    # The sampler's callbacks are pure readers and the Timeline records
    # spans only: opting into time-resolved metrics must not change the
    # canonical trace of the run it observes.
    _set_flavour(monkeypatch, True)
    _, bare, _ = _traced_run(_spec())
    _, observed, _ = _traced_run(_spec(), windows=True)
    assert observed == bare


def test_spec_seed_steers_the_offered_traffic(monkeypatch):
    _set_flavour(monkeypatch, True)
    _, a, _ = _traced_run(_spec(seed=9))
    _, b, _ = _traced_run(_spec(seed=10))
    assert a != b


@pytest.mark.parametrize("fast", FLAVOURS)
def test_same_flavour_rerun_is_bitwise_stable(monkeypatch, fast):
    _set_flavour(monkeypatch, fast)
    assert _traced_run(_spec(), windows=True) == \
        _traced_run(_spec(), windows=True)
