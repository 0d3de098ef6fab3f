"""The zero-overhead invariant: observing a run changes nothing in it.

An attached observer is a pure reader — the probe slots fire into
observer-side accumulators only, so the kernel schedules exactly the
same events and ``Timeline.canonical_bytes()`` stays byte-identical to
an unobserved run, on both fast-path flavours.  The exporter on top is
deterministic: identical seed ⇒ byte-identical Perfetto JSON across
both flavours.
"""

import pytest

from repro.obs import ObsConfig, Observer
from repro.portals.matching import MatchEntry
from repro.sim import ClusterSpec, Metrics, Session
from repro.sim.drivers import OpenLoopDriver

TAG = 40

#: Walk flavours: the fast callback chains and the generator reference paths.
FLAVOURS = (True, False)


def _set_flavour(monkeypatch, fast: bool) -> None:
    monkeypatch.setenv("REPRO_FABRIC_FAST_PATH", "1" if fast else "0")
    monkeypatch.setenv("REPRO_NIC_FAST_RX", "1" if fast else "0")


def _incast_run(observe: bool):
    """A traced incast on the congestion fabric, optionally observed.

    Returns (canonical trace bytes, perfetto JSON or None).
    """
    spec = ClusterSpec(nodes=3, config="int", fabric="congestion",
                      link_queue_depth=64, trace=True)
    with Session(spec) as sess:
        obs = sess.attach_observer() if observe else None
        sess.install(2, MatchEntry(match_bits=TAG, length=1 << 30))
        metrics = Metrics()
        drivers = [
            OpenLoopDriver(sess, source=source, target=2, rate_mmps=4.0,
                           count=6, size=4096, match_bits=TAG,
                           seed=source + 1, metrics=metrics, stream="incast")
            for source in range(2)
        ]
        for driver in drivers:
            driver.start()
        sess.drain()
        for driver in drivers:
            driver.finalize()
        trace = obs.export_trace() if obs is not None else None
        return sess.timeline.canonical_bytes(), trace


def test_observed_run_is_trace_identical_across_all_flavours(monkeypatch):
    results = []
    for fast in FLAVOURS:
        _set_flavour(monkeypatch, fast)
        unobserved_bytes, _ = _incast_run(observe=False)
        observed_bytes, trace = _incast_run(observe=True)
        assert observed_bytes == unobserved_bytes, (
            f"observer perturbed the run on fast={fast}")
        results.append((observed_bytes, trace))
    first_bytes, first_trace = results[0]
    for (other_bytes, other_trace), flavour in zip(results[1:], FLAVOURS[1:]):
        assert other_bytes == first_bytes, f"trace diverged on {flavour}"
        assert other_trace == first_trace, (
            f"perfetto JSON diverged on {flavour}")


def test_observer_requires_a_traced_session():
    with Session.pair("int") as sess:  # trace defaults to False
        with pytest.raises(ValueError, match="traced"):
            sess.attach_observer()


def test_detach_restores_class_level_probe_defaults():
    spec = ClusterSpec(nodes=3, config="int", fabric="congestion", trace=True)
    with Session(spec) as sess:
        obs = sess.attach_observer()
        timeline = sess.timeline
        fabric = sess.cluster.fabric
        nic = sess.cluster[0].nic
        assert timeline._probe is not None
        assert fabric._link_probe is not None
        assert nic._obs_msg_probe is not None
        obs.detach()
        # The instance attributes are gone — lookups fall through to the
        # class-level None, exactly the pre-attach state.
        for component, slot in ((timeline, "_probe"),
                                (fabric, "_link_probe"),
                                (nic, "_obs_msg_probe"),
                                (nic, "_obs_hpu_probe")):
            assert slot not in component.__dict__
            assert getattr(component, slot) is None


def test_config_gates_each_probe_stream():
    spec = ClusterSpec(nodes=3, config="int", fabric="congestion",
                      link_queue_depth=64, trace=True)
    with Session(spec) as sess:
        obs = sess.attach_observer(ObsConfig(
            link_counters=False, hpu_counters=False, message_marks=False))
        sess.install(2, MatchEntry(match_bits=TAG, length=1 << 30))
        driver = OpenLoopDriver(sess, source=0, target=2, rate_mmps=4.0,
                                count=4, size=2048, match_bits=TAG, seed=3)
        driver.start()
        sess.drain()
        assert len(obs.timeline.spans) > 0  # spans always collected
        assert obs.link_samples == []
        assert obs.hpu_queue_samples == []
        assert obs.message_marks == []


@pytest.mark.parametrize("fast", FLAVOURS)
def test_same_flavour_rerun_exports_identical_json(monkeypatch, fast):
    _set_flavour(monkeypatch, fast)
    (_, a), (_, b) = _incast_run(observe=True), _incast_run(observe=True)
    assert a == b
