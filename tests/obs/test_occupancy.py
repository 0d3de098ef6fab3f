"""Occupancy accounting: accumulator unit behaviour and run ground truth.

The accumulator's totals must be the *same integers* the timeline
tallies — every recorded span flows through both — so busy fractions in
a report equal ``Timeline.busy_time / elapsed`` exactly, no sampling
error.  The windowed variant splits spans across window boundaries with
exact integer arithmetic.
"""

import pytest

from repro.des.trace import span_category
from repro.obs import ObsConfig, OccupancyAccumulator
from repro.sim import Session
from repro.sim.metrics import WindowedMetrics


# -- accumulator unit behaviour -------------------------------------------

def test_busy_totals_and_histogram_hand_computed():
    occ = OccupancyAccumulator()
    occ.observe(0, "HPU0", 100, 400, "hh")    # 300 ps -> bucket 9
    occ.observe(0, "HPU0", 500, 600, "ph")    # 100 ps -> bucket 7
    occ.observe(0, "CPU", 0, 250, "post")     # 250 ps -> bucket 8
    occ.observe(1, "DMA", 0, 0, "write")      # zero-duration -> bucket 0

    assert occ.busy_ps(0, "HPU0") == 400
    assert occ.span_count(0, "HPU0") == 2
    assert occ.busy_frac(0, "HPU0", 1000) == 0.4
    assert occ.busy_frac(0, "HPU0", 0) == 0.0
    assert occ.histogram(0, "HPU0") == {9: 1, 7: 1}
    assert occ.histogram(1, "DMA") == {0: 1}
    assert occ.resources() == [(0, "CPU"), (0, "HPU0"), (1, "DMA")]


def test_category_fracs_mean_and_max_over_observed_lanes():
    occ = OccupancyAccumulator()
    occ.observe(0, "HPU0", 0, 400, "hh")
    occ.observe(0, "HPU1", 0, 200, "hh")
    notes = occ.category_busy_fracs(1000)
    # Mean over the two observed HPU lanes; max is the busiest one.
    assert notes["occ_hpu_busy_frac"] == pytest.approx(600 / 2000)
    assert notes["occ_hpu_max_busy_frac"] == pytest.approx(0.4)
    # Unobserved categories are present-but-zero (stable schema).
    for cat in ("cpu", "dma", "tx", "rx"):
        assert notes[f"occ_{cat}_busy_frac"] == 0.0
        assert notes[f"occ_{cat}_max_busy_frac"] == 0.0


def test_top_handlers_orders_by_busy_then_label():
    occ = OccupancyAccumulator()
    occ.observe(1, "HPU0", 0, 100, "ph")
    occ.observe(1, "HPU1", 0, 100, "hh")
    occ.observe(1, "HPU0", 200, 300, "ph")
    occ.observe(0, "CPU", 0, 500, "post")  # not a handler lane
    top = occ.top_handlers(k=5)
    assert [(r["label"], r["busy_ns"], r["runs"]) for r in top] == [
        ("ph", 0.2, 2), ("hh", 0.1, 1)]
    assert occ.top_handlers(k=1)[0]["label"] == "ph"


# -- windowed occupancy ----------------------------------------------------

def test_observe_busy_splits_spans_across_windows_exactly():
    wm = WindowedMetrics(window_ns=1.0)  # 1000 ps windows
    wm.observe_busy("node0/HPU0", 500, 2500)   # 500 + 1000 + 500
    wm.observe_busy("node0/HPU0", 2900, 3100)  # 100 + 100
    assert wm.occupancy_resources() == ("node0/HPU0",)
    assert wm.occupancy_series("node0/HPU0") == [0.5, 1.0, 0.6, 0.1]
    assert wm.occupancy_series("node9/CPU") == []


def test_observe_busy_rejects_negative_and_inverted_spans():
    wm = WindowedMetrics(window_ns=1.0)
    with pytest.raises(ValueError):
        wm.observe_busy("x", -1, 5)
    with pytest.raises(ValueError):
        wm.observe_busy("x", 10, 5)


# -- run-level ground truth ------------------------------------------------

def _pingpong(count: int = 2):
    """A 2-message spin pingpong through the channel API, observed."""
    from repro.core import ReturnCode

    with Session.pair("int", trace=True, with_memory=True) as sess:
        obs = sess.attach_observer(ObsConfig(window_ns=100.0))
        origin = sess[0]

        def payload_handler(ctx, payload):
            yield from ctx.put_from_device(
                payload.payload, target=ctx.message.source,
                match_bits=99, nbytes=payload.payload_len,
            )
            return ReturnCode.SUCCESS

        sess.connect(1, peer=0, payload_handler=payload_handler)
        from repro.portals.matching import MatchEntry
        echo_eq = origin.new_eq()
        buf = origin.memory.alloc(4096)
        sess.install(0, MatchEntry(match_bits=99, start=buf, length=4096,
                                   event_queue=echo_eq))

        def client():
            for _ in range(count):
                yield from origin.host_put(1, 256, match_bits=0)
                yield from origin.wait_event(echo_eq)

        sess.process(client())
        sess.drain()
        return obs, sess.timeline, sess.env.now


def test_observer_busy_equals_timeline_busy_exactly():
    obs, timeline, elapsed = _pingpong()
    lanes = timeline.lanes()
    assert lanes, "pingpong recorded no spans — weak fixture"
    assert sorted(lanes) == obs.occupancy.resources()
    for rank, lane in lanes:
        assert obs.occupancy.busy_ps(rank, lane) == \
            timeline.busy_time(rank, lane)


def test_report_hpu_busy_frac_matches_timeline_ground_truth():
    obs, timeline, elapsed = _pingpong()
    hpu_lanes = [(r, l) for r, l in timeline.lanes() if l.startswith("HPU")]
    assert hpu_lanes, "no handler ran — weak fixture"
    expected = sum(timeline.busy_time(r, l) for r, l in hpu_lanes) / (
        elapsed * len(hpu_lanes))
    report = obs.build_report()
    assert report["occ_summary"]["occ_hpu_busy_frac"] == expected
    # And the per-resource table rows agree span for span.
    for rank, lane in hpu_lanes:
        row = report["occupancy"][f"node{rank}/{lane}"]
        assert row["busy_ns"] == timeline.busy_time(rank, lane) / 1000.0
        assert row["category"] == "hpu"


def test_windowed_occupancy_sums_to_total_busy():
    obs, timeline, _elapsed = _pingpong()
    wm = obs.windowed
    for rank, lane in timeline.lanes():
        series = wm.occupancy_series(f"node{rank}/{lane}")
        total_ps = round(sum(series) * wm.window_ps)
        assert total_ps == timeline.busy_time(rank, lane)
        assert all(0.0 <= frac <= 1.0 for frac in series)


def test_attaching_late_replays_existing_spans():
    with Session.pair("int", trace=True, with_memory=True) as sess:
        origin = sess[0]
        from repro.portals.matching import MatchEntry
        sess.install(1, MatchEntry(match_bits=7, length=1 << 20))

        def client():
            yield from origin.host_put(1, 512, match_bits=7)

        sess.process(client())
        sess.drain()
        assert sess.timeline.spans, "run recorded nothing — weak fixture"
        obs = sess.attach_observer()  # attach AFTER the run
        for rank, lane in sess.timeline.lanes():
            assert obs.occupancy.busy_ps(rank, lane) == \
                sess.timeline.busy_time(rank, lane)


def test_span_category_mapping():
    assert span_category("CPU") == "cpu"
    assert span_category("NIC") == "rx"
    assert span_category("NIC-tx") == "tx"
    assert span_category("DMA") == "dma"
    assert span_category("HPU0") == "hpu"
    assert span_category("HPU12") == "hpu"
    assert span_category("weird-lane") == "other"
