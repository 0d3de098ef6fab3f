"""WindowedMetrics: bin edges, empty bins, sketches, rerun stability."""

import json

import pytest

from repro.sim import ClusterSpec, QuantileSketch, Session, WindowedMetrics
from repro.traffic import BurstyOnOff, TrafficRun, TrafficSpec, all_to_one

class TestBinEdges:
    def test_edges_are_exact_on_integer_picoseconds(self):
        w = WindowedMetrics(window_ns=1.0)  # 1000 ps windows
        assert w.window_ps == 1000
        assert w.bin_index(0) == 0
        assert w.bin_index(999) == 0
        assert w.bin_index(1000) == 1  # left-closed, right-open
        assert w.bin_index(1999) == 1
        assert w.bin_index(2000) == 2

    def test_large_times_never_drift(self):
        # Float binning would misplace times near representability limits;
        # integer floor-division cannot.
        w = WindowedMetrics(window_ns=0.7)  # 700 ps windows
        t = 700 * 10**12  # bin boundary, far beyond float ulp=1 territory
        assert w.bin_index(t) == 10**12
        assert w.bin_index(t - 1) == 10**12 - 1

    def test_negative_time_rejected(self):
        w = WindowedMetrics(window_ns=1.0)
        with pytest.raises(ValueError):
            w.bin_index(-1)

    def test_subpicosecond_window_rejected(self):
        with pytest.raises(ValueError):
            WindowedMetrics(window_ns=0.0001)

    def test_completion_on_boundary_lands_in_the_later_bin(self):
        w = WindowedMetrics(window_ns=2.0)
        w.observe_completion(1999, latency_ps=10)
        w.observe_completion(2000, latency_ps=20)
        ts = w.timeseries()
        assert [b["completed"] for b in ts["bins"]] == [1, 1]


class TestEmptyBins:
    def test_gaps_are_dense_zero_bins_with_null_percentiles(self):
        w = WindowedMetrics(window_ns=1.0)
        w.observe_completion(500, latency_ps=100)
        w.observe_completion(5500, latency_ps=100)
        ts = w.timeseries()
        assert len(ts["bins"]) == 6
        for b in ts["bins"][1:5]:
            assert b["completed"] == 0
            assert b["dropped"] == 0
            assert b["p50_ns"] is None and b["p99_ns"] is None

    def test_no_observations_yields_no_bins(self):
        w = WindowedMetrics(window_ns=1.0)
        ts = w.timeseries()
        assert ts["bins"] == []
        assert w.num_bins() == 0

    def test_series_fills_empty_bins_with_default(self):
        w = WindowedMetrics(window_ns=1.0)
        w.observe_completion(0, latency_ps=100)
        w.observe_completion(3500, latency_ps=300)
        assert w.series("completed") == [1, 0, 0, 1]
        assert w.series("p99_ns", default=-1.0)[1] == -1.0

    def test_timeseries_is_json_serialisable(self):
        w = WindowedMetrics(window_ns=1.0)
        w.observe_completion(100, latency_ps=50, nbytes=64, stream="a")
        w.observe_drop(2100, stream="a")
        w.observe_queue_depth(500, 3)
        json.dumps(w.timeseries())
        json.dumps(w.timeseries(stream="a"))


class TestStreams:
    def test_streamed_observations_feed_rollup_and_named_series(self):
        w = WindowedMetrics(window_ns=1.0)
        w.observe_completion(100, latency_ps=50, stream="a")
        w.observe_completion(200, latency_ps=70, stream="b")
        assert w.timeseries()["bins"][0]["completed"] == 2
        assert w.timeseries(stream="a")["bins"][0]["completed"] == 1

    def test_queue_depth_tracks_window_max(self):
        w = WindowedMetrics(window_ns=1.0)
        w.observe_queue_depth(100, 3)
        w.observe_queue_depth(900, 7)
        w.observe_queue_depth(1100, 2)
        assert w.series("queue_max") == [7, 2]


class TestQuantileSketch:
    def test_exact_below_capacity(self):
        sk = QuantileSketch(capacity=128)
        values = [(37 * i) % 101 for i in range(100)]
        for v in values:
            sk.add(v)
        ordered = sorted(values)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            rank = min(len(ordered) - 1, int(q * len(ordered)))
            assert abs(sk.percentile(q) - ordered[rank]) <= 1

    def test_bounded_memory_and_sane_percentiles_above_capacity(self):
        sk = QuantileSketch(capacity=32)
        n = 10_000
        for i in range(n):
            sk.add((i * 7919) % n)  # a permutation of 0..n-1
        assert sk.retained() <= 32 * 8  # compactor chain stays small
        assert sk.count == n
        p50 = sk.percentile(0.5)
        assert 0.3 * n < p50 < 0.7 * n
        assert sk.percentile(0.0) == sk.min
        assert sk.percentile(1.0) == sk.max
        assert sk.percentile(0.1) <= sk.percentile(0.5) <= sk.percentile(0.9)

    def test_deterministic_for_identical_input_order(self):
        a, b = QuantileSketch(capacity=16), QuantileSketch(capacity=16)
        for i in range(5000):
            v = (i * 104729) % 4096
            a.add(v)
            b.add(v)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert a.percentile(q) == b.percentile(q)


class TestRerunStability:
    """The same traffic run bins identically on every run."""

    def _run(self):
        spec = TrafficSpec(
            edges=all_to_one(2, 2, BurstyOnOff(
                on_ns=800.0, off_ns=800.0, rate_on_mmps=8.0, cycles=2),
                size=2048, stream="burst"),
            nodes=3, seed=5)
        windows = WindowedMetrics(window_ns=400.0)
        with Session(ClusterSpec(nodes=3, fabric="congestion",
                                 link_queue_depth=64)) as sess:
            TrafficRun(sess, spec, windows=windows).run()
        return json.dumps(windows.timeseries(), sort_keys=True)

    def test_timeseries_byte_identical_on_rerun(self):
        first = self._run()
        assert json.loads(first)["bins"], "no bins — weak fixture"
        assert self._run() == first
