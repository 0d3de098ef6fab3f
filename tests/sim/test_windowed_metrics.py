"""WindowedMetrics: bin edges, empty bins, sketches, flavour stability."""

import json

import pytest

import repro.sim.metrics as metrics_mod
from repro.sim import ClusterSpec, Metrics, QuantileSketch, Session, WindowedMetrics
from repro.traffic import BurstyOnOff, TrafficRun, TrafficSpec, all_to_one

#: Walk flavours: the fast callback chains and the generator reference paths.
FLAVOURS = (True, False)


def _set_flavour(monkeypatch, fast: bool) -> None:
    monkeypatch.setenv("REPRO_FABRIC_FAST_PATH", "1" if fast else "0")
    monkeypatch.setenv("REPRO_NIC_FAST_RX", "1" if fast else "0")


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
        assert w.streams() == ("a", "b")
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


class TestLatencyStatsSortedCache:
    """Regression: repeated summaries must not re-sort the sample list."""

    def _counting_sorted(self, monkeypatch):
        calls = {"n": 0}
        real = sorted

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        # LatencyStats resolves `sorted` through the module globals, so a
        # module-level patch intercepts exactly its calls.
        monkeypatch.setattr(metrics_mod, "sorted", counting, raising=False)
        return calls

    def test_repeated_summaries_sort_once(self, monkeypatch):
        m = Metrics()
        stats = m.stream("load")
        for i in range(200):
            stats.record((i * 37) % 1000 + 1, 64)
        calls = self._counting_sorted(monkeypatch)
        first = stats.summary()
        for _ in range(5):
            assert stats.summary() == first
            stats.percentile_ns(0.5)
        assert calls["n"] == 1

    def test_new_sample_invalidates_the_cache(self, monkeypatch):
        m = Metrics()
        stats = m.stream("load")
        for i in range(50):
            stats.record(i + 1, 64)
        calls = self._counting_sorted(monkeypatch)
        p_before = stats.percentile_ns(1.0)
        stats.record(10**9, 64)  # new max must be visible immediately
        assert stats.percentile_ns(1.0) > p_before
        assert calls["n"] == 2

    def test_total_rollup_sees_samples_added_behind_its_back(self):
        # Metrics.total() extends samples_ps directly on a scratch
        # LatencyStats; the cache keys on length so the rollup stays right.
        m = Metrics()
        m.stream("a").record(100, 0)
        m.stream("b").record(900, 0)
        total = m.total()
        assert total.percentile_ns(1.0) == 0.9


class TestFlavourStability:
    """The same traffic run bins identically on every walk flavour."""

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

    def test_timeseries_byte_identical_across_all_flavours(
            self, monkeypatch):
        results = []
        for fast in FLAVOURS:
            _set_flavour(monkeypatch, fast)
            results.append(self._run())
        assert json.loads(results[0])["bins"], "no bins — weak fixture"
        for other, fast in zip(results[1:], FLAVOURS[1:]):
            assert other == results[0], \
                f"flavour (fast={fast}) binned differently"
