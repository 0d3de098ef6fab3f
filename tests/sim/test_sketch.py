"""QuantileSketch as a shared primitive: merge, rank error, exactness.

The sketch lives in ``repro.sim.sketch`` so both ``LatencyStats`` (the
one latency store of every metrics stream) and ``WindowedMetrics`` share
one implementation.  These tests pin its contract: exactness below
capacity (and forever with ``capacity=None``), bounded rank error above
it, and a deterministic ``merge()``.
"""

import random

import pytest

from repro.sim import LatencyStats, Metrics, QuantileSketch, percentile_ps
from repro.sim.sketch import QuantileSketch as SketchFromModule


def exact_rank_window(ordered, q, slack):
    """Values at nearest-rank q ± slack (inclusive) in a sorted list."""
    n = len(ordered)
    lo = max(0, max(1, round((q - slack) * n)) - 1)
    hi = min(n - 1, max(1, round((q + slack) * n)) - 1)
    return ordered[lo], ordered[hi]


class TestPromotion:
    def test_same_class_from_every_import_path(self):
        """repro.sim, repro.sim.metrics and repro.sim.sketch must expose
        one class, not three copies with drifting behaviour."""
        from repro.sim.metrics import QuantileSketch as FromMetrics
        assert QuantileSketch is FromMetrics is SketchFromModule


class TestExactBelowCapacity:
    @pytest.mark.parametrize("n", [1, 5, 63, 127])
    def test_matches_sorted_list_percentiles_exactly(self, n):
        rng = random.Random(11)
        samples = [rng.randrange(1_000_000) for _ in range(n)]
        sketch = QuantileSketch(capacity=128)
        for s in samples:
            sketch.add(s)
        ordered = sorted(samples)
        for q in (0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0):
            assert sketch.percentile(q) == percentile_ps(ordered, q), q

    def test_unbounded_capacity_never_compacts(self):
        rng = random.Random(4)
        samples = [rng.randrange(1_000_000) for _ in range(5000)]
        sketch = QuantileSketch(capacity=None)
        for s in samples:
            sketch.add(s)
        assert sketch.retained() == len(samples)
        ordered = sorted(samples)
        qs = (0.0, 0.001, 0.5, 0.99, 0.999, 1.0)
        assert sketch.percentiles(qs) == [percentile_ps(ordered, q)
                                          for q in qs]

    def test_retained_never_exceeds_exact_count_below_capacity(self):
        sketch = QuantileSketch(capacity=64)
        for i in range(63):
            sketch.add(i)
        assert sketch.retained() == 63
        assert sketch.count == 63


class TestRankErrorBound:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("shape", ["uniform", "lognormal-ish", "steps"])
    def test_percentiles_stay_within_rank_slack(self, seed, shape):
        """Property test: for 20k samples through a 128-capacity sketch,
        every reported percentile must be a value whose *exact* rank is
        within ±5% of the requested one.  (KLL-style guarantees
        eps ~ O(1/capacity); 5% at capacity 128 is a conservative
        envelope that still catches systematic bias.)"""
        rng = random.Random(seed)
        if shape == "uniform":
            samples = [rng.randrange(10_000_000) for _ in range(20_000)]
        elif shape == "lognormal-ish":
            samples = [int(1000 * (2 ** rng.uniform(0, 20)))
                       for _ in range(20_000)]
        else:
            samples = [1000 * (i % 7) for i in range(20_000)]
        sketch = QuantileSketch(capacity=128)
        for s in samples:
            sketch.add(s)
        ordered = sorted(samples)
        for q in (0.1, 0.5, 0.9, 0.99):
            lo, hi = exact_rank_window(ordered, q, slack=0.05)
            assert lo <= sketch.percentile(q) <= hi, (shape, q)

    def test_memory_stays_bounded(self):
        sketch = QuantileSketch(capacity=128)
        for i in range(200_000):
            sketch.add(i)
        # capacity per level × log2(n/capacity) levels, with headroom.
        assert sketch.retained() < 128 * 16
        assert sketch.count == 200_000

    def test_min_max_always_exact(self):
        rng = random.Random(3)
        sketch = QuantileSketch(capacity=16)
        samples = [rng.randrange(1 << 40) for _ in range(5000)]
        for s in samples:
            sketch.add(s)
        assert sketch.percentile(0.0) == min(samples)
        assert sketch.percentile(1.0) == max(samples)


class TestMerge:
    def test_merge_of_exact_sketches_is_exact(self):
        a, b = QuantileSketch(capacity=128), QuantileSketch(capacity=128)
        left = [10 * i for i in range(50)]
        right = [10 * i + 5 for i in range(40)]
        for s in left:
            a.add(s)
        for s in right:
            b.add(s)
        a.merge(b)
        ordered = sorted(left + right)
        assert a.count == 90
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert a.percentile(q) == percentile_ps(ordered, q)
        # the donor is untouched
        assert b.count == 40
        assert b.percentile(0.5) == percentile_ps(sorted(right), 0.5)

    def test_merge_matches_single_stream_rank_window(self):
        rng = random.Random(9)
        streams = [[rng.randrange(1_000_000) for _ in range(8000)]
                   for _ in range(4)]
        merged = QuantileSketch(capacity=128)
        for stream in streams:
            part = QuantileSketch(capacity=128)
            for s in stream:
                part.add(s)
            merged.merge(part)
        every = sorted(s for stream in streams for s in stream)
        assert merged.count == len(every)
        assert merged.min == every[0] and merged.max == every[-1]
        for q in (0.1, 0.5, 0.9, 0.99):
            lo, hi = exact_rank_window(every, q, slack=0.05)
            assert lo <= merged.percentile(q) <= hi, q

    def test_merge_is_deterministic(self):
        def build():
            rng = random.Random(5)
            parts = []
            for _ in range(3):
                sk = QuantileSketch(capacity=32)
                for _ in range(500):
                    sk.add(rng.randrange(10_000))
                parts.append(sk)
            out = QuantileSketch(capacity=32)
            for part in parts:
                out.merge(part)
            return out
        a, b = build(), build()
        assert a._levels == b._levels
        assert [a.percentile(q / 20) for q in range(21)] == \
               [b.percentile(q / 20) for q in range(21)]

    def test_merge_empty_is_identity(self):
        a = QuantileSketch(capacity=16)
        for i in range(10):
            a.add(i)
        before = [list(level) for level in a._levels]
        a.merge(QuantileSketch(capacity=16))
        assert a.count == 10
        assert [list(level) for level in a._levels] == before


class TestStreamingLatencyStats:
    def record_all(self, stats, samples):
        for s in samples:
            stats.start()
            stats.record(s, nbytes=8)

    def test_exact_summary_matches_sorted_oracle(self):
        """Below capacity (and always when unbounded) a summary is the
        nearest-rank answer over the sorted samples, with exact sum and
        max."""
        rng = random.Random(2)
        samples = [rng.randrange(100_000) for _ in range(200)]
        ordered = sorted(samples)
        for capacity in (None, 512):
            stats = LatencyStats(sketch_capacity=capacity)
            self.record_all(stats, samples)
            got = stats.summary(elapsed_ps=10_000_000)
            for key, q in (("p50_ns", 0.5), ("p99_ns", 0.99),
                           ("p999_ns", 0.999)):
                assert got[key] == percentile_ps(ordered, q) / 1000.0, key
            assert got["max_ns"] == ordered[-1] / 1000.0
            assert got["mean_ns"] == sum(ordered) / len(ordered) / 1000.0
            assert got["completed"] == got["started"] == 200
            assert got["bytes"] == 200 * 8

    def test_streaming_memory_is_fixed(self):
        stats = LatencyStats(sketch_capacity=128)
        for i in range(100_000):
            stats.start()
            stats.record(i)
        assert stats.sketch.retained() < 128 * 16
        assert stats.sample_count == 100_000
        # mean stays exact (running sum), not sketch-approximate
        assert stats.summary()["mean_ns"] == pytest.approx(
            sum(range(100_000)) / 100_000 / 1000.0)

    def test_metrics_streaming_flag_propagates_to_new_streams(self):
        """The metrics-level sketch capacity reaches every new stream;
        the default stays exact."""
        metrics = Metrics(sketch_capacity=64)
        assert metrics.stream("a").sketch.capacity == 64
        assert Metrics().stream("a").sketch.capacity is None

    def test_total_sketch_merges_streaming_streams(self):
        metrics = Metrics(sketch_capacity=512)
        for name, base in (("a", 1000), ("b", 5000)):
            st = metrics.stream(name)
            for i in range(50):
                st.start()
                st.record(base + i)
        total = metrics.total()
        assert total.sketch_capacity == 512
        assert total.sample_count == 100
        assert total.completed == 100
        # exact below capacity: the roll-up median is the true one
        every = sorted([1000 + i for i in range(50)]
                       + [5000 + i for i in range(50)])
        assert round(total.percentile_ns(0.5) * 1000) == \
               percentile_ps(every, 0.5)

    def test_total_folds_list_streams_into_a_streaming_rollup(self):
        """Exact streams mixed with a bounded one roll up bounded."""
        metrics = Metrics()  # default: exact
        plain = metrics.stream("plain")
        for i in range(10):
            plain.start()
            plain.record(100 + i)
        streamed = LatencyStats(sketch_capacity=512)
        streamed.start()
        streamed.record(1_000_000)
        metrics.streams["streamed"] = streamed
        total = metrics.total()
        assert total.sketch_capacity == 512
        assert total.sample_count == 11
        assert total.summary()["max_ns"] == 1000.0

    def test_percentile_keys_absent_with_zero_samples(self):
        assert "p50_ns" not in LatencyStats().summary()
