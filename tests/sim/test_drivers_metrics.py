"""Workload drivers and metrics: determinism, latency math, load shapes."""

import pytest

from repro.core.handlers import ReturnCode
from repro.sim import (
    ClosedLoopDriver,
    LatencyStats,
    Metrics,
    OpenLoopDriver,
    ScheduleDriver,
    Session,
    SizeMix,
    percentile_ps,
)
from repro.traffic import Periodic

TAG = 33


def _serve_session(nodes: int = 2, target: int = 1) -> Session:
    sess = Session.pair("int", nodes=nodes)

    def header_handler(ctx, h):
        ctx.charge(16)
        return ReturnCode.DROP

    sess.connect(target, match_bits=TAG, length=1 << 30,
                 header_handler=header_handler)
    return sess


class TestPercentiles:
    def test_nearest_rank_basics(self):
        samples = sorted([10, 20, 30, 40, 50])
        assert percentile_ps(samples, 0.0) == 10
        assert percentile_ps(samples, 0.5) == 30
        assert percentile_ps(samples, 0.99) == 50
        assert percentile_ps(samples, 1.0) == 50

    def test_single_sample(self):
        assert percentile_ps([7], 0.5) == 7

    def test_empty_and_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile_ps([], 0.5)
        with pytest.raises(ValueError):
            percentile_ps([1], 1.5)

    def test_percentiles_are_monotone(self):
        stats = LatencyStats()
        for latency in (5000, 1000, 9000, 3000, 7000, 2000):
            stats.start()
            stats.record(latency, nbytes=64)
        summary = stats.summary(elapsed_ps=1_000_000)
        assert summary["p50_ns"] <= summary["p99_ns"] <= summary["max_ns"]
        assert summary["completed"] == 6
        assert summary["bytes"] == 6 * 64
        assert summary["throughput_rps"] == pytest.approx(6 / 1e-6)


class TestMetricsRegressions:
    def test_note_colliding_with_rollup_key_raises(self):
        """A note named `completed` must not clobber the total roll-up."""
        metrics = Metrics()
        metrics.stream("load").start()
        metrics.stream("load").record(1000)
        metrics.note("completed", 999)
        with pytest.raises(ValueError, match="completed"):
            metrics.summary()

    def test_note_colliding_with_stream_key_raises(self):
        metrics = Metrics()
        for name in ("a", "b"):
            metrics.stream(name).start()
            metrics.stream(name).record(1000)
        metrics.note("a.completed", 7)
        with pytest.raises(ValueError, match="a.completed"):
            metrics.summary()

    def test_non_colliding_notes_still_ride_along(self):
        metrics = Metrics()
        metrics.stream("load").record(1000)
        metrics.note("lost_requests", 2)
        assert metrics.summary(elapsed_ps=1000)["lost_requests"] == 2

    def test_zero_elapsed_run_keeps_throughput_fields(self):
        """elapsed_ps=0 is a legitimate (empty) run, not 'no elapsed'."""
        metrics = Metrics()
        summary = metrics.summary(elapsed_ps=0)
        assert summary["throughput_rps"] == 0.0
        assert summary["gib_s"] == 0.0
        assert summary["elapsed_ns"] == 0.0
        # Omitting elapsed_ps still omits the rate fields.
        assert "throughput_rps" not in metrics.summary()

    def test_zero_elapsed_stream_summary(self):
        stats = LatencyStats()
        summary = stats.summary(elapsed_ps=0)
        assert summary["throughput_rps"] == 0.0 and summary["gib_s"] == 0.0

    def test_single_stream_keeps_per_stream_keys(self):
        """One named stream must still get its `<name>.<key>` breakdown.

        The breakdown used to appear only with two or more streams, so a
        sweep point that happened to exercise a single stream silently
        lost every `load.*` key downstream consumers were charting.
        """
        metrics = Metrics()
        metrics.stream("load").start()
        metrics.stream("load").record(1000, nbytes=64)
        summary = metrics.summary(elapsed_ps=1_000_000)
        assert summary["load.completed"] == 1
        assert summary["load.bytes"] == 64
        assert summary["completed"] == 1  # roll-up still present
        # per_stream=False still suppresses the breakdown on request.
        assert "load.completed" not in metrics.summary(per_stream=False)
        # No streams at all: nothing to break down, no stray keys.
        assert all("." not in k or k == "elapsed_ns"
                   for k in Metrics().summary(elapsed_ps=0))


class TestObservePtDrops:
    def test_unallocated_portal_emits_present_but_zero(self):
        """A pure-sender node never allocated the portal index; the drop
        keys must still appear (as zeros) so result schemas keep their
        shape regardless of the node's role."""
        with _serve_session() as sess:
            metrics = Metrics()
            metrics.observe_pt_drops(sess[0])  # node 0 only sends
        assert metrics.notes["pt_dropped_messages"] == 0
        assert metrics.notes["pt_dropped_bytes"] == 0

    def test_allocated_portal_snapshots_real_counters(self):
        with _serve_session() as sess:
            metrics = Metrics()
            metrics.observe_pt_drops(sess[1], prefix="server_pt")
        assert "server_pt_dropped_messages" in metrics.notes
        assert "server_pt_dropped_bytes" in metrics.notes


class TestMetrics:
    def test_streams_and_total_rollup(self):
        metrics = Metrics()
        for i in range(4):
            metrics.stream("a").start()
            metrics.stream("a").record(1000 * (i + 1), nbytes=10)
        metrics.stream("b").start()
        metrics.stream("b").record(9000, nbytes=1)
        summary = metrics.summary(elapsed_ps=1_000_000)
        assert summary["completed"] == 5
        assert summary["a.completed"] == 4
        assert summary["b.max_ns"] == 9.0
        assert summary["max_ns"] == 9.0

    def test_notes_ride_along(self):
        metrics = Metrics()
        metrics.note("custom", 3)
        metrics.bump("custom", 2)
        assert metrics.summary()["custom"] == 5

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().record(-1)


class TestSizeMix:
    def test_fixed_mix_is_constant(self):
        import random

        mix = SizeMix.fixed(512)
        rng = random.Random(0)
        assert {mix.sample(rng) for _ in range(8)} == {512}

    def test_weighted_mix_is_deterministic_per_seed(self):
        import random

        mix = SizeMix(sizes=(64, 4096), weights=(3.0, 1.0))
        draws1 = [mix.sample(random.Random(5)) for _ in range(1)]
        draws2 = [mix.sample(random.Random(5)) for _ in range(1)]
        assert draws1 == draws2
        many = [mix.sample(random.Random(i)) for i in range(64)]
        assert set(many) <= {64, 4096}

    def test_validation(self):
        with pytest.raises(ValueError):
            SizeMix(sizes=())
        with pytest.raises(ValueError):
            SizeMix(sizes=(64,), weights=(1.0, 2.0))


class TestOpenLoopDriver:
    def _run(self, seed: int = 3, count: int = 12, rate: float = 1.0):
        sess = _serve_session()
        metrics = Metrics()
        OpenLoopDriver(
            sess, source=0, target=1, rate_mmps=rate, count=count,
            size=SizeMix(sizes=(128, 1024), weights=(1.0, 1.0)),
            match_bits=TAG, seed=seed, metrics=metrics,
        ).start()
        sess.drain()
        return metrics.summary(elapsed_ps=sess.env.now), sess.env.now

    def test_all_requests_complete_and_measure(self):
        summary, now = self._run()
        assert summary["started"] == summary["completed"] == 12
        assert summary["p50_ns"] <= summary["p99_ns"] <= summary["max_ns"]
        assert now > 0

    def test_same_seed_is_bit_identical(self):
        assert self._run(seed=11) == self._run(seed=11)

    def test_different_seed_changes_schedule(self):
        assert self._run(seed=1) != self._run(seed=2)

    def test_higher_offered_rate_finishes_sooner(self):
        _, slow = self._run(rate=0.2)
        _, fast = self._run(rate=5.0)
        assert fast < slow

    def test_invalid_parameters_rejected(self):
        sess = _serve_session()
        with pytest.raises(ValueError):
            OpenLoopDriver(sess, source=0, target=1, rate_mmps=0.0, count=4)
        with pytest.raises(ValueError):
            OpenLoopDriver(sess, source=0, target=1, rate_mmps=1.0, count=0)

    def test_constant_request_dict_survives_every_put(self):
        """A make_request hook may return the same dict every time.

        The driver used to ``pop("target")``/``pop("nbytes")`` straight
        off the hook's return value, so a shared constant dict was
        stripped by the first request and the second raised ``KeyError``.
        """
        sess = _serve_session()
        metrics = Metrics()
        constant = {"target": 1, "nbytes": 96, "match_bits": TAG,
                    "pt_index": 0}

        OpenLoopDriver(
            sess, source=0, target=1, rate_mmps=1.0, count=5,
            match_bits=TAG, seed=7, metrics=metrics,
            make_request=lambda rng, index: constant,
        ).start()
        sess.drain()
        # The hook's dict is untouched and every request was issued off it.
        assert constant == {"target": 1, "nbytes": 96, "match_bits": TAG,
                            "pt_index": 0}
        summary = metrics.summary()
        assert summary["started"] == 5
        assert summary["bytes"] == 5 * 96

    def test_poisson_arrivals_track_the_exact_sample_path(self):
        """Rounding error must not random-walk for Poisson arrivals."""
        import random as _random

        rate, count, seed = 2.7, 25, 5
        rng = _random.Random(seed)
        exact = 0.0
        times = _arrival_times(OpenLoopDriver, rate_mmps=rate, count=count,
                               seed=seed)
        assert len(times) == count
        for t in times:
            exact += rng.expovariate(1.0) * (1_000_000 / rate)
            assert abs(t - exact) <= 0.5

    def test_finalize_reconciles_unacked_requests(self):
        """Requests dropped at the target surface as drops, not silence."""
        from repro.portals.matching import MatchEntry

        sess = Session.pair("int")
        # Only a non-matching ME installed: every put misses and is dropped.
        sess.install(1, MatchEntry(match_bits=TAG + 1, length=1 << 20))
        metrics = Metrics()
        driver = OpenLoopDriver(
            sess, source=0, target=1, rate_mmps=1.0, count=5,
            size=128, match_bits=TAG, seed=3, metrics=metrics,
        )
        driver.start()
        sess.drain()
        md_count_before = len(sess[0].ni.mds)
        assert driver.finalize() == 5
        stats = metrics.stream("load")
        assert stats.completed == 0 and stats.dropped == 5
        assert stats.in_flight == 0
        assert metrics.notes["lost_requests"] == 5
        # The per-request MDs were unbound (no leak).
        assert len(sess[0].ni.mds) == md_count_before - 5
        # Idempotent: a second finalize finds nothing.
        assert driver.finalize() == 0


def _arrival_times(driver_cls, **kwargs) -> list[int]:
    """Sim times at which a driver issued each of its requests."""
    sess = _serve_session()
    times = []

    def make_request(rng, index):
        times.append(sess.env.now)
        return {"target": 1, "nbytes": 64, "match_bits": TAG,
                "pt_index": 0}

    driver_cls(sess, source=0, target=1, match_bits=TAG,
               make_request=make_request, **kwargs).start()
    sess.drain()
    return times


class TestScheduleDriver:
    def test_fixed_gap_arrivals_carry_fractional_error(self):
        """Non-integer mean gaps must not accumulate systematic rate drift.

        At 3 Mmps the mean gap is 333333.33 ps; rounding each gap
        independently would put arrival i at i*333333 — a growing offset
        (-10 ps by the 30th request, unbounded beyond) and an achieved
        rate measurably below the offered one.  Rounding each absolute
        offset once pins arrival i at round(exact offset i).
        """
        count, rate = 30, 3.0
        source = Periodic(rate_mmps=rate, count=count)
        exact = list(source.offsets_ps(None))
        times = _arrival_times(ScheduleDriver, schedule=exact)
        assert times == [round(offset) for offset in exact]
        # N requests span (N-1)*mean: the offered rate is achieved exactly.
        mean_gap_ps = 1_000_000 / rate
        assert abs(times[-1] - (count - 1) * mean_gap_ps) <= 0.5
        # The per-gap rounding's signature drift is absent.
        assert times[-1] != (count - 1) * round(mean_gap_ps)

    def test_decreasing_offset_is_rejected(self):
        """A schedule that runs backwards is a bug in its source; the
        walk names the offending arrival instead of clamping it."""
        with pytest.raises(ValueError, match="arrival 2 at 1000 ps"):
            _arrival_times(ScheduleDriver, schedule=[1000.0, 5000.0, 1000.0])

    def test_equal_offsets_issue_together(self):
        times = _arrival_times(ScheduleDriver,
                               schedule=[0.0, 700.4, 700.2, 1500.0])
        assert times == [0, 700, 700, 1500]


class TestClosedLoopDriver:
    def _run(self, clients: int = 4, think_ns: float = 200.0, seed: int = 9):
        sess = _serve_session(nodes=3, target=2)
        metrics = Metrics()
        ClosedLoopDriver(
            sess, sources=(0, 1), clients=clients, requests_per_client=5,
            think_ns=think_ns, target=2, size=256, match_bits=TAG,
            seed=seed, metrics=metrics,
        ).start()
        sess.drain()
        return metrics, sess.env.now

    def test_every_client_completes_its_requests(self):
        metrics, _ = self._run()
        stats = metrics.stream("load")
        assert stats.completed == 4 * 5
        assert stats.in_flight == 0

    def test_closed_loop_keeps_one_request_in_flight_per_client(self):
        """Total requests = clients * requests_per_client, none dropped."""
        metrics, _ = self._run(clients=3)
        total = metrics.total()
        assert total.started == total.completed == 15

    def test_deterministic_per_seed(self):
        m1, now1 = self._run(seed=4)
        m2, now2 = self._run(seed=4)
        assert now1 == now2
        assert m1.summary(now1) == m2.summary(now2)

    def test_think_time_stretches_the_run(self):
        _, busy = self._run(think_ns=0.0)
        _, idle = self._run(think_ns=5000.0)
        assert idle > busy

    def test_invalid_parameters_rejected(self):
        sess = _serve_session()
        with pytest.raises(ValueError):
            ClosedLoopDriver(sess, sources=(), clients=1,
                             requests_per_client=1, target=1)
        with pytest.raises(ValueError):
            ClosedLoopDriver(sess, sources=(0,), clients=0,
                             requests_per_client=1, target=1)
