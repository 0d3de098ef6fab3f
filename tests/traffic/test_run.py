"""TrafficRun: lowering specs onto sessions, sinks, windows, reliability."""

import pytest

from repro.sim import ClusterSpec, Metrics, Session, WindowedMetrics
from repro.traffic import (
    BurstyOnOff,
    Edge,
    Periodic,
    Poisson,
    TraceReplay,
    TrafficRun,
    TrafficSpec,
    all_to_one,
    pairwise,
    permutation,
)


def _periodic_spec(**kwargs):
    return TrafficSpec(
        edges=permutation(3, 1, Periodic(rate_mmps=2.0, count=5), size=512),
        **kwargs)


class TestLowering:
    def test_every_offered_request_completes(self):
        spec = _periodic_spec()
        with Session(ClusterSpec(nodes=3)) as sess:
            run = TrafficRun(sess, spec)
            metrics = run.run()
        summary = metrics.summary(elapsed_ps=1)
        assert run.offered_total() == 15
        assert summary["completed"] == 15
        assert summary["dropped"] == 0

    def test_each_edge_feeds_its_own_stream(self):
        spec = _periodic_spec()
        with Session(ClusterSpec(nodes=3)) as sess:
            metrics = TrafficRun(sess, spec).run()
        assert set(metrics.streams) == {"e0-1", "e1-2", "e2-0"}
        for stats in metrics.streams.values():
            assert stats.completed == 5

    def test_session_too_small_is_rejected_up_front(self):
        spec = _periodic_spec()
        with Session(ClusterSpec(nodes=2)) as sess:
            with pytest.raises(ValueError, match="needs 3 nodes"):
                TrafficRun(sess, spec)

    def test_trace_replay_sizes_override_the_edge_size(self):
        spec = TrafficSpec(edges=(
            Edge(src=0, dst=1,
                 source=TraceReplay(offsets_ns=(0.0, 10.0, 20.0),
                                    sizes=(64, 256, 1024)),
                 size=9999),
        ))
        with Session(ClusterSpec(nodes=2)) as sess:
            metrics = TrafficRun(sess, spec).run()
        assert metrics.total().bytes_total == 64 + 256 + 1024

    def test_record_captures_issue_order_and_sizes(self):
        spec = TrafficSpec(
            edges=pairwise(((0, 1), (1, 0)),
                           Periodic(rate_mmps=1.0, count=3), size=128))
        record = []
        with Session(ClusterSpec(nodes=2)) as sess:
            TrafficRun(sess, spec, record=record).run()
        assert len(record) == 6
        assert all(ev.nbytes == 128 for ev in record)
        assert {(ev.src, ev.dst) for ev in record} == {(0, 1), (1, 0)}
        times = [ev.t_ns for ev in record]
        assert sorted(times) != [0.0] * 6

    def test_run_is_idempotent_via_started_flag(self):
        spec = _periodic_spec()
        with Session(ClusterSpec(nodes=3)) as sess:
            run = TrafficRun(sess, spec)
            run.start()
            run.start()  # second start must not double the load
            sess.drain()
            run.finalize()
        assert run.metrics.total().completed == run.offered_total()

    def test_decreasing_custom_source_is_rejected(self):
        """Every built-in source is non-decreasing, so a custom source
        that steps backwards is a bug: the walk names the arrival."""

        class Backwards:
            def offsets_ps(self, rng):
                return iter((0.0, 3000.0, 2000.0))

        spec = TrafficSpec(edges=(Edge(src=0, dst=1, source=Backwards()),))
        with Session(ClusterSpec(nodes=2)) as sess:
            run = TrafficRun(sess, spec)
            with pytest.raises(ValueError, match="arrival 2 at 2000 ps"):
                run.run()


class TestDeterministicDraws:
    def test_poisson_schedules_identical_across_runs(self):
        spec = TrafficSpec(
            edges=permutation(3, 1, Poisson(rate_mmps=3.0, count=8)),
            seed=11)

        def schedules():
            with Session(ClusterSpec(nodes=3)) as sess:
                run = TrafficRun(sess, spec)
                return [d.schedule for d in run.drivers]

        assert schedules() == schedules()

    def test_seed_steers_the_schedules(self):
        def schedules(seed):
            spec = TrafficSpec(
                edges=permutation(3, 1, Poisson(rate_mmps=3.0, count=8)),
                seed=seed)
            with Session(ClusterSpec(nodes=3)) as sess:
                return [d.schedule for d in TrafficRun(sess, spec).drivers]

        assert schedules(1) != schedules(2)

    def test_edges_draw_from_independent_streams(self):
        # Removing one edge must not change another edge's schedule.
        poisson = Poisson(rate_mmps=3.0, count=8)
        both = TrafficSpec(edges=pairwise(((0, 1), (0, 2)), poisson), seed=7)
        alone = TrafficSpec(edges=pairwise(((0, 1),), poisson), seed=7)
        with Session(ClusterSpec(nodes=3)) as sess:
            sched_both = TrafficRun(sess, both).drivers[0].schedule
        with Session(ClusterSpec(nodes=3)) as sess:
            sched_alone = TrafficRun(sess, alone).drivers[0].schedule
        assert sched_both == sched_alone


class TestWindowsAndQueues:
    def test_bursting_queue_grows_on_phase_and_drains_off_phase(self):
        # The acceptance transient: overload during on windows builds the
        # victim-ingress backlog; the off windows drain it back down.
        on_ns = off_ns = 2000.0
        spec = TrafficSpec(
            edges=all_to_one(4, 4, BurstyOnOff(
                on_ns=on_ns, off_ns=off_ns, rate_on_mmps=6.0, cycles=2),
                size=4096, stream="burst"),
            nodes=5, seed=1)
        windows = WindowedMetrics(window_ns=500.0)
        with Session(ClusterSpec(nodes=5, fabric="congestion",
                                 link_queue_depth=128)) as sess:
            TrafficRun(sess, spec, windows=windows).run()
        queue = windows.series("queue_max")
        per_phase = 4  # 2000 ns phases / 500 ns windows
        # The backlog peaks just after the on phase ends (completions lag
        # arrivals), so judge the cycle as a whole: a clear peak inside
        # the first on+off cycle, drained well down by the time the
        # second on phase begins, and fully drained by the end.
        cycle1_peak = max(queue[:2 * per_phase])
        assert cycle1_peak > 4 * max(queue[0], 1), \
            f"no growth during on phase: {queue}"
        assert queue[2 * per_phase] < cycle1_peak / 3, \
            f"no drain during off phase: {queue}"
        assert queue[-1] == 0, f"backlog never fully drained: {queue}"

    def test_windows_bin_completions_per_stream(self):
        spec = _periodic_spec()
        windows = WindowedMetrics(window_ns=1000.0)
        with Session(ClusterSpec(nodes=3)) as sess:
            TrafficRun(sess, spec, windows=windows).run()
        assert sum(windows.series("completed")) == 15
        assert sum(windows.series("completed", stream="e0-1")) == 5

    def test_no_windows_means_no_sampler_state(self):
        spec = _periodic_spec()
        with Session(ClusterSpec(nodes=3)) as sess:
            run = TrafficRun(sess, spec)
            assert run._sample_period is None
            run.run()

    def test_plain_fabric_samples_zero_depth(self):
        # The contention-free pipe has no per-link queues; sampling must
        # degrade to zeros, not crash.
        spec = _periodic_spec()
        windows = WindowedMetrics(window_ns=500.0)
        with Session(ClusterSpec(nodes=3)) as sess:
            TrafficRun(sess, spec, windows=windows).run()
        assert set(windows.series("queue_max")) == {0}


class TestReliabilityComposition:
    def test_timeout_retries_reach_every_edge_driver(self):
        spec = _periodic_spec()
        with Session(ClusterSpec(nodes=3)) as sess:
            run = TrafficRun(sess, spec, timeout_ns=50000.0, retries=2)
            for driver in run.drivers:
                assert driver.timeout_ps == 50_000_000
                assert driver.retries == 2
            run.run()
        assert run.metrics.total().completed == run.offered_total()

    def test_make_request_hook_owns_the_request(self):
        calls = []

        def hook(rng, index):
            calls.append(index)
            return {"target": 1, "nbytes": 32, "match_bits": 57,
                    "pt_index": 0}

        spec = TrafficSpec(edges=(
            Edge(src=0, dst=1, source=Periodic(rate_mmps=1.0, count=4),
                 make_request=hook),
        ))
        with Session(ClusterSpec(nodes=2)) as sess:
            metrics = TrafficRun(sess, spec).run()
        assert calls == [0, 1, 2, 3]
        assert metrics.total().bytes_total == 4 * 32
