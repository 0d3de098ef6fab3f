"""TrafficSpec DSL: source processes, edges, graph constructors."""

import random

import pytest

from repro.traffic import (
    BurstyOnOff,
    Edge,
    Periodic,
    Poisson,
    TraceReplay,
    TrafficSpec,
    all_to_one,
    pairwise,
    permutation,
)


def _offsets(source, seed=1):
    return list(source.offsets_ps(random.Random(seed)))


class TestSources:
    def test_periodic_exact_multiples_no_drift(self):
        # 3 Mmps has a non-integer mean gap (333333.3 ps); offsets must be
        # exact multiples, not sums of rounded gaps.
        out = _offsets(Periodic(rate_mmps=3.0, count=4, phase_ns=1.0))
        gap = 1_000_000.0 / 3.0
        assert out == [1000.0 + i * gap for i in range(4)]

    def test_poisson_is_seed_deterministic_and_monotone(self):
        src = Poisson(rate_mmps=2.0, count=50)
        a, b = _offsets(src, seed=9), _offsets(src, seed=9)
        assert a == b
        assert a == sorted(a)
        assert _offsets(src, seed=10) != a

    def test_bursty_arrivals_stay_inside_on_phases(self):
        src = BurstyOnOff(on_ns=100.0, off_ns=300.0, rate_on_mmps=50.0,
                          cycles=3)
        period = 400_000.0  # ps
        out = _offsets(src)
        assert out, "no arrivals — weak fixture"
        for t in out:
            assert (t % period) <= 100_000.0, f"arrival {t} in an off phase"

    def test_bursty_off_rate_emits_into_off_phases(self):
        src = BurstyOnOff(on_ns=100.0, off_ns=100.0, rate_on_mmps=50.0,
                          rate_off_mmps=20.0, cycles=2)
        out = _offsets(src)
        in_off = [t for t in out if 100_000.0 < (t % 200_000.0) < 200_000.0]
        assert in_off

    def test_trace_replay_validates_ordering_and_sizes(self):
        with pytest.raises(ValueError):
            TraceReplay(offsets_ns=(5.0, 3.0))
        with pytest.raises(ValueError):
            TraceReplay(offsets_ns=(1.0, 2.0), sizes=(64,))
        src = TraceReplay(offsets_ns=(1.0, 2.0), sizes=(64, 128))
        assert _offsets(src) == [1000.0, 2000.0]

    def test_rejects_nonpositive_rates_and_counts(self):
        with pytest.raises(ValueError):
            Periodic(rate_mmps=0.0, count=1)
        with pytest.raises(ValueError):
            Poisson(rate_mmps=1.0, count=0)
        with pytest.raises(ValueError):
            BurstyOnOff(on_ns=0.0, off_ns=1.0, rate_on_mmps=1.0)


class TestEdgesAndGraphs:
    def test_edge_rejects_self_loop_and_non_source(self):
        src = Periodic(rate_mmps=1.0, count=1)
        with pytest.raises(ValueError):
            Edge(src=2, dst=2, source=src)
        with pytest.raises(ValueError):
            Edge(src=0, dst=1, source="not a source")

    def test_stream_name_defaults_to_edge_label(self):
        src = Periodic(rate_mmps=1.0, count=1)
        assert Edge(src=0, dst=3, source=src).stream_name == "e0-3"
        assert Edge(src=0, dst=3, source=src, stream="x").stream_name == "x"

    def test_all_to_one_skips_the_target(self):
        src = Periodic(rate_mmps=1.0, count=1)
        edges = all_to_one(4, 2, src)
        assert [(e.src, e.dst) for e in edges] == [(0, 2), (1, 2), (3, 2)]

    def test_permutation_shift_and_identity_rejection(self):
        src = Periodic(rate_mmps=1.0, count=1)
        edges = permutation(4, 1, src)
        assert [(e.src, e.dst) for e in edges] == [(0, 1), (1, 2), (2, 3),
                                                   (3, 0)]
        with pytest.raises(ValueError):
            permutation(4, 4, src)

    def test_graphs_compose_into_one_spec(self):
        src = Periodic(rate_mmps=1.0, count=1)
        spec = TrafficSpec(edges=all_to_one(3, 3, src) + pairwise(
            ((3, 0),), src))
        assert [(e.src, e.dst) for e in spec.edges] == [(0, 3), (1, 3),
                                                        (2, 3), (3, 0)]
        assert spec.min_nodes() == 4

    def test_explicit_node_count_must_cover_the_ranks(self):
        src = Periodic(rate_mmps=1.0, count=1)
        with pytest.raises(ValueError):
            TrafficSpec(edges=pairwise(((0, 5),), src), nodes=4)


class TestSpecSeeding:
    def test_edge_seeds_are_distinct_and_stable(self):
        src = Periodic(rate_mmps=1.0, count=1)
        spec = TrafficSpec(edges=permutation(8, 1, src), seed=3)
        seeds = [spec.edge_seed(i) for i in range(len(spec.edges))]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [spec.edge_seed(i) for i in range(len(spec.edges))]
        other = TrafficSpec(edges=permutation(8, 1, src), seed=4)
        assert spec.edge_seed(0) != other.edge_seed(0)

    def test_from_trace_groups_by_edge_in_first_appearance_order(self):
        events = [
            (0.0, 0, 2, 64),
            (1.0, 1, 2, 128),
            (2.0, 0, 2, 64),
        ]
        spec = TrafficSpec.from_trace(events)
        assert [(e.src, e.dst) for e in spec.edges] == [(0, 2), (1, 2)]
        replay = spec.edges[0].source
        assert replay.offsets_ns == (0.0, 2.0)
        assert replay.sizes == (64, 64)
