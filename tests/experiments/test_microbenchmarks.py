"""Integration tests for the §4.4 microbenchmark experiments.

These assert the paper's qualitative *shapes* (who wins where); the bench
harness reproduces the full curves.
"""

import pytest

from repro.experiments import (
    PINGPONG_MODES,
    accumulate_completion_ns,
    arrival_rate_mmps,
    broadcast_latency_ns,
    hpus_needed,
    max_handler_time_ns,
    pingpong_half_rtt_ns,
)


class TestPingPong:
    def test_spin_beats_rdma_and_p4_small_messages(self):
        """Fig 3b/3c: sPIN < P4 < RDMA for small messages."""
        for cfg in ("int", "dis"):
            rdma = pingpong_half_rtt_ns(8, "rdma", cfg)
            p4 = pingpong_half_rtt_ns(8, "p4", cfg)
            spin = pingpong_half_rtt_ns(8, "spin_stream", cfg)
            assert spin < p4 < rdma, (cfg, spin, p4, rdma)

    def test_store_equals_stream_for_single_packet(self):
        """§4.4.3: within ~5% for single-packet messages."""
        store = pingpong_half_rtt_ns(64, "spin_store", "dis")
        stream = pingpong_half_rtt_ns(64, "spin_stream", "dis")
        assert store == pytest.approx(stream, rel=0.05)

    def test_streaming_wins_large_messages(self):
        """Fig 3b/3c: large messages benefit from never touching host memory."""
        for cfg in ("int", "dis"):
            stream = pingpong_half_rtt_ns(1 << 18, "spin_stream", cfg)
            store = pingpong_half_rtt_ns(1 << 18, "spin_store", cfg)
            rdma = pingpong_half_rtt_ns(1 << 18, "rdma", cfg)
            assert stream < store
            assert stream < rdma

    def test_discrete_gap_larger_than_integrated(self):
        """Fig 3c: 'the latency difference is more pronounced in the
        discrete setting due to the higher DMA latency'."""
        gap_int = pingpong_half_rtt_ns(8, "rdma", "int") - pingpong_half_rtt_ns(
            8, "spin_stream", "int")
        gap_dis = pingpong_half_rtt_ns(8, "rdma", "dis") - pingpong_half_rtt_ns(
            8, "spin_stream", "dis")
        assert gap_dis > gap_int

    def test_absolute_range_plausible(self):
        """Small-message half-RTT lands in the paper's sub-microsecond band."""
        assert 400 < pingpong_half_rtt_ns(8, "spin_stream", "int") < 900
        assert 500 < pingpong_half_rtt_ns(8, "rdma", "int") < 1200

    @pytest.mark.parametrize("mode", PINGPONG_MODES)
    def test_repeated_calls_give_equal_values(self, mode):
        first = pingpong_half_rtt_ns(64, mode, "int")
        again = [pingpong_half_rtt_ns(64, mode, "int") for _ in range(3)]
        assert again == [first] * 3


class TestAccumulate:
    def test_rdma_wins_small_spin_wins_large(self):
        """Fig 3d: DMA round trips hurt small, pipelining wins large."""
        small_rdma = accumulate_completion_ns(8, "rdma", "dis")
        small_spin = accumulate_completion_ns(8, "spin", "dis")
        assert small_rdma < small_spin  # the 250ns DMA latency is visible

        large_rdma = accumulate_completion_ns(1 << 18, "rdma", "dis")
        large_spin = accumulate_completion_ns(1 << 18, "spin", "dis")
        assert large_spin < large_rdma

    def test_integrated_spin_small_penalty_smaller(self):
        """Fig 3d: the small-message penalty shrinks with the int NIC."""
        pen_dis = accumulate_completion_ns(8, "spin", "dis") - accumulate_completion_ns(
            8, "rdma", "dis")
        pen_int = accumulate_completion_ns(8, "spin", "int") - accumulate_completion_ns(
            8, "rdma", "int")
        assert pen_int < pen_dis

    def test_large_speedup_factor(self):
        """sPIN's large-message win is a real factor, not noise."""
        rdma = accumulate_completion_ns(1 << 18, "rdma", "int")
        spin = accumulate_completion_ns(1 << 18, "spin", "int")
        assert rdma / spin > 1.3


class TestLittlesLaw:
    def test_arrival_rate_range(self):
        """§4.4.2: 12.5 Mmps ≤ Δ ≤ 150 Mmps."""
        assert arrival_rate_mmps(4096) == pytest.approx(12.2, rel=0.02)
        assert arrival_rate_mmps(64) == pytest.approx(149.25, rel=0.01)

    def test_paper_hat_Ts(self):
        """8 HPUs sustain any packet size if T <= ~53ns."""
        assert max_handler_time_ns(8, 64) == pytest.approx(53.6, rel=0.01)
        assert hpus_needed(53, 64) == 8
        assert hpus_needed(54, 64) == 9

    def test_paper_hat_Tl_4096(self):
        """T̂l(4096) = 8·G·s = 650 ns."""
        assert max_handler_time_ns(8, 4096) == pytest.approx(655.36, rel=0.01)

    def test_g_bound_vs_G_bound_crossover(self):
        """Below 335 B requirements are flat (g-bound), then they fall."""
        flat = {hpus_needed(200, s) for s in (16, 64, 128, 300)}
        assert len(flat) == 1
        assert hpus_needed(200, 4096) < hpus_needed(200, 335)

    def test_monotonicity(self):
        assert hpus_needed(1000, 512) >= hpus_needed(100, 512)


class TestBroadcast:
    def test_spin_fastest_small_message(self):
        """Fig 5a, 8B: direct NIC forwarding beats CPU and triggered ops."""
        rdma = broadcast_latency_ns(16, 8, "rdma", "dis")
        p4 = broadcast_latency_ns(16, 8, "p4", "dis")
        spin = broadcast_latency_ns(16, 8, "spin", "dis")
        assert spin < p4 < rdma

    def test_spin_fastest_large_message(self):
        """Fig 5a, 64KiB: streaming pipelining wins."""
        rdma = broadcast_latency_ns(16, 1 << 16, "rdma", "dis")
        p4 = broadcast_latency_ns(16, 1 << 16, "p4", "dis")
        spin = broadcast_latency_ns(16, 1 << 16, "spin", "dis")
        assert spin < p4
        assert spin < rdma

    def test_latency_grows_with_process_count(self):
        lat = [broadcast_latency_ns(p, 8, "spin", "dis") for p in (4, 16, 64)]
        assert lat[0] < lat[1] < lat[2]

    def test_single_process_broadcast_trivial(self):
        assert broadcast_latency_ns(2, 8, "rdma", "dis") > 0
