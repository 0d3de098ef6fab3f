"""Tests for machine configuration presets (§4.2/§4.3 parameters)."""

import pytest

from repro.des import ns
from repro.machine import HostParams, NICParams, discrete_config, integrated_config


class TestPresets:
    def test_discrete_paper_values(self):
        cfg = discrete_config()
        assert cfg.nic.attachment == "discrete"
        assert cfg.nic.dma_latency_ps == ns(250)
        assert cfg.nic.dma_G_ps_per_byte == pytest.approx(15.6)  # 64 GiB/s

    def test_integrated_paper_values(self):
        cfg = integrated_config()
        assert cfg.nic.attachment == "integrated"
        assert cfg.nic.dma_latency_ps == ns(50)
        assert cfg.nic.dma_G_ps_per_byte == pytest.approx(6.7)  # 150 GiB/s

    def test_host_paper_values(self):
        host = HostParams()
        assert host.cores == 8
        assert host.clock_ghz == 2.5
        assert host.dram_latency_ps == ns(51)
        assert host.mem_G_ps_per_byte == pytest.approx(6.7)

    def test_nic_matching_paper_values(self):
        nic = NICParams()
        assert nic.header_match_ps == ns(30)
        assert nic.cam_lookup_ps == ns(2)
        assert nic.hpu_count == 4
        assert nic.hpu_clock_ghz == 2.5

    def test_overrides(self):
        cfg = integrated_config(hpu_count=8)
        assert cfg.nic.hpu_count == 8
        assert cfg.nic.attachment == "integrated"
        cfg2 = cfg.with_host(cores=4)
        assert cfg2.host.cores == 4
        cfg3 = cfg.with_nic(cam_lookup_ps=ns(5))
        assert cfg3.nic.cam_lookup_ps == ns(5)


class TestCycleConversion:
    def test_hpu_cycles(self):
        nic = NICParams()
        # 2.5 GHz, IPC 1: 1 cycle = 0.4 ns = 400 ps
        assert nic.hpu_cycles_to_ps(1) == 400
        assert nic.hpu_cycles_to_ps(500) == ns(200)  # paper's 200ns for 500 instr

    def test_host_cycles_ipc_adjusted(self):
        host = HostParams()
        # 2.5 GHz at IPC 2: 1000 instructions = 200 ns
        assert host.cycles_to_ps(1000) == ns(200)

    def test_negative_cycles_rejected(self):
        # A negative count is a caller bug, not zero time.
        with pytest.raises(ValueError, match="negative HPU cycle count"):
            NICParams().hpu_cycles_to_ps(-1)
        with pytest.raises(ValueError, match="negative host cycle count"):
            HostParams().cycles_to_ps(-0.5)
        assert NICParams().hpu_cycles_to_ps(0) == 0
        assert HostParams().cycles_to_ps(0) == 0
