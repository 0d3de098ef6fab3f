"""Tests for SPC trace parsing, generation, and replay."""

import pytest

from repro.storage import (
    SPCRecord,
    generate_financial_trace,
    generate_websearch_trace,
    replay_trace_ns,
)


class TestRecord:
    def test_valid(self):
        SPCRecord(asu=0, lba=100, size=4096, opcode="W", timestamp=0.5)

    def test_bad_opcode(self):
        with pytest.raises(ValueError):
            SPCRecord(asu=0, lba=0, size=512, opcode="X", timestamp=0)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            SPCRecord(asu=0, lba=0, size=100, opcode="R", timestamp=0)

    def test_negative_fields(self):
        with pytest.raises(ValueError):
            SPCRecord(asu=0, lba=-1, size=512, opcode="R", timestamp=0)


class TestGenerators:
    def test_financial_write_heavy_small_blocks(self):
        trace = generate_financial_trace(nops=500, seed=3)
        writes = sum(r.opcode == "W" for r in trace)
        assert 0.65 < writes / len(trace) < 0.9
        assert max(r.size for r in trace) <= 8192

    def test_websearch_read_heavy_large_blocks(self):
        trace = generate_websearch_trace(nops=500, seed=4)
        reads = sum(r.opcode == "R" for r in trace)
        assert reads / len(trace) > 0.95
        assert min(r.size for r in trace) >= 8192

    def test_timestamps_monotonic(self):
        for trace in (generate_financial_trace(50), generate_websearch_trace(50)):
            ts = [r.timestamp for r in trace]
            assert ts == sorted(ts)

    def test_deterministic_by_seed(self):
        assert generate_financial_trace(20, seed=7) == generate_financial_trace(20, seed=7)
        assert generate_financial_trace(20, seed=7) != generate_financial_trace(20, seed=8)


class TestReplay:
    def test_spin_improves_financial_trace(self):
        """§5.3: sPIN improves processing time; financial shows big gains."""
        trace = generate_financial_trace(nops=40, seed=5)
        t_rdma = replay_trace_ns(trace, "rdma", "int")
        t_spin = replay_trace_ns(trace, "spin", "int")
        speedup = (t_rdma - t_spin) / t_rdma
        assert 0.0 < speedup < 0.9

    def test_spin_improves_websearch_trace(self):
        trace = generate_websearch_trace(nops=25, seed=6)
        t_rdma = replay_trace_ns(trace, "rdma", "int")
        t_spin = replay_trace_ns(trace, "spin", "int")
        assert t_spin < t_rdma

    def test_financial_gains_exceed_websearch(self):
        """The paper's largest speedup is int NIC + financial traces."""
        fin = generate_financial_trace(nops=40, seed=7)
        web = generate_websearch_trace(nops=25, seed=7)

        def speedup(trace):
            t_rdma = replay_trace_ns(trace, "rdma", "int")
            t_spin = replay_trace_ns(trace, "spin", "int")
            return (t_rdma - t_spin) / t_rdma

        assert speedup(fin) > speedup(web)
