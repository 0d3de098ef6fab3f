"""Tests for the Appendix-C handler library (pure pieces + kernels)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PtlHPUAllocMem, spin_me
from repro.handlers_library import (
    PONG_TAG,
    binomial_children,
    complex_multiply_bytes,
    make_pingpong_handlers,
    unpack_vector_reference,
    xor_bytes,
)
from repro.machine import Cluster, integrated_config
from repro.portals.matching import MatchEntry


class TestBinomialChildren:
    def test_power_of_two_root(self):
        assert binomial_children(0, 8) == [4, 2, 1]

    def test_power_of_two_internal(self):
        assert binomial_children(4, 8) == [6, 5]
        assert binomial_children(2, 8) == [3]
        assert binomial_children(6, 8) == [7]

    def test_leaves_have_no_children(self):
        for leaf in (1, 3, 5, 7):
            assert binomial_children(leaf, 8) == []

    def test_non_power_of_two_bounds(self):
        # P=6: children must never exceed the process count.
        for r in range(6):
            for c in binomial_children(r, 6):
                assert 0 <= c < 6

    @given(nprocs=st.integers(min_value=1, max_value=300))
    def test_every_rank_reached_exactly_once(self, nprocs):
        """The tree spans all ranks: each non-root has exactly one parent."""
        reached = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for rank in frontier:
                for child in binomial_children(rank, nprocs):
                    assert child not in reached, "duplicate delivery"
                    reached[child] = reached[rank] + 1
                    nxt.append(child)
            frontier = nxt
        assert len(reached) == nprocs
        # Depth is logarithmic.
        if nprocs > 1:
            import math
            assert max(reached.values()) <= math.ceil(math.log2(nprocs))


class TestKernels:
    def test_xor_bytes_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, 100, dtype=np.uint8)
        b = rng.integers(0, 256, 100, dtype=np.uint8)
        assert np.array_equal(xor_bytes(a, b), a ^ b)

    def test_xor_self_inverse(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, 64, dtype=np.uint8)
        b = rng.integers(0, 256, 64, dtype=np.uint8)
        assert np.array_equal(xor_bytes(xor_bytes(a, b), b), a)

    def test_complex_multiply_matches_numpy(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(16, dtype=np.float32).view(np.uint8).copy()
        b = rng.standard_normal(16, dtype=np.float32).view(np.uint8).copy()
        result = complex_multiply_bytes(a.copy(), b)
        expected = (a.view(np.complex64) * b.view(np.complex64)).view(np.uint8)
        assert np.array_equal(result, expected)

    def test_complex_multiply_truncates_to_pairs(self):
        a = np.zeros(12, np.uint8)  # 1.5 complex64 values
        b = np.zeros(12, np.uint8)
        assert complex_multiply_bytes(a, b).size == 8


class TestUnpackReference:
    def test_simple_vector(self):
        packed = np.arange(8, dtype=np.uint8)
        out = unpack_vector_reference(packed, blocksize=2, stride=4, out_size=16)
        expected = np.zeros(16, np.uint8)
        expected[0:2] = [0, 1]
        expected[4:6] = [2, 3]
        expected[8:10] = [4, 5]
        expected[12:14] = [6, 7]
        assert np.array_equal(out, expected)

    @given(
        blocksize=st.integers(min_value=1, max_value=16),
        count=st.integers(min_value=1, max_value=16),
        pad=st.integers(min_value=0, max_value=16),
    )
    def test_pack_unpack_inverse(self, blocksize, count, pad):
        stride = blocksize + pad
        rng = np.random.default_rng(blocksize * 1000 + count)
        packed = rng.integers(0, 256, blocksize * count, dtype=np.uint8)
        out = unpack_vector_reference(packed, blocksize, stride,
                                      out_size=stride * count)
        # Re-pack: gather blocks back.
        repacked = np.concatenate([
            out[j * stride : j * stride + blocksize] for j in range(count)
        ])
        assert np.array_equal(repacked, packed)


class TestPingpongStoreMode:
    """C.3.1 store mode: the completion handler answers from HPU memory."""

    @staticmethod
    def _pingpong(payload):
        """One 64 B store-mode ping: (pong arrival ps, pong bytes, HPU mem)."""
        cluster = Cluster(2, config=integrated_config())
        origin, target = cluster[0], cluster[1]
        buf = origin.memory.alloc(64)
        pong_eq = origin.new_eq()
        origin.post_me(0, MatchEntry(match_bits=PONG_TAG, start=buf,
                                     length=64, event_queue=pong_eq))
        hh, ph, ch = make_pingpong_handlers(streaming=False)
        mem = PtlHPUAllocMem(target, 8192)
        target.post_me(0, spin_me(match_bits=1, length=64, header_handler=hh,
                                  payload_handler=ph, completion_handler=ch,
                                  hpu_memory=mem))

        def ping():
            yield from origin.host_put(1, 64, match_bits=1, payload=payload)

        arrived = []
        pong_eq.on_next(lambda ev: arrived.append(cluster.env.now))
        cluster.env.process(ping())
        cluster.run()
        assert len(arrived) == 1
        return arrived[0], origin.memory.read(buf, 64), mem

    def test_data_ping_is_echoed_byte_for_byte(self):
        data = np.arange(64, dtype=np.uint8)
        _, pong, _ = self._pingpong(data)
        assert np.array_equal(pong, data)

    def test_payload_free_ping_never_touches_the_hpu_arena(self):
        t_data, _, _ = self._pingpong(np.arange(64, dtype=np.uint8))
        t_modelled, _, mem = self._pingpong(None)
        assert t_modelled == t_data
        assert "raw" not in vars(mem), "HPU byte arena was allocated"
