"""Tests for the vector datatype and the §5.2 NIC-state argument."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.handlers_library import unpack_vector_reference
from repro.runtime import Vector
from repro.runtime.datatypes import iovec_state_bytes, vector_state_bytes


class TestVector:
    def test_paper_tuple_semantics(self):
        """⟨start, stride, blocksize, count⟩ with O(1) state (§5.2)."""
        v = Vector(count=8, blocklen=1536, stride=2560)
        blocks = list(v.blocks())
        assert len(blocks) == 8
        assert blocks[0] == (0, 1536)
        assert blocks[1] == (2560, 1536)
        assert v.size == 8 * 1536
        assert v.extent == 7 * 2560 + 1536
        assert vector_state_bytes() < iovec_state_bytes(v)

    def test_overlapping_stride_rejected(self):
        with pytest.raises(ValueError):
            Vector(count=2, blocklen=4, stride=2)


class TestLayoutMatchesHandlerReference:
    @given(
        count=st.integers(0, 10),
        blocklen=st.integers(1, 10),
        pad=st.integers(0, 10),
        seed=st.integers(0, 1000),
    )
    def test_blocks_are_where_the_reference_unpack_writes(
        self, count, blocklen, pad, seed
    ):
        """The reference the ddtvec handler is checked against scatters
        packed bytes exactly onto ``Vector.blocks()``, in order."""
        v = Vector(count=count, blocklen=blocklen, stride=blocklen + pad)
        packed = np.random.default_rng(seed).integers(
            1, 256, v.size, dtype=np.uint8)
        out = unpack_vector_reference(packed, blocklen, v.stride, v.extent)
        pos = 0
        mask = np.zeros(out.size, bool)
        for off, ln in v.blocks():
            assert np.array_equal(out[off : off + ln], packed[pos : pos + ln])
            mask[off : off + ln] = True
            pos += ln
        assert pos == v.size
        assert not out[~mask].any()
