"""Unit tests for return codes, HPU memory, and handler bindings."""

import numpy as np
import pytest

from repro.core import HPUMemory, HandlerSet, ReturnCode
from repro.core.handlers import HandlerError
from repro.portals import NILimits, PortalsError


class TestReturnCode:
    def test_error_codes(self):
        assert ReturnCode.FAIL.is_error and ReturnCode.SEGV.is_error
        assert not ReturnCode.SUCCESS.is_error

    def test_pending_codes(self):
        for code in (
            ReturnCode.DROP_PENDING,
            ReturnCode.PROCESS_DATA_PENDING,
            ReturnCode.PROCEED_PENDING,
            ReturnCode.SUCCESS_PENDING,
        ):
            assert code.is_pending
        assert not ReturnCode.PROCEED.is_pending

    def test_steering_predicates(self):
        assert ReturnCode.DROP.drops_message
        assert ReturnCode.PROCEED_PENDING.proceeds
        assert ReturnCode.PROCESS_DATA.processes_data
        assert not ReturnCode.SUCCESS.processes_data


class TestHPUMemory:
    def test_write_read_round_trip(self):
        mem = HPUMemory(128)
        mem.write(16, np.arange(8, dtype=np.uint8))
        assert np.array_equal(mem.read(16, 8), np.arange(8, dtype=np.uint8))

    def test_out_of_bounds_raises_handler_error(self):
        mem = HPUMemory(16)
        with pytest.raises(HandlerError):
            mem.read(10, 8)
        with pytest.raises(HandlerError):
            mem.write(-1, np.zeros(2, np.uint8))

    def test_use_after_free(self):
        mem = HPUMemory(16)
        mem.freed = True
        with pytest.raises(HandlerError):
            mem.read(0, 1)

    def test_u64_accessors(self):
        mem = HPUMemory(16)
        mem.store_u64(8, 0xDEADBEEF)
        assert mem.load_u64(8) == 0xDEADBEEF
        mem.store_u64(0, (1 << 64) + 5)  # wraps to 5
        assert mem.load_u64(0) == 5

    def test_vars_dict(self):
        mem = HPUMemory(0)
        mem.vars["count"] = 3
        assert mem.vars["count"] == 3

    def test_untouched_memory_reads_zeros(self):
        mem = HPUMemory(32)
        assert np.array_equal(mem.read(0, 32), np.zeros(32, np.uint8))
        assert not mem.view(8, 16).any()
        assert mem.load_u64(24) == 0

    def test_raw_is_one_persistent_writable_arena(self):
        mem = HPUMemory(16)
        assert mem.raw.dtype == np.uint8 and mem.raw.shape == (16,)
        assert not mem.raw.any()
        mem.raw[3] = 5
        assert mem.raw[3] == 5 and mem.read(3, 1)[0] == 5
        mem.write(4, [6])
        assert mem.raw[4] == 6 and mem.raw is mem.raw


class TestHandlerSet:
    def test_validate_against_limits(self):
        limits = NILimits(max_handler_mem=1024, max_initial_state=64)
        hs = HandlerSet(hpu_memory=HPUMemory(512), initial_state=b"x" * 64)
        hs.validate(limits)

    def test_oversized_hpu_memory_rejected(self):
        limits = NILimits(max_handler_mem=128, max_initial_state=16)
        hs = HandlerSet(hpu_memory=HPUMemory(256))
        with pytest.raises(PortalsError):
            hs.validate(limits)

    def test_initial_state_requires_hpu_memory(self):
        with pytest.raises(PortalsError):
            HandlerSet(initial_state=b"abc").validate(NILimits())

    def test_initial_state_too_large_for_memory(self):
        hs = HandlerSet(hpu_memory=HPUMemory(2), initial_state=b"abcd")
        with pytest.raises(PortalsError):
            hs.validate(NILimits())

    def test_ensure_state_copies_once(self):
        hs = HandlerSet(hpu_memory=HPUMemory(16), initial_state=b"\x07\x08")
        hs.ensure_state()
        assert hs.hpu_memory.raw[0] == 7 and hs.hpu_memory.raw[1] == 8
        hs.hpu_memory.raw[0] = 99
        hs.ensure_state()  # second call must not overwrite
        assert hs.hpu_memory.raw[0] == 99
