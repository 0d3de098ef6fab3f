"""Error paths of the P4sPIN user API and ReturnCode predicate properties."""

import pytest

from repro.core.api import PtlHPUAllocMem, PtlHPUFreeMem, spin_me
from repro.core.handlers import HandlerError, HPUMemory, ReturnCode
from repro.portals.limits import NILimits
from repro.portals.types import PortalsError
from repro.sim import Session


class TestPtlHPUAllocMem:
    def test_alloc_within_limits(self):
        limits = NILimits()
        mem = PtlHPUAllocMem(limits, limits.max_handler_mem)
        assert mem.size == limits.max_handler_mem
        assert not mem.freed

    def test_alloc_beyond_limit_rejected(self):
        limits = NILimits()
        with pytest.raises(PortalsError, match="exceeds limit"):
            PtlHPUAllocMem(limits, limits.max_handler_mem + 1)

    def test_alloc_validates_against_machine_limits(self):
        sess = Session.pair("int")
        machine = sess[0]
        with pytest.raises(PortalsError, match="exceeds limit"):
            PtlHPUAllocMem(machine, machine.ni.limits.max_handler_mem + 1)

    def test_negative_size_rejected(self):
        with pytest.raises(HandlerError, match="negative"):
            PtlHPUAllocMem(NILimits(), -1)


class TestPtlHPUFreeMem:
    def test_free_marks_memory(self):
        mem = PtlHPUAllocMem(NILimits(), 64)
        PtlHPUFreeMem(mem)
        assert mem.freed

    @pytest.mark.parametrize("access", [
        lambda m: m.read(0, 8),
        lambda m: m.write(0, [1] * 8),
        lambda m: m.view(0, 8),
        lambda m: m.load_u64(0),
        lambda m: m.store_u64(0, 1),
    ])
    def test_use_after_free_guard(self, access):
        # Freed before its first touch: the arena was never allocated.
        mem = PtlHPUAllocMem(NILimits(), 64)
        PtlHPUFreeMem(mem)
        with pytest.raises(HandlerError, match="freed"):
            access(mem)

    def test_double_free_is_idempotent(self):
        mem = HPUMemory(32)
        PtlHPUFreeMem(mem)
        PtlHPUFreeMem(mem)
        assert mem.freed


class TestSpinMe:
    def test_no_handlers_degrades_to_plain_me(self):
        entry = spin_me(match_bits=5, length=64)
        assert entry.spin is None

    def test_any_handler_field_creates_handler_set(self):
        entry = spin_me(hpu_memory=HPUMemory(64))
        assert entry.spin is not None
        assert entry.spin.hpu_memory.size == 64

    def test_initial_state_without_hpu_memory_rejected_on_validate(self):
        entry = spin_me(header_handler=lambda ctx, h: ReturnCode.DROP,
                        initial_state=b"\x01\x02")
        with pytest.raises(PortalsError, match="requires HPU memory"):
            entry.spin.validate(NILimits())

    def test_initial_state_larger_than_hpu_memory_rejected(self):
        entry = spin_me(hpu_memory=HPUMemory(4), initial_state=b"\0" * 8)
        with pytest.raises(PortalsError, match="larger than HPU memory"):
            entry.spin.validate(NILimits())

    def test_oversized_user_header_rejected(self):
        limits = NILimits()
        entry = spin_me(hpu_memory=HPUMemory(16),
                        user_hdr_size=limits.max_user_hdr_size + 1)
        with pytest.raises(PortalsError, match="user header"):
            entry.spin.validate(limits)


class TestReturnCodePredicates:
    ALL = tuple(ReturnCode)

    def test_error_codes(self):
        errors = {rc for rc in self.ALL if rc.is_error}
        assert errors == {ReturnCode.FAIL, ReturnCode.SEGV}

    def test_pending_codes_have_non_pending_twin(self):
        for rc in self.ALL:
            if rc.is_pending:
                base = ReturnCode(rc.value.replace("_PENDING", ""))
                assert not base.is_pending
                assert base.drops_message == rc.drops_message
                assert base.proceeds == rc.proceeds
                assert base.processes_data == rc.processes_data

    def test_steering_predicates_are_mutually_exclusive(self):
        for rc in self.ALL:
            steers = [rc.drops_message, rc.proceeds, rc.processes_data]
            assert sum(steers) <= 1

    def test_errors_never_pend_or_steer(self):
        for rc in (ReturnCode.FAIL, ReturnCode.SEGV):
            assert not rc.is_pending
            assert not rc.drops_message
            assert not rc.proceeds
            assert not rc.processes_data

    def test_success_codes_neither_steer_nor_error(self):
        for rc in (ReturnCode.SUCCESS, ReturnCode.SUCCESS_PENDING):
            assert not rc.is_error
            assert not rc.drops_message
            assert not rc.proceeds
            assert not rc.processes_data
