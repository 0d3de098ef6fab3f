"""Session façade: declarative construction, validated installs, teardown."""

import pytest

from repro.core.api import PtlHPUAllocMem, PtlHPUFreeMem, spin_me
from repro.core.handlers import HPUMemory, ReturnCode
from repro.core.nic import SpinNIC
from repro.portals.matching import MatchEntry
from repro.portals.types import PortalsError
from repro.sim import ClusterSpec, Session


def _noop_header_handler(ctx, h):
    ctx.charge(4)
    return ReturnCode.DROP


class TestClusterSpec:
    def test_pair_spec_builds_cross_pod_cluster(self):
        sess = Session.pair("int", nodes=3)
        assert len(sess) == 3
        assert isinstance(sess[0].nic, SpinNIC)
        assert sess[0].memory is None  # with_memory defaults off

    def test_fattree_spec(self):
        sess = Session.fattree(4, config="dis")
        assert len(sess) == 4
        assert sess.config.nic.attachment == "discrete"

    def test_overrides_merge_into_spec(self):
        sess = Session(ClusterSpec(nodes=2), nodes=4, with_memory=True)
        assert len(sess) == 4
        assert sess[0].memory is not None

    def test_machine_config_passthrough(self):
        from repro.machine.config import integrated_config

        config = integrated_config()
        sess = Session.pair(config)
        assert sess.config is config


class TestInstallValidation:
    def test_install_plain_me(self):
        sess = Session.pair("int")
        entry = sess.install(1, MatchEntry(match_bits=7, length=64))
        assert entry in sess[1].ni.pt(0).match_list.priority

    def test_install_rejects_oversized_initial_state(self):
        """Regression: oversized initial_state must fail at install time."""
        sess = Session.pair("int")
        limit = sess[1].ni.limits.max_initial_state
        entry = spin_me(
            match_bits=7,
            header_handler=_noop_header_handler,
            hpu_memory=HPUMemory(limit + 4096),
            initial_state=b"\0" * (limit + 1),
        )
        with pytest.raises(PortalsError, match="initial state"):
            sess.install(1, entry)
        # Rejected before touching the portal table at all.
        assert 0 not in sess[1].ni.portal_table

    def test_install_rejects_freed_hpu_memory(self):
        """Regression: use-after-free HPU memory must fail at install time."""
        sess = Session.pair("int")
        mem = PtlHPUAllocMem(sess[1], 1024)
        PtlHPUFreeMem(mem)
        entry = spin_me(match_bits=7, header_handler=_noop_header_handler,
                        hpu_memory=mem)
        with pytest.raises(PortalsError, match="freed HPU memory"):
            sess.install(1, entry)

    def test_connect_rejects_oversized_hpu_request(self):
        """connect() fails at install time when the HPU allocation is too big."""
        sess = Session.pair("int")
        limit = sess[1].ni.limits.max_handler_mem
        with pytest.raises(PortalsError, match="HPU memory"):
            sess.connect(1, header_handler=_noop_header_handler,
                         hpu_mem_bytes=limit + 1)
        assert not sess.channels  # nothing was tracked or installed

    def test_handler_set_validate_catches_freed_memory(self):
        """The shared validate path connect() uses rejects use-after-free."""
        sess = Session.pair("int")
        channel = sess.connect(1, header_handler=_noop_header_handler)
        PtlHPUFreeMem(channel.hpu_memory)
        with pytest.raises(PortalsError, match="freed HPU memory"):
            channel.entry.spin.validate(sess[1].ni.limits)


class TestChannels:
    def test_connect_installs_and_close_uninstalls(self):
        sess = Session.pair("int")
        channel = sess.connect(1, match_bits=9,
                               header_handler=_noop_header_handler)
        assert channel.entry in sess[1].ni.pt(0).match_list.priority
        sess.close()
        assert channel.entry not in sess[1].ni.pt(0).match_list.priority

    def test_context_manager_closes(self):
        with Session.pair("int") as sess:
            channel = sess.connect(1, header_handler=_noop_header_handler)
        assert channel.entry not in sess[1].ni.pt(0).match_list.priority

    def test_close_is_idempotent_and_tolerates_manual_close(self):
        sess = Session.pair("int")
        channel = sess.connect(1, header_handler=_noop_header_handler)
        channel.close()
        sess.close()
        sess.close()


class TestRunControl:
    def test_session_drives_messages_end_to_end(self):
        served = []

        def header_handler(ctx, h):
            ctx.charge(8)
            served.append(h.length)
            return ReturnCode.DROP

        with Session.pair("int") as sess:
            sess.connect(1, match_bits=3, header_handler=header_handler)

            def client():
                yield from sess[0].host_put(1, 256, match_bits=3)

            proc = sess.process(client())
            sess.run(until=proc)
            sess.drain()
        assert served == [256]
        assert sess.now_ns > 0


class TestHPUPool:
    """The HPU pool is built on a NIC's first handler, never before."""

    @staticmethod
    def _put(sess):
        def client():
            yield from sess[0].host_put(1, 256, match_bits=3)

        sess.process(client())
        sess.drain()

    def test_plain_put_builds_no_pool(self):
        with Session.pair("int") as sess:
            eq = sess[1].new_eq()
            sess.install(1, MatchEntry(match_bits=3, length=256,
                                       event_queue=eq))
            self._put(sess)
            assert len(eq) == 1  # the put completed
            assert all(m.nic._hpus is None for m in sess.cluster.machines)

    def test_payload_handler_builds_pool_on_target_only(self):
        seen = []

        def payload_handler(ctx, pkt):
            seen.append(pkt.payload_len)
            return ReturnCode.SUCCESS

        with Session.pair("int") as sess:
            sess.install(1, spin_me(
                match_bits=3, length=256, payload_handler=payload_handler,
                hpu_memory=PtlHPUAllocMem(sess[1], 64)))
            self._put(sess)
            assert seen == [256]
            assert sess[0].nic._hpus is None
            assert sess[1].nic._hpus is not None
            assert sess[1].nic._hpus.handlers_run == 1
