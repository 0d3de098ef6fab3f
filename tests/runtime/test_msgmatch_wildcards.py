"""§5.1's protocol fixes: wildcard rendezvous and O(1) sender state.

Barrett et al.'s triggered-get protocol needed Ω(P) pre-set-up state,
counter match bits, and could not support MPI_ANY_SOURCE.  The sPIN
protocol removes all three limitations — these tests pin that down.
"""

import pytest

from repro.machine.config import integrated_config
from repro.portals.types import ANY_SOURCE
from repro.runtime import MPIEndpoint
from repro.sim.session import Session

LARGE = 1 << 17


class TestWildcardRendezvous:
    def test_any_source_large_recv_completes(self):
        """A wildcard rendezvous receive matches whichever sender arrives."""
        cluster = Session.pair(integrated_config(), nodes=3).cluster
        env = cluster.env
        eps = [MPIEndpoint(cluster[i], "spin") for i in range(3)]
        done = {}

        def sender(rank):
            req = yield from eps[rank].send(2, LARGE, tag=4)
            yield from eps[rank].wait(req)

        def receiver():
            r1 = yield from eps[2].recv(ANY_SOURCE, LARGE, tag=4)
            r2 = yield from eps[2].recv(ANY_SOURCE, LARGE, tag=4)
            yield from eps[2].wait_all([r1, r2])
            done["both"] = r1.done.triggered and r2.done.triggered

        env.process(sender(0))
        env.process(sender(1))
        proc = env.process(receiver())
        env.run(until=proc)
        cluster.run()
        assert done["both"]

    def test_sender_state_is_per_message_not_per_peer(self):
        """The sender posts exactly one get descriptor per rendezvous —
        O(1), not the Ω(P) of the triggered-get protocol."""
        cluster = Session.pair(integrated_config()).cluster
        env = cluster.env
        a = MPIEndpoint(cluster[0], "spin")
        b = MPIEndpoint(cluster[1], "spin")
        mes_before = len(cluster[0].ni.pt(0).match_list.priority)

        def sender():
            req = yield from a.send(1, LARGE, tag=9)
            yield from a.wait(req)

        def receiver():
            req = yield from b.recv(0, LARGE, tag=9)
            yield from b.wait(req)

        env.process(sender())
        proc = env.process(receiver())
        env.run(until=proc)
        cluster.run()
        # The rendezvous data ME was use-once: it is gone after the get.
        mes_after = len(cluster[0].ni.pt(0).match_list.priority)
        assert mes_after == mes_before

    def test_rendezvous_transfer_no_receiver_cpu(self):
        """Preposted sPIN rendezvous keeps the receiving CPU asleep during
        the transfer (full asynchronous progress)."""
        cluster = Session.pair(integrated_config()).cluster
        env = cluster.env
        a = MPIEndpoint(cluster[0], "spin")
        b = MPIEndpoint(cluster[1], "spin")

        def sender():
            req = yield from a.send(1, LARGE, tag=2)
            yield from a.wait(req)

        def receiver():
            req = yield from b.recv(0, LARGE, tag=2)
            busy_before = cluster[1].cpu.busy_ps
            yield req.done
            busy_during = cluster[1].cpu.busy_ps - busy_before
            return busy_during

        env.process(sender())
        proc = env.process(receiver())
        busy_during = env.run(until=proc)
        cluster.run()
        assert busy_during == 0  # the NIC did everything
