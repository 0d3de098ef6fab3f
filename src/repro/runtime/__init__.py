"""MPI-level runtime built on the simulated cluster.

* :mod:`repro.runtime.datatypes` — the byte vector datatype and the O(1)
  vector-tuple NIC state §5.2 contrasts with O(n) iovecs;
* :mod:`repro.runtime.msgmatch` — the §5.1 message-matching protocols:
  eager and rendezvous, CPU-progressed (RDMA), NIC-matched (Portals 4),
  and fully offloaded (sPIN handler-issued gets), covering Fig. 5b's
  cases I–IV;
* :mod:`repro.runtime.collectives` — the recursive-doubling allreduce
  schedule the application traces use.
"""

from repro.runtime.datatypes import Vector
from repro.runtime.msgmatch import MPIEndpoint, RecvRequest, SendRequest
from repro.runtime.collectives import recursive_doubling_rounds

__all__ = [
    "MPIEndpoint",
    "RecvRequest",
    "SendRequest",
    "Vector",
    "recursive_doubling_rounds",
]
