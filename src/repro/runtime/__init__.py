"""MPI-level runtime built on the simulated cluster.

* :mod:`repro.runtime.datatypes` — an MPI derived-datatype engine
  (contiguous / vector / indexed / struct) with numpy-verified pack/unpack
  and the O(1) vector representation §5.2 contrasts with O(n) iovecs;
* :mod:`repro.runtime.msgmatch` — the §5.1 message-matching protocols:
  eager and rendezvous, CPU-progressed (RDMA), NIC-matched (Portals 4),
  and fully offloaded (sPIN handler-issued gets), covering Fig. 5b's
  cases I–IV;
* :mod:`repro.runtime.collectives` — the recursive-doubling allreduce
  schedule the application traces use.
"""

from repro.runtime.datatypes import (
    Contiguous,
    Datatype,
    Indexed,
    Primitive,
    Struct,
    Vector,
    BYTE,
    DOUBLE,
    FLOAT,
    INT32,
)
from repro.runtime.msgmatch import MPIEndpoint, RecvRequest, SendRequest
from repro.runtime.collectives import recursive_doubling_rounds

__all__ = [
    "BYTE",
    "Contiguous",
    "DOUBLE",
    "Datatype",
    "FLOAT",
    "INT32",
    "Indexed",
    "MPIEndpoint",
    "Primitive",
    "RecvRequest",
    "SendRequest",
    "Struct",
    "Vector",
    "recursive_doubling_rounds",
]
