#!/usr/bin/env python3
"""Strided-datatype receive: the §5.2 halo-exchange scenario.

A 3-D stencil's face halos are vector datatypes.  This example builds the
MPI vector type, shows the O(1)-vs-O(n) NIC state argument, verifies the
sPIN unpack handler against the numpy reference on real bytes, and sweeps
Fig 7a's bandwidth comparison.

Run:  python examples/halo_datatypes.py
"""

import numpy as np

from repro.core import PtlHPUAllocMem, spin_me
from repro.experiments.datatype_recv import (
    datatype_recv_completion_ns,
    effective_bandwidth_gib,
)
from repro.handlers_library import make_ddtvec_handlers, unpack_vector_reference
from repro.runtime.datatypes import Vector, iovec_state_bytes, vector_state_bytes
from repro.sim import Session


def main() -> None:
    # --- the datatype of one Y-Z face of a 64^3 double grid --------------
    face = Vector(count=64, blocklen=64 * 8, stride=64 * 64 * 8)
    print(f"halo face: {face.size} B of data over a {face.extent} B extent")
    print(f"NIC state: iovec {iovec_state_bytes(face)} B vs "
          f"vector tuple {vector_state_bytes()} B (O(n) vs O(1), §5.2)")

    # --- correctness: sPIN unpack handler vs numpy reference -------------
    sess = Session.pair("int", with_memory=True)
    src, dst = sess[0], sess[1]
    blocksize, stride, count = 96, 192, 16
    message = blocksize * count
    buf = dst.memory.alloc(stride * count)
    _, ph, _ = make_ddtvec_handlers(blocksize=blocksize, stride=stride)
    eq = dst.new_eq()
    sess.install(1, spin_me(match_bits=5, start=buf, length=message,
                            payload_handler=ph, event_queue=eq,
                            hpu_memory=PtlHPUAllocMem(dst, 256)))
    rng = np.random.default_rng(1)
    packed = rng.integers(0, 256, message, dtype=np.uint8)

    def sender():
        yield from src.host_put(1, message, match_bits=5, payload=packed)

    sess.process(sender())
    sess.drain()
    deposited = dst.memory.read(buf, stride * count)
    reference = unpack_vector_reference(packed, blocksize, stride,
                                        stride * count)
    print(f"sPIN strided deposit matches numpy reference: "
          f"{np.array_equal(deposited, reference)}")
    assert np.array_equal(deposited, reference)

    # --- Fig 7a sweep ------------------------------------------------------
    print("\n4 MiB strided receive (stride = 2 x blocksize):")
    print(f"{'blocksize':>10s} {'RDMA GiB/s':>11s} {'sPIN GiB/s':>11s}")
    for b in (1024, 4096, 65536):
        rdma = datatype_recv_completion_ns(4 << 20, b, "rdma", "int")
        spin = datatype_recv_completion_ns(4 << 20, b, "spin", "int")
        print(f"{b:10d} {effective_bandwidth_gib(4 << 20, rdma):11.1f} "
              f"{effective_bandwidth_gib(4 << 20, spin):11.1f}")
    print("(paper Fig 7a: RDMA ~11.4 GiB/s, sPIN ~46.3 GiB/s)")


if __name__ == "__main__":
    main()
