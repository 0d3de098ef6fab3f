"""Distributed RAID storage use case (§5.3).

* :mod:`repro.storage.raid` — an in-memory RAID-5 object store (4 data
  nodes + 1 parity node) with both write protocols of Fig. 7b: the
  RDMA/CPU protocol and the sPIN NIC-offloaded protocol, plus offloaded
  reads.
* :mod:`repro.storage.spc` — Storage Performance Council (SPC-1-format)
  trace tooling: the record type and synthetic generators for the two
  workload families the paper replays (financial OLTP and web
  search), plus the replayer that produces the §5.3 speedups.
"""

from repro.storage.raid import RaidCluster, RAID_WRITE_TAG
from repro.storage.spc import (
    SPCRecord,
    generate_financial_trace,
    generate_websearch_trace,
    replay_trace_ns,
)

__all__ = [
    "RAID_WRITE_TAG",
    "RaidCluster",
    "SPCRecord",
    "generate_financial_trace",
    "generate_websearch_trace",
    "replay_trace_ns",
]
