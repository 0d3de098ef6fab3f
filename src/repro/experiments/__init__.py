"""Microbenchmark experiments (§4.4 and §5 of the paper).

Each module implements one evaluation experiment end to end on the
simulated cluster and returns plain numbers; the benchmark harness in
:mod:`repro.bench` sweeps them into the paper's tables and figures.

===================  =======================================
module               reproduces
===================  =======================================
``pingpong``         Fig. 3a–c (RDMA / P4 / sPIN store / stream)
``accumulate``       Fig. 3d (remote accumulate, int + dis)
``littles_law``      Fig. 4 + §4.4.2 analytics
``broadcast``        Fig. 5a (binomial broadcast, 3 protocols)
``datatype_recv``    Fig. 7a (strided vector receive)
``raid_update``      Fig. 7c (RAID-5 update, via repro.storage)
===================  =======================================
"""

import importlib

#: Re-exported name -> the submodule that defines it.  Loaded on first
#: access, so importing one experiment (a campaign job runs one) does not
#: import, and register the scenarios of, all of them.
_EXPORTS = {
    "BCAST_MODES": "broadcast",
    "PINGPONG_MODES": "pingpong",
    "accumulate_completion_ns": "accumulate",
    "arrival_rate_mmps": "littles_law",
    "broadcast_latency_ns": "broadcast",
    "datatype_recv_completion_ns": "datatype_recv",
    "hpus_needed": "littles_law",
    "max_handler_time_ns": "littles_law",
    "pingpong_half_rtt_ns": "pingpong",
    "raid_update_completion_ns": "raid_update",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        modname = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{modname}"), name)
