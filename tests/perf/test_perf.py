"""Perf subsystem: the kernel-event meter and the per-profile event counts.

The per-point counts the meter produces are pinned in
``tests/test_behaviour_contract.py``.
"""

import pytest

from repro.des.engine import Environment
from repro.experiments.pingpong import pingpong_half_rtt_ns
from repro.perf.meter import KernelMeter

from test_behaviour_contract import CONTRACT

#: basket -> (kernel_events, environments) of one pass over the basket.
#: The simulation is deterministic, so these are exact on any host.  A
#: change that moves a count on purpose updates it here and in
#: ``CONTRACT``, and says why.
TINY_COUNTS = {
    "small-message": (1840, 64),
    "large-message": (5666, 12),
    "storage-trace": (35970, 4),
    "app-scale": (37028, 4),
    "congestion": (29312, 3),
    "serving": (66468, 2),
}

#: basket -> {contract point: runs per pass}.  A basket is one load
#: profile: a fixed mix of ``CONTRACT`` points.
BASKETS = {
    "small-message": {
        "pingpong size=64 mode=rdma": 16,
        "pingpong size=64 mode=p4": 16,
        "pingpong --tiny": 16,
        "pingpong size=64 mode=spin_stream": 16,
    },
    "large-message": {
        "pingpong size=65536 mode=rdma": 2,
        "pingpong size=65536 mode=p4": 2,
        "pingpong size=65536 mode=spin_store": 2,
        "pingpong size=65536 mode=spin_stream": 2,
        "pingpong size=262144 mode=rdma": 2,
        "pingpong size=262144 mode=spin_stream": 2,
    },
    "storage-trace": {
        "spc_replay nops=60 family=financial mode=rdma": 1,
        "spc_replay nops=60 family=financial mode=spin": 1,
        "spc_replay nops=60 family=websearch mode=rdma": 1,
        "spc_replay nops=60 family=websearch mode=spin": 1,
    },
    "app-scale": {
        "apps_matching nprocs=16 iters=1 app=MILC": 1,
        "apps_matching nprocs=16 iters=1 app=POP": 1,
    },
    "congestion": {
        "incast_load fanin=8 count=16 seed=3": 1,
        "permutation_traffic nhosts=16 shift=4 count=8 routing=ecmp seed=3": 1,
        "permutation_traffic nhosts=16 shift=4 count=8 routing=dmodk seed=3": 1,
    },
    "serving": {
        "kv_serving requests=1500 window_ns=60000 seed=3": 1,
        "tenant_overload tenants=2 population=50000 requests=600 "
        "window_ns=40000 seed=3": 1,
    },
}


class TestKernelMeter:
    def test_counts_events_across_environments(self):
        with KernelMeter() as meter:
            for _ in range(3):
                env = Environment()
                for _ in range(5):
                    env.timeout(10)
                env.run()
        assert meter.environments == 3
        assert meter.events == 15
        assert meter.wall_s > 0
        assert meter.events_per_sec > 0

    def test_environments_outside_window_not_counted(self):
        outside = Environment()
        outside.timeout(1)
        with KernelMeter() as meter:
            env = Environment()
            env.timeout(1)
            env.run()
        assert meter.events == 1

    def test_nested_meters_rejected(self):
        with KernelMeter():
            with pytest.raises(RuntimeError):
                KernelMeter().__enter__()
        # The outer exit must have restored the hook.
        with KernelMeter() as m:
            Environment().timeout(1)
        assert m.events == 1

    def test_counts_each_session_environment(self):
        # Each pingpong builds a fresh session, so two calls register two
        # environments and schedule exactly twice the events of one.
        with KernelMeter() as one:
            pingpong_half_rtt_ns(64, "spin_store", "int")
        with KernelMeter() as two:
            pingpong_half_rtt_ns(64, "spin_store", "int")
            pingpong_half_rtt_ns(64, "spin_store", "int")
        assert (one.environments, two.environments) == (1, 2)
        assert one.events > 0
        assert two.events == 2 * one.events


class TestBasket:
    def test_baskets_are_contract_points(self):
        assert set(BASKETS) == set(TINY_COUNTS)
        for points in BASKETS.values():
            assert set(points) <= set(CONTRACT)

    @pytest.mark.parametrize("name", list(TINY_COUNTS))
    def test_basket_counts_match_pin(self, name, contract_measured):
        events = envs = 0
        for point, runs in BASKETS[name].items():
            events += runs * contract_measured[point][2]
            envs += runs * contract_measured[point][3]
        assert (events, envs) == TINY_COUNTS[name], (
            f"{name}: (kernel_events, environments) = {(events, envs)}, "
            f"pinned {TINY_COUNTS[name]}")
