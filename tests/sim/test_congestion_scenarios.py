"""Congestion-fabric scenarios: campaign contract, acceptance properties.

Covers the ISSUE 4 acceptance criteria:

* the congestion flavour is opt-in (``ClusterSpec(fabric=...)``) and the
  default stays ``"loggp"``;
* any single-flow workload completes at *identical* times on both fabrics
  (the uncontended-equivalence satellite);
* ``incast_load`` shows monotonically growing p99 and non-zero link-queue
  occupancy as fan-in grows;
* routing is deterministic per (src, dst, msg_id) and the scenarios hold
  the serial-vs-parallel campaign equivalence.
"""

import pytest

from repro.campaign import all_scenarios, get_scenario, run_grid
from repro.campaign.cache import DETERMINISTIC_FIELDS
from repro.machine.config import config_by_name
from repro.network.congestion import CongestionFabric
from repro.network.fabric import Fabric
from repro.portals.matching import MatchEntry
from repro.sim import (
    ClosedLoopDriver,
    ClusterSpec,
    Metrics,
    OpenLoopDriver,
    Session,
)

CONGESTION_SCENARIOS = ("incast_load", "permutation_traffic",
                        "congested_tenants")
TAG = 77


class TestRxStallAccounting:
    """Regression (ISSUE 5): payload tail-drops used to leak rx state.

    A message whose header was matched but whose payload packets the
    congestion fabric tail-dropped can never complete; its ``_MessageRx``
    stayed in ``SpinNIC._rx`` forever, invisible to any metric.  Now
    ``pending_rx``/``rx_stalled_messages`` expose it,
    ``Metrics.observe_fabric`` folds it into summaries, and
    ``Session.close()`` reaps (and accounts) the stalled states.
    """

    def _overloaded_incast(self):
        """16->1 fan-in of multi-packet messages through depth-4 queues."""
        fanin, target = 16, 16
        sess = Session(ClusterSpec(nodes=fanin + 1, config="int",
                                   fabric="congestion", link_queue_depth=4))
        sess.install(target, MatchEntry(match_bits=TAG, length=1 << 30))
        metrics = Metrics()
        drivers = [
            OpenLoopDriver(sess, source=s, target=target, rate_mmps=4.0,
                           count=16, size=16384, match_bits=TAG,
                           seed=6151 + s, metrics=metrics, stream="incast")
            for s in range(fanin)
        ]
        for driver in drivers:
            driver.start()
        sess.drain()
        for driver in drivers:
            driver.finalize()
        return sess, metrics, target

    def test_stalled_rx_states_are_counted_reaped_and_folded(self):
        sess, metrics, target = self._overloaded_incast()
        nic = sess[target].nic
        stalled = nic.rx_stalled_messages
        assert stalled > 0  # payload loss stranded some matched messages
        assert nic.pending_rx >= stalled
        # observe_fabric folds the receiver-side fallout into the summary.
        metrics.observe_fabric(sess.cluster.fabric, elapsed_ps=sess.env.now)
        summary = metrics.summary(elapsed_ps=sess.env.now)
        assert summary["fabric_rx_stalled_messages"] == stalled
        assert summary["fabric_rx_orphan_packets"] == nic.rx_orphan_packets
        # close() reaps the unfinishable states and accounts them per rank.
        sess.close()
        assert sess.stalled_rx[target] == stalled
        assert nic.rx_stalled_messages == 0
        assert nic.pending_rx == 0  # the leak is gone
        sess.close()  # idempotent: nothing double-counted
        assert sess.stalled_rx[target] == stalled

    def test_reap_stalled_is_a_noop_on_healthy_sessions(self):
        with Session.pair("int") as sess:
            sess.install(1, MatchEntry(match_bits=TAG, length=1 << 30))
            driver = OpenLoopDriver(sess, source=0, target=1, rate_mmps=1.0,
                                    count=4, size=4096, match_bits=TAG,
                                    seed=3)
            driver.start()
            sess.drain()
            assert sess[1].nic.pending_rx == 0
            assert sess[1].nic.reap_stalled() == 0
        assert sess.stalled_rx == {}

    def test_incast_scenario_reports_stalls(self):
        result = get_scenario("incast_load").run(
            {"fanin": 16, "count": 16, "depth": 4, "size": 16384})
        assert result["rx_stalled_messages"] > 0
        assert result["rx_orphan_packets"] > 0
        assert result["lost"] >= result["rx_stalled_messages"]


class TestSpecPlumbing:
    def test_default_fabric_is_loggp(self):
        with Session.pair("int") as sess:
            assert type(sess.cluster.fabric) is Fabric

    def test_congestion_flavour_opt_in(self):
        spec = ClusterSpec(nodes=3, fabric="congestion", link_queue_depth=7,
                           routing="dmodk")
        with Session(spec) as sess:
            fabric = sess.cluster.fabric
            assert type(fabric) is CongestionFabric
            assert fabric._depth == 7
            assert fabric._routing == "dmodk"

    def test_unknown_fabric_flavour_rejected(self):
        with pytest.raises(ValueError, match="fabric flavour"):
            ClusterSpec(nodes=2, fabric="teleport").build()

    def test_network_overrides_do_not_touch_base_config(self):
        spec = ClusterSpec(nodes=2, link_queue_depth=3)
        assert spec.resolve_config().network.link_queue_depth == 3
        assert ClusterSpec(nodes=2).resolve_config().network.link_queue_depth == 64


def _single_flow_open(fabric, topology):
    with Session(ClusterSpec(nodes=2, config="int", fabric=fabric,
                             topology=topology)) as sess:
        sess.install(1, MatchEntry(match_bits=TAG, length=1 << 30))
        metrics = Metrics()
        driver = OpenLoopDriver(
            sess, source=0, target=1, rate_mmps=2.0, count=24,
            size=(256, 4096, 10000, 16384), match_bits=TAG, seed=5,
            metrics=metrics,
        )
        driver.start()
        sess.drain()
        driver.finalize()
        return metrics.summary(elapsed_ps=sess.env.now), sess.env.now


def _single_flow_closed(fabric):
    with Session(ClusterSpec(nodes=2, config="int", fabric=fabric)) as sess:
        sess.install(1, MatchEntry(match_bits=TAG, length=1 << 30))
        metrics = Metrics()
        driver = ClosedLoopDriver(
            sess, sources=(0,), clients=3, requests_per_client=8,
            think_ns=200.0, target=1, size=(512, 8192), match_bits=TAG,
            seed=9, metrics=metrics,
        )
        driver.start()
        sess.drain()
        driver.finalize()
        return metrics.summary(elapsed_ps=sess.env.now), sess.env.now


class TestUncontendedEquivalence:
    """Single-flow workloads reduce the congestion model to LogGP exactly."""

    @pytest.mark.parametrize("topology", ("pair", "fattree"))
    def test_open_loop_mixed_sizes_identical(self, topology):
        loggp = _single_flow_open("loggp", topology)
        congestion = _single_flow_open("congestion", topology)
        assert loggp == congestion

    def test_closed_loop_identical(self):
        assert _single_flow_closed("loggp") == _single_flow_closed("congestion")

    def test_single_flow_sees_no_queueing(self):
        with Session(ClusterSpec(nodes=2, fabric="congestion")) as sess:
            sess.install(1, MatchEntry(match_bits=TAG, length=1 << 30))
            driver = OpenLoopDriver(sess, source=0, target=1, rate_mmps=2.0,
                                    count=16, size=16384, match_bits=TAG,
                                    seed=5)
            driver.start()
            sess.drain()
            driver.finalize()
            fabric = sess.cluster.fabric
            assert fabric.max_link_queue() == 0
            assert fabric.total_link_drops() == 0


class TestCampaignContract:
    def test_registered_with_sweeps_tiny_and_tags(self):
        registered = all_scenarios()
        for name in CONGESTION_SCENARIOS:
            assert name in registered
            sc = registered[name]
            assert sc.sweep, f"{name} needs a default sweep grid"
            assert sc.tiny, f"{name} needs tiny smoke params"
            assert "load" in sc.tags and "congestion" in sc.tags

    @pytest.mark.parametrize("name", CONGESTION_SCENARIOS)
    def test_tiny_run_sane(self, name):
        result = get_scenario(name).run(get_scenario(name).tiny)
        assert result["completed"] > 0
        assert 0 < result["p50_ns"] <= result["p99_ns"]

    @pytest.mark.parametrize("name", CONGESTION_SCENARIOS)
    def test_tiny_run_deterministic(self, name):
        sc = get_scenario(name)
        assert sc.run(sc.tiny) == sc.run(sc.tiny)

    def test_seed_changes_results(self):
        sc = get_scenario("incast_load")
        base = dict(sc.tiny)
        assert sc.run({**base, "seed": 1}) != sc.run({**base, "seed": 2})


class TestIncastAcceptance:
    def test_p99_grows_monotonically_with_fanin(self):
        """The headline acceptance: deeper fan-in → strictly higher p99
        and visible queue occupancy on the shared ingress port."""
        sc = get_scenario("incast_load")
        p99s, queues = [], []
        for fanin in (2, 4, 8, 16):
            result = sc.run({"fanin": fanin, "count": 16, "depth": 256})
            p99s.append(result["p99_ns"])
            queues.append(result["max_link_queue"])
        assert p99s == sorted(p99s) and len(set(p99s)) == len(p99s)
        assert all(q > 0 for q in queues)
        assert queues[-1] > queues[0]

    def test_tail_drop_under_overload(self):
        sc = get_scenario("incast_load")
        result = sc.run({"fanin": 16, "count": 16, "depth": 4})
        assert result["link_drops"] > 0
        assert result["lost"] > 0  # dropped requests are never ACKed
        assert result["completed"] + result["lost"] == 16 * 16

    def test_loggp_fabric_blind_to_incast(self):
        """The contrast the subsystem exists for: same workload, no
        in-network queueing signal on the default pipe."""
        sc = get_scenario("incast_load")
        congested = sc.run({"fanin": 8, "count": 12})
        assert congested["max_link_queue"] > 0
        assert congested["max_link_utilization"] > 0.5


class TestPermutationRouting:
    def test_routing_policy_changes_core_contention(self):
        sc = get_scenario("permutation_traffic")
        ecmp = sc.run({"routing": "ecmp", "count": 8})
        dmodk = sc.run({"routing": "dmodk", "count": 8})
        assert ecmp != dmodk  # path selection is observable
        assert ecmp["core_links_used"] > 0 and dmodk["core_links_used"] > 0

    def test_same_seed_same_paths_across_runs(self):
        """Deterministic routing end to end: two identical runs traverse
        identical links with identical per-link packet counts."""
        def run_once():
            with Session(ClusterSpec(
                    nodes=8, config="int", topology="fattree",
                    fabric="congestion")) as sess:
                for host in range(8):
                    sess.install(host, MatchEntry(match_bits=TAG,
                                                  length=1 << 30))
                drivers = [
                    OpenLoopDriver(sess, source=h, target=(h + 3) % 8,
                                   rate_mmps=2.0, count=6, size=8192,
                                   match_bits=TAG, seed=11 + h)
                    for h in range(8)
                ]
                for d in drivers:
                    d.start()
                sess.drain()
                for d in drivers:
                    d.finalize()
                return sess.cluster.fabric.link_stats(sess.env.now)

        assert run_once() == run_once()


class TestCongestedTenants:
    def test_reports_per_tenant_percentiles_and_core_stats(self):
        result = get_scenario("congested_tenants").run({"tenants": 3,
                                                        "count": 10})
        tenant_keys = [k for k in result if k.startswith("t")
                       and k.endswith("_p99_ns")]
        assert len(tenant_keys) == 3
        assert all(result[k] > 0 for k in tenant_keys)
        assert result["core_links_used"] > 0

    def test_tenants_share_one_core_downlink(self):
        """d-mod-k pins every tenant's flow to the same core: exactly one
        core→agg link into the target pod carries all forward traffic."""
        spec = ClusterSpec(
            nodes=8, config=config_by_name("int").with_network(switch_radix=4),
            topology="fattree", fabric="congestion", routing="dmodk",
        )
        with Session(spec) as sess:
            for host in range(8):
                sess.install(host, MatchEntry(match_bits=TAG, length=1 << 30))
            drivers = [
                OpenLoopDriver(sess, source=s, target=0, rate_mmps=2.0,
                               count=6, size=8192, match_bits=TAG, seed=s + 1)
                for s in (4, 5, 6, 7)  # all outside the target's pod
            ]
            for d in drivers:
                d.start()
            sess.drain()
            fabric = sess.cluster.fabric
            # Forward traffic into the target's pod crosses exactly one
            # core switch (ACKs flowing back fan out per-source and are
            # excluded by the direction filter).
            down = [
                (u, link) for (u, v), link in fabric.links.items()
                if u[0] == "core" and v[:2] == ("agg", 0) and link.packets > 0
            ]
            assert len(down) == 1
            shared_core = down[0][0]
            # All four tenants merge on the up-link into that core, and the
            # merge point actually queued.
            up = [
                link for (u, v), link in fabric.links.items()
                if v == shared_core and u[:2] == ("agg", 1) and link.packets > 0
            ]
            assert len(up) == 1 and up[0].max_queue > 0


def _det(record):
    return {k: record[k] for k in DETERMINISTIC_FIELDS}


@pytest.mark.parametrize("name,grid", [
    ("incast_load", {"fanin": (2, 4), "count": (8,)}),
    ("permutation_traffic", {"routing": ("ecmp", "dmodk"), "count": (4,),
                             "nhosts": (8,)}),
    ("congested_tenants", {"tenants": (2, 3), "count": (6,)}),
])
def test_serial_parallel_campaign_equivalence(tmp_path, name, grid):
    """ECMP choices and queue evolution are reproducible across workers."""
    serial = run_grid(name, grid, workers=1,
                      cache_path=tmp_path / "serial.jsonl")
    parallel = run_grid(name, grid, workers=2,
                        cache_path=tmp_path / "parallel.jsonl")
    assert serial.executed == len(serial.jobs)
    assert [_det(r) for r in serial.records] == \
        [_det(r) for r in parallel.records]
