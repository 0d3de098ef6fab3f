"""Tests for the fat-tree topology: hop arithmetic vs networkx ground truth."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import FatTree, NetworkParams, UniformLatency


def small_tree(nhosts=64, radix=8):
    return FatTree(params=NetworkParams(switch_radix=radix), nhosts=nhosts)


class TestStructure:
    def test_capacity_36_port(self):
        tree = FatTree(nhosts=1024)
        assert tree.capacity == 36**3 // 4 == 11664
        assert tree.hosts_per_edge == 18
        assert tree.hosts_per_pod == 324

    def test_too_many_hosts_rejected(self):
        with pytest.raises(ValueError):
            FatTree(params=NetworkParams(switch_radix=4), nhosts=17)  # cap=16

    def test_pod_and_edge_assignment(self):
        tree = small_tree(nhosts=64, radix=8)  # 4 hosts/edge, 16 hosts/pod
        assert tree.edge_switch_of(0) == 0
        assert tree.edge_switch_of(3) == 0
        assert tree.edge_switch_of(4) == 1
        assert tree.pod_of(15) == 0
        assert tree.pod_of(16) == 1


class TestHops:
    def test_loopback(self):
        assert small_tree().switch_hops(5, 5) == 0

    def test_same_edge(self):
        tree = small_tree()
        assert tree.switch_hops(0, 3) == 1

    def test_same_pod(self):
        tree = small_tree()
        assert tree.switch_hops(0, 4) == 3

    def test_cross_pod(self):
        tree = small_tree()
        assert tree.switch_hops(0, 16) == 5

    def test_symmetry(self):
        tree = small_tree()
        for a, b in [(0, 3), (0, 4), (0, 16), (7, 63)]:
            assert tree.switch_hops(a, b) == tree.switch_hops(b, a)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            small_tree(nhosts=8).switch_hops(0, 8)


class TestLatency:
    def test_cross_pod_latency_value(self):
        tree = FatTree(nhosts=1024)
        # 5 switches * 50ns + 6 wires * 33.4ns = 450.4 ns
        assert tree.latency_ps(0, 324) == 450_400

    def test_same_edge_latency_value(self):
        tree = FatTree(nhosts=1024)
        assert tree.latency_ps(0, 1) == 116_800  # 50 + 2*33.4


class TestAgainstNetworkx:
    @settings(max_examples=20, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=31),
        b=st.integers(min_value=0, max_value=31),
    )
    def test_arithmetic_matches_graph_shortest_path(self, a, b):
        tree = small_tree(nhosts=32, radix=8)  # radix-8 capacity = 128
        if a == b:
            assert tree.switch_hops(a, b) == 0
            return
        assert tree.switch_hops(a, b) == tree.graph_switch_hops(a, b)


class TestUniformLatency:
    def test_uniform(self):
        u = UniformLatency(latency=1000)
        assert u.latency_ps(0, 1) == 1000
        assert u.latency_ps(3, 3) == 0
