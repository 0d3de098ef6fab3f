"""Fat-tree topology and per-pair latency computation.

The paper constructs "a fat tree network from 36-port switches" (§4.2).  We
implement the standard 3-level k-ary fat tree [Leiserson'85 / Al-Fares'08]:

* k pods; each pod has k/2 edge switches and k/2 aggregation switches;
* each edge switch connects k/2 hosts;
* (k/2)^2 core switches;
* capacity: k^3/4 hosts (11,664 for k = 36).

Minimal paths traverse 1 switch (same edge switch), 3 switches (same pod) or
5 switches (cross-pod).  Latency per pair follows
:meth:`repro.network.loggp.NetworkParams.latency_for_hops`.

The hop count comes from pod arithmetic (O(1)); :meth:`FatTree.build_graph`
materializes the same topology as a :mod:`networkx` graph so tests can
cross-validate the arithmetic against real shortest paths.  networkx is
only loaded for that cross-validation, never on the simulation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.network.loggp import NetworkParams

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["FatTree", "UniformLatency"]


@dataclass
class FatTree:
    """A 3-level k-ary fat tree holding ``nhosts`` endpoints.

    Hosts are numbered 0..nhosts-1 and filled edge switch by edge switch,
    pod by pod — the standard linear placement LogGOPSim uses.
    """

    params: NetworkParams = field(default_factory=NetworkParams)
    nhosts: int = 2

    def __post_init__(self) -> None:
        k = self.params.switch_radix
        if self.nhosts < 1:
            raise ValueError("need at least one host")
        if self.nhosts > self.capacity:
            raise ValueError(
                f"{self.nhosts} hosts exceed fat-tree capacity {self.capacity} "
                f"for radix {k}"
            )

    # -- structure ---------------------------------------------------------
    @property
    def radix(self) -> int:
        return self.params.switch_radix

    @property
    def hosts_per_edge(self) -> int:
        return self.radix // 2

    @property
    def hosts_per_pod(self) -> int:
        return (self.radix // 2) ** 2

    @property
    def capacity(self) -> int:
        return self.radix**3 // 4

    def edge_switch_of(self, host: int) -> int:
        self._check_host(host)
        return host // self.hosts_per_edge

    def pod_of(self, host: int) -> int:
        self._check_host(host)
        return host // self.hosts_per_pod

    def _check_host(self, host: int) -> None:
        if not 0 <= host < self.nhosts:
            raise ValueError(f"host {host} out of range [0, {self.nhosts})")

    # -- path metrics --------------------------------------------------------
    def switch_hops(self, a: int, b: int) -> int:
        """Number of switches on a minimal path between hosts a and b."""
        self._check_host(a)
        self._check_host(b)
        if a == b:
            return 0
        if self.edge_switch_of(a) == self.edge_switch_of(b):
            return 1
        if self.pod_of(a) == self.pod_of(b):
            return 3
        return 5

    def latency_ps(self, a: int, b: int) -> int:
        """End-to-end L between two hosts (0 for loopback)."""
        return self.params.latency_for_hops(self.switch_hops(a, b))

    # -- networkx cross-validation ------------------------------------------
    def build_graph(self) -> nx.Graph:
        """Materialize hosts+switches as a graph (for tests/inspection).

        Nodes: ``("host", i)``, ``("edge", e)``, ``("agg", pod, i)``,
        ``("core", i)``.  Edges follow the k-ary fat-tree wiring.
        """
        import networkx as nx

        k = self.radix
        g = nx.Graph()
        needed_edges = -(-self.nhosts // self.hosts_per_edge)
        for host in range(self.nhosts):
            g.add_edge(("host", host), ("edge", self.edge_switch_of(host)))
        needed_pods = -(-needed_edges // (k // 2))
        for pod in range(needed_pods):
            for e in range(k // 2):
                edge_id = pod * (k // 2) + e
                if edge_id >= needed_edges and e > 0:
                    continue
                for a in range(k // 2):
                    g.add_edge(("edge", edge_id), ("agg", pod, a))
        for pod in range(needed_pods):
            for a in range(k // 2):
                for c in range(k // 2):
                    g.add_edge(("agg", pod, a), ("core", a * (k // 2) + c))
        return g

    def graph_switch_hops(self, a: int, b: int) -> int:
        """Switch count on a networkx shortest path (slow; tests only)."""
        import networkx as nx

        g = self.build_graph()
        path = nx.shortest_path(g, ("host", a), ("host", b))
        return sum(1 for node in path if node[0] != "host")


@dataclass(frozen=True)
class UniformLatency:
    """A degenerate 'topology': every distinct pair has the same latency.

    Useful for controlled experiments and unit tests where the fat-tree
    placement would add irrelevant variance.
    """

    latency: int
    nhosts: int = 1 << 30

    def latency_ps(self, a: int, b: int) -> int:
        if a == b:
            return 0
        return self.latency

    def switch_hops(self, a: int, b: int) -> int:
        return 0 if a == b else 1
