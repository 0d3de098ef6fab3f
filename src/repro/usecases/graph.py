"""Distributed graph kernels with handler-side vertex updates (§5.4).

BFS visit and SSSP relax messages crossing node boundaries are applied by
payload handlers directly (conditional min-update in the handler), saving
the store-batch-reload round trip through host memory.  Results are
verified against networkx on the full graph.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator

from repro.core.handlers import ReturnCode
from repro.machine.config import MachineConfig, config_by_name
from repro.sim.session import Session

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["DistributedGraph"]

RELAX_TAG = 90


class DistributedGraph:
    """A weighted graph partitioned over ``nparts`` simulated nodes."""

    def __init__(self, graph: nx.Graph, nparts: int = 2,
                 config: MachineConfig | str = "int"):
        if isinstance(config, str):
            config = config_by_name(config)
        self.graph = graph
        self.nparts = nparts
        self.session = Session.pair(config, nodes=nparts)
        self.cluster = self.session.cluster
        self.env = self.session.env
        self.dist: dict = {v: math.inf for v in graph.nodes}
        self.handler_updates = 0
        self.handler_rejects = 0
        dg = self

        def relax_header_handler(ctx, h):
            # Message carries (vertex, candidate distance): conditionally
            # update — the atomic check-and-min the paper describes.
            ctx.charge(10)
            vertex, cand = h.user_hdr["vertex"], h.user_hdr["distance"]
            if cand < dg.dist[vertex]:
                dg.dist[vertex] = cand
                dg.handler_updates += 1
                # Re-relax the vertex's local+remote neighbors.
                for nbr in dg.graph.neighbors(vertex):
                    w = dg.graph[vertex][nbr].get("weight", 1)
                    ctx.charge(6)
                    dg._relax_later(nbr, cand + w)
            else:
                dg.handler_rejects += 1
            return ReturnCode.DROP

        for part in range(nparts):
            self.session.connect(
                part,
                match_bits=RELAX_TAG,
                header_handler=relax_header_handler,
                hpu_mem_bytes=256,
            )

    def owner(self, vertex) -> int:
        return hash(vertex) % self.nparts

    def _relax_later(self, vertex, distance) -> None:
        """Queue a relax message to the vertex's owner."""
        owner = self.owner(vertex)

        def sender():
            src = self.cluster[(owner + 1) % self.nparts]
            yield from src.host_put(
                owner, 16, match_bits=RELAX_TAG,
                user_hdr={"vertex": vertex, "distance": distance},
            )

        self.env.process(sender())

    def sssp(self, source) -> Generator:
        """Run asynchronous SSSP from ``source``; returns the distance map."""
        self.dist = {v: math.inf for v in self.graph.nodes}
        self._relax_later(source, 0)
        # Run to quiescence: the DES drains when no relax is in flight.
        yield self.env.timeout(0)
        return self.dist

    def run_sssp(self, source) -> dict:
        """Drive :meth:`sssp` to completion and verify-ready distances."""
        proc = self.env.process(self.sssp(source))
        self.env.run(until=proc)
        self.env.run()
        return dict(self.dist)

    def reference_sssp(self, source) -> dict:
        """networkx ground truth."""
        import networkx as nx

        lengths = nx.single_source_dijkstra_path_length(self.graph, source)
        return {v: lengths.get(v, math.inf) for v in self.graph.nodes}
