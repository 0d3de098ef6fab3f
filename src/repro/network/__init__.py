"""Network substrate: the LogGOPSim stand-in.

Implements the paper's network model (§4.2):

* LogGOPS parameters — o = 65 ns injection overhead, g = 6.7 ns inter-message
  gap (150 M msgs/s), 400 Gbit/s line rate (G = 20 ps/Byte; see DESIGN.md for
  the per-bit/per-Byte note), MTU 4 KiB;
* a fat-tree topology built from 36-port switches with 50 ns switch traversal
  and 10 m wires (33.4 ns);
* packet-level message transmission with per-NIC injection serialization.
"""

from repro.network.loggp import LogGPParams, NetworkParams
from repro.network.packets import Message, Packet, packetize
from repro.network.topology import FatTree, UniformLatency
from repro.network.fabric import Fabric
from repro.network.congestion import CongestionFabric, Link

__all__ = [
    "CongestionFabric",
    "Fabric",
    "FatTree",
    "Link",
    "LogGPParams",
    "Message",
    "NetworkParams",
    "Packet",
    "UniformLatency",
    "packetize",
]
