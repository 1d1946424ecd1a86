"""One driver loop over two transports: a simulated link and real UDP.

A Pump (pump.py) runs engines over any object with three methods:

  * send(local, peer, datagram): put one sealed datagram on the wire from
    the engine named local;
  * wait(until): block until datagrams arrive or the clock reaches until
    (None: no deadline), and return them as (local, peer, datagram)
    triples, [] when the time came with nothing, or None once nothing can
    ever arrive;
  * now(): the clock the engines run on, in milliseconds.

The simulated link (sim.py) delivers one datagram per wait on its own
clock; UDP (udp.py) waits on the monotonic clock for at most 0.2 s at a
time. Either way a transfer behaves identically; only delivery timing and
loss differ.

perfbench/spans.py times the layers by replacing these names, so the
drivers must keep reaching them: the codec globals encode_packet and
decode_packet of blockfer.transport.sim and blockfer.cli (each driver hands
its own module's pair to the Pump), UdpEndpoint.send, .drain and .poll (a
single-endpoint wait goes through poll), SimulatedLink.send and SimClock.pop.
"""

from .pump import Pump, TransferOutcome
from .sim import (
    LinkModel,
    MtuError,
    SimClock,
    SimulatedLink,
    run_simulated_transfer,
)
from .udp import TransportError, UdpEndpoint, UdpTransport, run_loopback_transfer

__all__ = [
    "LinkModel",
    "MtuError",
    "Pump",
    "SimClock",
    "SimulatedLink",
    "TransferOutcome",
    "TransportError",
    "UdpEndpoint",
    "UdpTransport",
    "run_loopback_transfer",
    "run_simulated_transfer",
]
