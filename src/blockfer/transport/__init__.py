"""One driver loop over two transports: a simulated link and real UDP.

A Pump (pump.py) runs engines over any object with three methods:

  * send(local, peer, datagrams): put a list of sealed datagrams on the
    wire from the engine named local to one peer, in order; the Pump hands
    over each run of consecutive packets to one peer in one call;
  * wait(until): block until datagrams arrive or the clock reaches until
    (None: no deadline), and return them as an iterable of (local, peer,
    datagram) triples that the Pump walks once, [] when the time came with
    nothing, or None once nothing can ever arrive; now() must already read
    the arrival time when wait returns;
  * now(): the clock the engines run on, in milliseconds.

The simulated link (sim.py) delivers every datagram due at one instant of
its own clock per wait, as a generator that pops the clock one datagram at
a time; UDP (udp.py) waits on the monotonic clock for at most 0.2 s at a
time. On Linux, UDP sends each run of datagrams with GSO and reads with GRO
where the kernel offers both, so a window takes a few system calls rather
than one per datagram; the datagrams on the wire are the same. Either way
a transfer behaves identically; only delivery timing and loss differ.

Each name in __all__ is imported from its own module on first access, as in
the blockfer package, so the UDP path (pump.py and udp.py) never loads the
simulator. MtuError is defined in blockfer.wire, next to MTU.

perfbench/spans.py times the layers by replacing these names, so the
drivers must keep reaching them: the codec globals encode_packet and
decode_packet of blockfer.transport.sim and blockfer.cli (each driver hands
its own module's pair to the Pump), UdpEndpoint.send, .drain and .poll (a
single-endpoint wait goes through poll), SimulatedLink.send and SimClock.pop.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    ".pump": ("Pump", "TransferOutcome"),
    ".sim": ("LinkModel", "SimClock", "SimulatedLink", "run_simulated_transfer"),
    ".udp": ("TransportError", "UdpEndpoint", "UdpTransport", "run_loopback_transfer"),
    "..wire": ("MtuError",),
})

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
