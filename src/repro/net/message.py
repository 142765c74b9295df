"""Small control-message transport (RPC requests, acks, token traffic).

Control messages are tiny compared to data blocks, so they do not enter the
fluid bandwidth solver; a message takes one-way propagation delay plus
serialization at the path bottleneck. This keeps GPFS token/metadata chatter
cheap to simulate while still charging WAN latency where the paper's
multi-cluster protocol pays it (mount handshakes, lock revocations).

Every message is an event that its receiver waits on:
:meth:`~MessageService.send`, :meth:`~MessageService.fanout` and
:meth:`~MessageService.round_trip` each return one, fired by its own
delivery timer (one heap entry per delivery).
"""

from __future__ import annotations

from repro.net.topology import Network
from repro.sim.kernel import Event, Simulation


class MessageService:
    """Latency-accurate, bandwidth-free delivery of small messages."""

    def __init__(self, sim: Simulation, network: Network) -> None:
        self.sim = sim
        self.network = network
        self.messages_sent = 0
        #: Active network cut (repro.faults.PartitionState); None = whole.
        self.partition = None
        self.partition_parked = 0

    def attach_partition(self, partition) -> None:
        """Messages across a severed pair park until the partition heals,
        then deliver (TCP retransmission semantics, not UDP drop)."""
        self.partition = partition

    def _park_then(self, src: str, dst: str, deliver) -> bool:
        """Defer ``deliver`` to the partition heal when the pair is severed.

        Returns True when the message was parked. The None check keeps
        the nominal path allocation-free.
        """
        part = self.partition
        if part is None or not part.severed(src, dst):
            return False
        self.partition_parked += 1
        part.wait_heal().callbacks.append(lambda _e: deliver())
        return True

    def delivery_time(self, src: str, dst: str, nbytes: float = 1024.0) -> float:
        """One-way latency for a message of ``nbytes``."""
        if src == dst:
            return 1e-6  # local daemon hop
        delay = self.network.one_way_delay(src, dst)
        bottleneck = self.network.bottleneck_rate(src, dst)
        return delay + nbytes / bottleneck

    def send(self, src: str, dst: str, payload=None, nbytes: float = 1024.0) -> Event:
        """Deliver ``payload`` to ``dst``; event fires with the payload.

        The event is its own delivery timer (:meth:`Event.succeed_after`):
        one heap entry per message. A severed pair parks the message and
        runs the same delivery at the heal.
        """
        self.messages_sent += 1
        evt = self.sim.event(name=f"msg:{src}->{dst}")

        def deliver() -> None:
            evt.succeed_after(self.delivery_time(src, dst, nbytes), payload)

        if not self._park_then(src, dst, deliver):
            deliver()
        return evt

    def fanout(self, src: str, dsts, payload=None, nbytes: float = 1024.0) -> Event:
        """Send one message to every node in ``dsts`` in parallel; fires
        when the last delivery lands (immediately for an empty fan-out)."""
        sends = [self.send(src, dst, payload, nbytes) for dst in dsts]
        if not sends:
            evt = self.sim.event(name=f"fanout:{src}")
            evt.succeed(None)
            return evt
        return self.sim.all_of(sends)

    def round_trip(
        self,
        src: str,
        dst: str,
        request_bytes: float = 1024.0,
        reply_bytes: float = 1024.0,
        service_time: float = 0.0,
    ) -> Event:
        """Request → (service) → reply; fires after the reply arrives."""
        total = (
            self.delivery_time(src, dst, request_bytes)
            + service_time
            + self.delivery_time(dst, src, reply_bytes)
        )
        self.messages_sent += 2
        evt = self.sim.event(name=f"rpc:{src}<->{dst}")

        def deliver() -> None:
            evt.succeed_after(total)

        if not self._park_then(src, dst, deliver):
            deliver()
        return evt
