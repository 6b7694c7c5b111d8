"""The machine-level link fabric: sublinks to *different* peers.

A node has four physical links but up to twelve hypercube neighbours
(a 12-cube with I/O, 14 without).  The T Series resolves this by
multiplexing each link four ways — so the four sublinks of one
physical link connect to *different* nodes and **divide the link's
bandwidth** (paper §II).

Model: each node-side physical link is a pair of shared media
(:class:`Wire` for tx and rx).  A :class:`FabricSublink` joins a
(port, sublink) endpoint on one node to one on another; transmitting a
message holds the sender's tx medium *and* the receiver's rx medium
for the framed duration, so concurrent traffic on sibling sublinks
serialises — bandwidth division emerges rather than being asserted.

Deadlock safety: the two media are always acquired in global creation
order, so hold-two-locks cycles cannot form.
"""

import itertools

from repro.events import Request, Store
from repro.links.frame import FrameSpec
from repro.links.link import Message, Wire

_wire_uid = itertools.count()


class LinkPort:
    """One physical link socket on a node: shared tx and rx media."""

    def __init__(self, engine, frame: FrameSpec, name: str):
        self.engine = engine
        self.frame = frame
        self.name = name
        self.tx = Wire(engine, frame, f"{name}.tx")
        self.rx = Wire(engine, frame, f"{name}.rx")
        self.tx.uid = next(_wire_uid)
        self.rx.uid = next(_wire_uid)

    def __repr__(self):
        return f"<LinkPort {self.name!r}>"


class FabricEndpoint:
    """One side of a fabric sublink: a (port, sub-index) slot plus inbox."""

    def __init__(self, port: LinkPort, sub_index: int, owner=None):
        self.port = port
        self.sub_index = sub_index
        self.owner = owner
        self.inbox = Store(
            port.engine, name=f"{port.name}.{sub_index}-inbox"
        )


class FabricSublink:
    """A point-to-point sublink between two nodes' link ports."""

    def __init__(self, endpoint_a: FabricEndpoint, endpoint_b: FabricEndpoint,
                 name="sublink"):
        if endpoint_a.port is endpoint_b.port:
            raise ValueError("a sublink cannot loop back to its own port")
        self.endpoints = (endpoint_a, endpoint_b)
        self.name = name
        self.engine = endpoint_a.port.engine
        self.frame = endpoint_a.port.frame
        endpoint_a.sublink = self
        endpoint_b.sublink = self
        # Per sending endpoint: (peer, local tx, remote rx, and the two
        # wires' arbiters in global uid order).
        self._routes = {
            endpoint_a: self._route(endpoint_a, endpoint_b),
            endpoint_b: self._route(endpoint_b, endpoint_a),
        }
        #: Payload bytes carried (both directions).
        self.bytes_moved = 0
        self.messages = 0
        # -- fault hooks (driven by repro.system.failures) ------------
        #: Corrupt the next N frames in flight (delivered with
        #: ``Message.corrupted`` set; payload object unchanged).
        self.corrupt_next = 0
        #: Outage window [outage_from, outage_until] in ns; a frame
        #: whose transmission interval overlaps the window is lost
        #: (transmitted but never delivered).  ``outage_until`` None
        #: means the sublink is stuck down until :meth:`repair`.
        self.outage_from = None
        self.outage_until = None
        self.frames_corrupted = 0
        self.frames_lost = 0

    def corrupt_next_frame(self, count=1):
        """Arm transient corruption for the next ``count`` frames."""
        self.corrupt_next += count

    def fail(self, from_ns, until_ns=None):
        """Take the sublink down for [from_ns, until_ns] (None=forever)."""
        self.outage_from = from_ns
        self.outage_until = until_ns

    def repair(self):
        """Clear any outage window."""
        self.outage_from = None
        self.outage_until = None

    def _lost(self, start_ns, end_ns) -> bool:
        """True when a frame transmitted over [start, end] hits the
        outage window."""
        if self.outage_from is None or end_ns < self.outage_from:
            return False
        return self.outage_until is None or start_ns <= self.outage_until

    @staticmethod
    def _route(endpoint, peer):
        tx = endpoint.port.tx
        rx = peer.port.rx
        first, second = (tx, rx) if tx.uid < rx.uid else (rx, tx)
        return peer, tx, rx, first._busy, second._busy

    def send_from(self, endpoint: FabricEndpoint, payload, nbytes: int):
        """Process: transmit from ``endpoint`` to the far side.

        Holds the local tx medium and the remote rx medium for the
        framed duration (acquired in global uid order), then delivers.
        """
        if nbytes < 0:
            raise ValueError("negative message size")
        try:
            peer, tx, rx, first, second = self._routes[endpoint]
        except KeyError:
            raise ValueError("endpoint not on this sublink") from None
        duration = self.frame.transfer_ns(nbytes)
        sent_at = self.engine.now
        with first.acquire() as r1:
            if r1.__class__ is Request:
                yield r1
            with second.acquire() as r2:
                if r2.__class__ is Request:
                    yield r2
                yield self.engine.timeout(duration)
                for wire in (tx, rx):
                    wire.bytes_moved += nbytes
                    wire.busy_ns += duration
                    wire.messages += 1
        corrupted = False
        if self.corrupt_next:
            self.corrupt_next -= 1
            self.frames_corrupted += 1
            corrupted = True
        message = Message(
            payload, nbytes, sent_at, self.engine.now,
            sublink=peer.sub_index, corrupted=corrupted,
        )
        self.bytes_moved += nbytes
        self.messages += 1
        if self._lost(sent_at, self.engine.now):
            # The wire time was spent, but the frame never arrives.
            # Unreliable callers will time out or hang; the reliable
            # transport retries after its ACK timeout.
            self.frames_lost += 1
            return message
        yield peer.inbox.put(message)
        return message

    def __repr__(self):
        return f"<FabricSublink {self.name!r}>"


class NodeLinkSet:
    """A node's communications front end over the fabric.

    Sublink *slots* are numbered 0..15: slot s lives on physical link
    ``s // 4``, sub-index ``s % 4``.  Machine wiring connects slots to
    peers and records each slot's role; node software addresses
    traffic by slot.
    """

    def __init__(self, engine, specs, name="node"):
        self.engine = engine
        self.specs = specs
        self.name = name
        frame = FrameSpec.from_specs(specs)
        self.ports = [
            LinkPort(engine, frame, f"{name}.L{i}")
            for i in range(specs.links_per_node)
        ]
        self.slots = specs.sublinks_per_node
        self._endpoints = [None] * self.slots
        self._roles = [None] * self.slots
        #: DMA startup per transfer (paper: ~5 µs).
        self.dma_startup_ns = specs.dma_startup_ns
        self.dma_transfers = 0
        #: Node memory for DMA cycle stealing (set by ProcessorNode;
        #: active only when specs.dma_memory_traffic is on).
        self.memory = None

    def _steal_port_cycles(self, nbytes: int):
        """Process: charge the random-access port for DMA traffic.

        The link adapter reads/writes message data through the same
        port the CP's gather/scatter uses; stealing happens in bursts
        so the CP interleaves between them.
        """
        words = -(-nbytes // 4)
        burst = self.specs.dma_burst_words
        while words > 0:
            take = min(burst, words)
            yield from self.memory.word_port.access(take)
            words -= take

    def _dma_active(self) -> bool:
        return (self.specs.dma_memory_traffic
                and self.memory is not None)

    def port_of_slot(self, slot: int) -> LinkPort:
        """The physical link a slot rides on."""
        self._check_slot(slot)
        return self.ports[slot // 4]

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.slots:
            raise ValueError(f"slot {slot} out of range (0..{self.slots - 1})")

    def make_endpoint(self, slot: int, role: str) -> FabricEndpoint:
        """Claim a slot; returns the endpoint for wiring."""
        self._check_slot(slot)
        if self._endpoints[slot] is not None:
            raise ValueError(f"slot {slot} already wired")
        endpoint = FabricEndpoint(
            self.port_of_slot(slot), slot % 4, owner=self
        )
        self._endpoints[slot] = endpoint
        self._roles[slot] = role
        return endpoint

    def endpoint(self, slot: int) -> FabricEndpoint:
        self._check_slot(slot)
        ep = self._endpoints[slot]
        if ep is None:
            raise ValueError(f"slot {slot} not wired")
        return ep

    def role_of(self, slot: int):
        self._check_slot(slot)
        return self._roles[slot]

    def wired_slots(self, role=None):
        """Slots in use, optionally filtered by role."""
        return [
            s for s in range(self.slots)
            if self._endpoints[s] is not None
            and (role is None or self._roles[s] == role)
        ]

    def send(self, slot: int, payload, nbytes: int):
        """Process: DMA startup then transmit on a slot.

        With ``specs.dma_memory_traffic`` on, the DMA's reads steal
        word-port cycles *concurrently* with the wire transfer (the
        port is ~17× faster than the wire, so the wire still paces the
        message; the CP feels the stolen cycles).
        """
        endpoint = self.endpoint(slot)
        yield self.engine.timeout(self.dma_startup_ns)
        self.dma_transfers += 1
        stealer = None
        if self._dma_active():
            stealer = self.engine.process(
                self._steal_port_cycles(nbytes),
                name=f"{self.name}-dma-read",
            )
        message = yield from endpoint.sublink.send_from(
            endpoint, payload, nbytes
        )
        if stealer is not None:
            yield stealer
        return message

    def recv(self, slot: int):
        """Process: next message arriving on a slot.

        With DMA memory traffic on, the adapter's writes into memory
        steal port cycles before the message is handed to software.
        """
        endpoint = self.endpoint(slot)
        message = yield endpoint.inbox.get()
        if self._dma_active():
            yield from self._steal_port_cycles(message.nbytes)
        return message

    def transfer_ns(self, nbytes: int) -> int:
        """Predicted uncontended one-message time."""
        frame = self.ports[0].frame
        return self.dma_startup_ns + frame.transfer_ns(nbytes)

    def __repr__(self):
        wired = len(self.wired_slots())
        return f"<NodeLinkSet {self.name!r} wired={wired}/{self.slots}>"


def connect(set_a: NodeLinkSet, slot_a: int, set_b: NodeLinkSet,
            slot_b: int, role: str, name=None) -> FabricSublink:
    """Wire one sublink between two nodes' slots."""
    endpoint_a = set_a.make_endpoint(slot_a, role)
    endpoint_b = set_b.make_endpoint(slot_b, role)
    return FabricSublink(
        endpoint_a, endpoint_b,
        name=name or f"{set_a.name}.{slot_a}<->{set_b.name}.{slot_b}",
    )
