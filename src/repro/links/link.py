"""Serial links: one bidirectional point-to-point connection.

A :class:`SerialLink` is two independent wires (one per direction),
each carrying framed bytes at the link bit rate.  Each end is a
:class:`LinkEnd` owned by one device (a node's link adapter or a
system board); sending acquires the outgoing wire for the message's
framed duration and delivers the payload into the peer end's inbox at
completion.

The links themselves know nothing of sublinks or DMA — those are the
adapter's business (:mod:`repro.links.sublink`,
:mod:`repro.links.dma`).
"""

from repro.events import Mutex, Request, Store
from repro.links.frame import FrameSpec


class Wire:
    """One direction of a link: serialised, framed, counted."""

    def __init__(self, engine, frame: FrameSpec, name: str):
        self.engine = engine
        self.frame = frame
        self.name = name
        self._busy = Mutex(engine, name=f"{name}-wire")
        #: Payload bytes moved.
        self.bytes_moved = 0
        #: Total ns the wire was transmitting.
        self.busy_ns = 0
        #: Messages carried.
        self.messages = 0

    def transmit(self, nbytes: int):
        """Process: occupy the wire for ``nbytes`` framed bytes."""
        duration = self.frame.transfer_ns(nbytes)
        with self._busy.acquire() as req:
            if req.__class__ is Request:
                yield req
            yield self.engine.timeout(duration)
        self.bytes_moved += nbytes
        self.busy_ns += duration
        self.messages += 1
        return duration

    def measured_mb_s(self) -> float:
        """Payload bytes per elapsed simulated time, in MB/s."""
        if self.engine.now == 0:
            return 0.0
        return self.bytes_moved / self.engine.now * 1000.0

    def utilization(self) -> float:
        """Busy fraction of elapsed time."""
        if self.engine.now == 0:
            return 0.0
        return self.busy_ns / self.engine.now


class Message:
    """A payload in flight: what was sent, how big, when, over what."""

    __slots__ = ("payload", "nbytes", "sent_at", "delivered_at", "sublink",
                 "corrupted")

    def __init__(self, payload, nbytes, sent_at, delivered_at, sublink=None,
                 corrupted=False):
        self.payload = payload
        self.nbytes = nbytes
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        self.sublink = sublink
        #: True when the frame was mangled in flight (injected link
        #: fault).  The payload object is delivered unchanged — the
        #: flag models a failed frame checksum, which is what a real
        #: receiver sees; reliable transports NAK and retry on it.
        self.corrupted = corrupted

    def __repr__(self):
        return (
            f"<Message {self.nbytes}B sent={self.sent_at} "
            f"delivered={self.delivered_at}>"
        )


class LinkEnd:
    """One device's handle on a link."""

    def __init__(self, link, side: int):
        self.link = link
        self.side = side
        self.engine = link.engine
        #: Incoming messages (unbounded: the receiver's memory buffers).
        self.inbox = Store(link.engine, name=f"{link.name}[{side}]-inbox")
        #: Device this end is attached to (set by the owner; metadata).
        self.owner = None

    @property
    def peer(self) -> "LinkEnd":
        """The other end of the link."""
        return self.link.ends[1 - self.side]

    @property
    def tx_wire(self) -> Wire:
        """The wire this end transmits on."""
        return self.link.wires[self.side]

    @property
    def rx_wire(self) -> Wire:
        """The wire this end receives from."""
        return self.link.wires[1 - self.side]

    def send(self, payload, nbytes: int, sublink: int = None):
        """Process: transmit ``payload`` (accounted as ``nbytes`` data
        bytes) and deliver it to the peer's inbox on completion."""
        if nbytes < 0:
            raise ValueError("negative message size")
        sent_at = self.engine.now
        yield from self.tx_wire.transmit(nbytes)
        message = Message(
            payload, nbytes, sent_at, self.engine.now, sublink=sublink
        )
        yield self.peer.inbox.put(message)
        return message

    def recv(self):
        """Process: take the next message from this end's inbox."""
        message = yield self.inbox.get()
        return message

    def __repr__(self):
        return f"<LinkEnd {self.link.name}[{self.side}]>"


class SerialLink:
    """A bidirectional link: two wires, two ends."""

    def __init__(self, engine, specs, name="link"):
        self.engine = engine
        self.name = name
        self.frame = FrameSpec.from_specs(specs)
        self.wires = (
            Wire(engine, self.frame, f"{name}.0to1"),
            Wire(engine, self.frame, f"{name}.1to0"),
        )
        self.ends = (LinkEnd(self, 0), LinkEnd(self, 1))

    def end(self, side: int) -> LinkEnd:
        """The end on ``side`` (0 or 1)."""
        return self.ends[side]

    def __repr__(self):
        return f"<SerialLink {self.name!r}>"
