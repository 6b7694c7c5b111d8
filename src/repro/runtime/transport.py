"""Store-and-forward transport over the hypercube fabric.

Every node runs one relay process per wired hypercube sublink.  A
message from ``src`` to ``dst`` follows the e-cube route (ascending
dimensions); each intermediate node receives the whole message and
retransmits it on the next dimension's sublink — classic 1986-era
store-and-forward, which is why the paper prices long-range traffic at
O(log₂ N) link times.

Delivered messages land in per-(node, tag) mailboxes.

:class:`ReliableTransport` layers a per-hop ARQ protocol on top:
checksummed frames, positive/negative acknowledgements, timeout +
exponential-backoff retransmission with bounded retries, duplicate
suppression, store-and-forward staging through a parity-checked relay
buffer, and routing that detours around known-dead nodes.  Transient
link faults (corrupted or lost frames, short outages) are absorbed
transparently; unrecoverable hops are reported through the fault log.
"""

import zlib

from repro.events import Store
from repro.memory import ParityError
from repro.runtime.messages import Envelope
from repro.events.faultlog import record_fault
from repro.topology.routing import route_dimensions

import numpy as np

#: Link bytes charged for an ACK/NAK control frame.
ACK_BYTES = 4


def envelope_checksum(envelope) -> int:
    """CRC-32 over the routed header (src, dst, tag, length, seq).

    The model does not serialise payload bits, so the checksum covers
    the header; in-flight mangling is modelled by the frame's
    ``corrupted`` flag, which the receiver folds into verification.
    """
    header = (f"{envelope.src}|{envelope.dst}|{envelope.tag}|"
              f"{envelope.nbytes}|{envelope.seq}")
    return zlib.crc32(header.encode("ascii", "replace"))


class Frame:
    """One reliable-hop link frame: an envelope plus the ARQ header."""

    __slots__ = ("kind", "seq", "attempt", "epoch", "checksum", "envelope")

    def __init__(self, kind, seq, attempt, epoch, checksum, envelope=None):
        self.kind = kind          # "data" | "ack" | "nak"
        self.seq = seq
        self.attempt = attempt
        self.epoch = epoch
        self.checksum = checksum
        self.envelope = envelope

    def __repr__(self):
        return f"<Frame {self.kind} seq={self.seq} try={self.attempt}>"


class HypercubeTransport:
    """The machine-wide message-passing layer."""

    def __init__(self, machine):
        if getattr(machine, "_transport", None) is not None:
            raise RuntimeError(
                "machine already has a transport; two would steal each "
                "other's messages (reuse machine._transport instead)"
            )
        machine._transport = self
        self.machine = machine
        self.engine = machine.engine
        self.dimension = machine.dimension
        # mailboxes[node_id][tag] → Store of Envelope
        self._mailboxes = [dict() for _ in machine.nodes]
        #: Delivered message count.
        self.delivered = 0
        #: Total link hops taken by delivered messages.
        self.total_hops = 0
        self._start_relays()

    # -- internals ----------------------------------------------------

    def _mailbox(self, node_id: int, tag: str) -> Store:
        boxes = self._mailboxes[node_id]
        if tag not in boxes:
            boxes[tag] = Store(self.engine, name=f"mbox{node_id}.{tag}")
        return boxes[tag]

    def _next_dimension(self, here: int, dst: int) -> int:
        """Lowest dimension still differing (e-cube order)."""
        return route_dimensions(here, dst)[0]

    def _start_relays(self):
        for node in self.machine.nodes:
            for d in range(self.dimension):
                slot = self.machine.slot_of_dimension(d)
                self.engine.process(
                    self._relay(node, slot),
                    name=f"relay{node.node_id}.{slot}",
                )

    def _relay(self, node, slot):
        """Forever: receive on one sublink; deliver or forward."""
        while True:
            message = yield from node.comm.recv(slot)
            envelope = message.payload
            envelope.trace.append((node.node_id, self.engine.now))
            if envelope.dst == node.node_id:
                self.delivered += 1
                self.total_hops += envelope.hops
                yield self._mailbox(node.node_id, envelope.tag).put(envelope)
            else:
                d = self._next_dimension(node.node_id, envelope.dst)
                next_slot = self.machine.slot_of_dimension(d)
                yield from node.comm.send(
                    next_slot, envelope, envelope.wire_bytes
                )

    # -- public API (process generators) --------------------------------

    def send(self, src: int, dst: int, payload, nbytes: int,
             tag: str = "msg"):
        """Process: send a message; returns once the *first hop* has
        been injected (the network delivers asynchronously)."""
        self.machine.cube.check_node(src)
        self.machine.cube.check_node(dst)
        envelope = Envelope(src, dst, tag, payload, nbytes)
        envelope.trace.append((src, self.engine.now))
        if src == dst:
            self.delivered += 1
            yield self._mailbox(dst, tag).put(envelope)
            return envelope
        d = self._next_dimension(src, dst)
        slot = self.machine.slot_of_dimension(d)
        node = self.machine.node(src)
        yield from node.comm.send(slot, envelope, envelope.wire_bytes)
        return envelope

    def recv(self, node_id: int, tag: str = "msg"):
        """Process: take the next message for (node, tag).

        A mailbox this take leaves drained (no items, getters or
        putters) is dropped, so per-step tags do not pile up one
        :class:`Store` each; the next put or get makes a fresh one.
        """
        box = self._mailbox(node_id, tag)
        envelope = yield box.get()
        boxes = self._mailboxes[node_id]
        if (not box._items and not box._getters and not box._putters
                and boxes.get(tag) is box):
            del boxes[tag]
        return envelope

    def predicted_transfer_ns(self, src: int, dst: int, nbytes: int) -> int:
        """Uncontended store-and-forward time: hops × (DMA + wire),
        header included."""
        hops = self.machine.cube.distance(src, dst)
        wire_bytes = Envelope(src, dst, "t", None, nbytes).wire_bytes
        per_hop = self.machine.node(src).comm.transfer_ns(wire_bytes)
        return hops * per_hop

    def mean_hops(self) -> float:
        """Average hops over delivered multi-hop messages."""
        if self.delivered == 0:
            return 0.0
        return self.total_hops / self.delivered

    def __repr__(self):
        return f"<HypercubeTransport delivered={self.delivered}>"


class ReliableTransport(HypercubeTransport):
    """Hypercube transport with per-hop ACK/retry and fault detours.

    Protocol, per hop (stop-and-wait ARQ):

    * every envelope gets a transport-wide sequence number at
      :meth:`send`; the hop sender transmits a checksummed ``data``
      :class:`Frame` and waits for an ``ack``;
    * the receiver NAKs frames that fail verification (in-flight
      corruption, checksum mismatch, a parity trap in its relay
      staging buffer) and ACKs everything else — including duplicates,
      which it suppresses by sequence number;
    * on NAK or timeout the sender retransmits after an exponential
      backoff (``backoff_ns`` doubling per attempt), up to
      ``max_retries`` retransmissions, then gives up and reports
      ``link_give_up`` through the fault log;
    * halted nodes neither ACK nor forward (their relays drop frames),
      and routing prefers dimensions whose next hop is not in
      :attr:`avoid` — the coordinator's set of known-dead nodes;
    * :meth:`bump_epoch` + :meth:`flush_mailboxes` quiesce the
      network during recovery: in-flight frames from the old epoch are
      dropped on receipt and pending hop senders abandon their
      retries.

    Store-and-forward staging is modelled against real node memory: a
    relay stages each forwarded frame through a reserved buffer at the
    top of memory, reading it back through the parity-checked port —
    so a latent parity fault planted in the staging region surfaces as
    a NAK + retry, not a crash (the satellite-2 contract).
    """

    def __init__(self, machine, ack_timeout_ns=None, max_retries=8,
                 backoff_ns=20_000, relay_buffer_bytes=None):
        self.epoch = 0
        #: Known-dead nodes; routing detours around them where the
        #: e-cube dimension set allows.
        self.avoid = set()
        self.ack_timeout_ns = ack_timeout_ns
        self.max_retries = max_retries
        self.backoff_ns = backoff_ns
        specs = machine.nodes[0].specs
        self.relay_buffer_bytes = relay_buffer_bytes or specs.row_bytes
        self._relay_base = specs.memory_bytes - self.relay_buffer_bytes
        self._next_seq = 0
        self._ack_waiters = {}    # (node_id, slot, seq) -> Event
        self._accepted = {}       # (node_id, slot) -> set of seq
        #: Reliability counters (see analysis.reliability_stats).
        self.retries = 0
        self.redeliveries = 0
        self.checksum_failures = 0
        self.acks_sent = 0
        self.naks_sent = 0
        self.stale_drops = 0
        self.halted_drops = 0
        self.sends_failed = 0
        self.relay_parity_faults = 0
        self.mailbox_flushes = 0
        super().__init__(machine)

    # -- recovery hooks -----------------------------------------------

    def bump_epoch(self) -> int:
        """Invalidate every in-flight frame and pending hop retry."""
        self.epoch += 1
        self._ack_waiters = {}
        return self.epoch

    def flush_mailboxes(self) -> int:
        """Drop all undelivered mailbox contents (post-restore flush).

        Only call after the processes waiting on those mailboxes have
        been interrupted; their abandoned getters are discarded too,
        along with the mailboxes themselves.
        """
        dropped = 0
        for boxes in self._mailboxes:
            for store in boxes.values():
                dropped += len(store)
            boxes.clear()
        self.mailbox_flushes += 1
        return dropped

    # -- protocol internals -------------------------------------------

    def _next_dimension(self, here: int, dst: int) -> int:
        """Lowest differing dimension whose next hop is believed
        alive; plain e-cube when every candidate is dead (the send
        then fails over to the retry/give-up path)."""
        dims = route_dimensions(here, dst)
        if self.avoid:
            for d in dims:
                if here ^ (1 << d) not in self.avoid:
                    return d
        return dims[0]

    def _ack_timeout_for(self, node, wire_bytes: int) -> int:
        if self.ack_timeout_ns is not None:
            return self.ack_timeout_ns
        data_ns = node.comm.transfer_ns(wire_bytes)
        ctrl_ns = node.comm.transfer_ns(ACK_BYTES)
        # 2x margin for sublink/wire contention plus fixed slack, so a
        # fault-free run sees essentially zero spurious retries.
        return 2 * (data_ns + ctrl_ns) + 50_000

    def _control(self, node, slot, kind, frame):
        """Process: return an ACK/NAK for ``frame`` on ``slot``."""
        reply = Frame(kind, frame.seq, frame.attempt, frame.epoch, 0)
        if kind == "ack":
            self.acks_sent += 1
        else:
            self.naks_sent += 1
        yield from node.comm.send(slot, reply, ACK_BYTES)

    def _check_staging(self, node) -> bool:
        """Parity-verified store-and-forward staging read.

        Returns True when the staging buffer read back clean; on a
        latent parity fault it records the fault, rewrites the buffer
        (which corrects the stored parity) and returns False so the
        caller NAKs the frame.
        """
        try:
            node.memory.peek_bytes(self._relay_base,
                                   self.relay_buffer_bytes)
            return True
        except ParityError as exc:
            self.relay_parity_faults += 1
            record_fault(self.engine, "relay_parity",
                         node=node.node_id, address=int(exc.address))
            node.memory.poke_bytes(
                self._relay_base,
                np.zeros(self.relay_buffer_bytes, dtype=np.uint8),
            )
            return False

    def _stage(self, node, envelope):
        """Write the forwarded frame into the staging buffer."""
        size = min(envelope.wire_bytes, self.relay_buffer_bytes)
        fill = (envelope.seq ^ node.node_id) & 0xFF
        node.memory.poke_bytes(
            self._relay_base, np.full(size, fill, dtype=np.uint8)
        )

    def _hop(self, node, slot, envelope):
        """Process: move ``envelope`` one hop with ACK/retry.

        Returns True once the next node acknowledged the frame, False
        if retries were exhausted or a recovery epoch invalidated the
        attempt.
        """
        seq = envelope.seq
        checksum = envelope_checksum(envelope)
        key = (node.node_id, slot, seq)
        timeout_ns = self._ack_timeout_for(node, envelope.wire_bytes)
        epoch = self.epoch
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.retries += 1
                yield self.engine.timeout(
                    self.backoff_ns << (attempt - 1)
                )
            if self.epoch != epoch:
                return False
            frame = Frame("data", seq, attempt, epoch, checksum, envelope)
            yield from node.comm.send(slot, frame, envelope.wire_bytes)
            waiter = self.engine.event()
            self._ack_waiters[key] = waiter
            yield self.engine.any_of(
                [waiter, self.engine.timeout(timeout_ns)]
            )
            if self._ack_waiters.get(key) is waiter:
                del self._ack_waiters[key]
            if waiter.triggered and waiter.value == "ack":
                return True
            # NAK or timeout: fall through to the next attempt.
        self.sends_failed += 1
        record_fault(self.engine, "link_give_up", node=node.node_id,
                     slot=slot, seq=seq, dst=envelope.dst)
        return False

    def _relay(self, node, slot):
        """Forever: receive frames on one sublink; verify, ack,
        deliver or forward."""
        accepted = self._accepted.setdefault((node.node_id, slot), set())
        while True:
            message = yield from node.comm.recv(slot)
            frame = message.payload
            if node.halted:
                self.halted_drops += 1
                continue
            if frame.kind in ("ack", "nak"):
                if message.corrupted:
                    # A mangled control frame is just a lost one: the
                    # data sender times out and retransmits.
                    self.checksum_failures += 1
                    record_fault(self.engine, "frame_corrupt",
                                 node=node.node_id, slot=slot,
                                 seq=frame.seq, control=True)
                    continue
                waiter = self._ack_waiters.pop(
                    (node.node_id, slot, frame.seq), None
                )
                if waiter is not None and not waiter.triggered:
                    waiter.succeed(frame.kind)
                continue
            envelope = frame.envelope
            if frame.epoch != self.epoch:
                self.stale_drops += 1
                continue
            if message.corrupted or \
                    frame.checksum != envelope_checksum(envelope):
                self.checksum_failures += 1
                record_fault(self.engine, "frame_corrupt",
                             node=node.node_id, slot=slot,
                             seq=frame.seq, control=False)
                yield from self._control(node, slot, "nak", frame)
                continue
            if frame.seq in accepted:
                self.redeliveries += 1
                yield from self._control(node, slot, "ack", frame)
                continue
            forwarding = envelope.dst != node.node_id
            if forwarding:
                if not self._check_staging(node):
                    yield from self._control(node, slot, "nak", frame)
                    continue
                self._stage(node, envelope)
            accepted.add(frame.seq)
            yield from self._control(node, slot, "ack", frame)
            envelope.trace.append((node.node_id, self.engine.now))
            if not forwarding:
                self.delivered += 1
                self.total_hops += envelope.hops
                yield self._mailbox(node.node_id, envelope.tag).put(
                    envelope
                )
            else:
                d = self._next_dimension(node.node_id, envelope.dst)
                next_slot = self.machine.slot_of_dimension(d)
                yield from self._hop(node, next_slot, envelope)
                # A failed onward hop after our ACK is an end-to-end
                # loss; _hop recorded it, the coordinator's restart
                # semantics own redelivery.

    # -- public API ----------------------------------------------------

    def send(self, src: int, dst: int, payload, nbytes: int,
             tag: str = "msg"):
        """Process: send with per-hop reliability.

        Returns the envelope once the *first* hop was acknowledged, or
        ``None`` when retries were exhausted / recovery aborted it.
        """
        self.machine.cube.check_node(src)
        self.machine.cube.check_node(dst)
        envelope = Envelope(src, dst, tag, payload, nbytes)
        envelope.seq = self._next_seq
        self._next_seq += 1
        envelope.trace.append((src, self.engine.now))
        if src == dst:
            self.delivered += 1
            yield self._mailbox(dst, tag).put(envelope)
            return envelope
        d = self._next_dimension(src, dst)
        slot = self.machine.slot_of_dimension(d)
        node = self.machine.node(src)
        ok = yield from self._hop(node, slot, envelope)
        return envelope if ok else None

    def __repr__(self):
        return (f"<ReliableTransport delivered={self.delivered} "
                f"retries={self.retries} epoch={self.epoch}>")
