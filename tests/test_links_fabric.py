"""Tests for the machine-level link fabric (cross-peer sublinks)."""

import pytest

from repro.core.specs import PAPER_SPECS
from repro.events import Engine
from repro.links import FrameSpec, NodeLinkSet, connect


@pytest.fixture
def eng():
    return Engine()


def make_nodes(eng, count):
    return [
        NodeLinkSet(eng, PAPER_SPECS, name=f"n{i}") for i in range(count)
    ]


class TestWiring:
    def test_slot_to_port_mapping(self, eng):
        n = NodeLinkSet(eng, PAPER_SPECS)
        assert n.port_of_slot(0) is n.ports[0]
        assert n.port_of_slot(3) is n.ports[0]
        assert n.port_of_slot(4) is n.ports[1]
        assert n.port_of_slot(15) is n.ports[3]

    def test_connect_claims_slots(self, eng):
        a, b = make_nodes(eng, 2)
        link = connect(a, 0, b, 0, role="hypercube")
        assert a.wired_slots() == [0]
        assert b.wired_slots(role="hypercube") == [0]
        assert a.endpoint(0).sublink is link

    def test_double_wire_rejected(self, eng):
        a, b, c = make_nodes(eng, 3)
        connect(a, 0, b, 0, role="x")
        with pytest.raises(ValueError, match="already wired"):
            connect(a, 0, c, 0, role="x")

    def test_self_port_loop_rejected(self, eng):
        a = NodeLinkSet(eng, PAPER_SPECS)
        with pytest.raises(ValueError, match="loop"):
            connect(a, 0, a, 1, role="x")  # slots 0,1 share port 0

    def test_same_node_different_ports_allowed(self, eng):
        a = NodeLinkSet(eng, PAPER_SPECS)
        connect(a, 0, a, 4, role="loopback")  # ports 0 and 1

    def test_bad_slot(self, eng):
        a = NodeLinkSet(eng, PAPER_SPECS)
        with pytest.raises(ValueError):
            a.make_endpoint(16, "x")
        with pytest.raises(ValueError):
            a.endpoint(5)


class TestTransfer:
    def test_roundtrip_with_dma(self, eng):
        a, b = make_nodes(eng, 2)
        connect(a, 0, b, 0, role="x")
        got = []

        def sender(eng):
            yield from a.send(0, "payload", nbytes=64)

        def receiver(eng):
            message = yield from b.recv(0)
            got.append((message.payload, eng.now))

        eng.process(sender(eng))
        eng.process(receiver(eng))
        eng.run()
        frame = FrameSpec.from_specs(PAPER_SPECS)
        expected = PAPER_SPECS.dma_startup_ns + frame.transfer_ns(64)
        assert got == [("payload", expected)]
        assert a.transfer_ns(64) == expected

    def test_sibling_sublinks_share_tx_bandwidth(self, eng):
        """Two sublinks on the same physical link to different peers
        divide that link's bandwidth (the paper's sublink semantics)."""
        a, b, c = make_nodes(eng, 3)
        connect(a, 0, b, 0, role="x")   # a port 0 ↔ b
        connect(a, 1, c, 0, role="x")   # a port 0 ↔ c (sibling sublink)
        finish = {}

        def sender(slot, tag):
            for _ in range(5):
                yield from a.send(slot, tag, nbytes=1000)
            finish[tag] = eng.now

        eng.process(sender(0, "to-b"))
        eng.process(sender(1, "to-c"))
        for peer, slot in ((b, 0), (c, 0)):
            def drain(peer=peer, slot=slot):
                for _ in range(5):
                    yield from peer.recv(slot)
            eng.process(drain())
        eng.run()
        frame = FrameSpec.from_specs(PAPER_SPECS)
        solo = 5 * frame.transfer_ns(1000)
        # Interleaved on one wire: the later finisher takes ~2x solo.
        assert max(finish.values()) >= 1.8 * solo

    def test_different_links_do_not_contend(self, eng):
        a, b, c = make_nodes(eng, 3)
        connect(a, 0, b, 0, role="x")   # a port 0
        connect(a, 4, c, 0, role="x")   # a port 1
        finish = {}

        def sender(slot, tag):
            yield from a.send(slot, tag, nbytes=10_000)
            finish[tag] = eng.now

        eng.process(sender(0, "b"))
        eng.process(sender(4, "c"))
        eng.run()
        assert finish["b"] == finish["c"]  # fully parallel

    def test_receiver_rx_is_shared(self, eng):
        """Two different senders into sibling sublinks of one receiving
        port serialise at the receiver's rx medium."""
        a, b, hub = make_nodes(eng, 3)
        connect(a, 0, hub, 0, role="x")
        connect(b, 0, hub, 1, role="x")  # hub slots 0,1 share port 0
        finish = {}

        def sender(src, tag):
            yield from src.send(0, tag, nbytes=10_000)
            finish[tag] = eng.now

        eng.process(sender(a, "a"))
        eng.process(sender(b, "b"))
        eng.run()
        frame = FrameSpec.from_specs(PAPER_SPECS)
        wire = frame.transfer_ns(10_000)
        assert max(finish.values()) >= 2 * wire

    def test_bidirectional_same_sublink(self, eng):
        a, b = make_nodes(eng, 2)
        connect(a, 0, b, 0, role="x")
        done = {}

        def ab(eng):
            yield from a.send(0, "a->b", 1000)
            done["ab"] = eng.now

        def ba(eng):
            yield from b.send(0, "b->a", 1000)
            done["ba"] = eng.now

        eng.process(ab(eng))
        eng.process(ba(eng))
        eng.run()
        # tx of a + rx of b vs tx of b + rx of a: no shared medium.
        assert done["ab"] == done["ba"]

    def test_negative_size_rejected(self, eng):
        a, b = make_nodes(eng, 2)
        connect(a, 0, b, 0, role="x")

        def proc(eng):
            yield from a.send(0, "x", -1)

        with pytest.raises(ValueError):
            eng.run(until=eng.process(proc(eng)))

    def test_foreign_endpoint_rejected(self, eng):
        a, b, c = make_nodes(eng, 3)
        link = connect(a, 0, b, 0, role="x")
        connect(a, 4, c, 0, role="x")

        def proc(eng):
            yield from link.send_from(a.endpoint(4), "x", 8)

        with pytest.raises(ValueError, match="not on this sublink"):
            eng.run(until=eng.process(proc(eng)))


class TestNoDeadlock:
    def test_crossing_transfers_complete(self, eng):
        """A→B and B→A transfers crossing over shared media must not
        AB-BA deadlock (ordered acquisition)."""
        nodes = make_nodes(eng, 4)
        # Chain with shared ports: 0↔1 on port0 slots, 1↔2 on port0
        # sibling slots, 2↔3 similarly.
        connect(nodes[0], 0, nodes[1], 0, role="x")
        connect(nodes[1], 1, nodes[2], 0, role="x")
        connect(nodes[2], 1, nodes[3], 0, role="x")
        finished = []

        def pump(node, slot, count):
            for _ in range(count):
                yield from node.send(slot, "m", 500)
            finished.append(node.name)

        def drain(node, slot, count):
            for _ in range(count):
                yield from node.recv(slot)

        eng.process(pump(nodes[0], 0, 10))   # → nodes[1] slot 0
        eng.process(pump(nodes[1], 1, 10))   # → nodes[2] slot 0
        eng.process(pump(nodes[2], 1, 10))   # → nodes[3] slot 0
        eng.process(pump(nodes[3], 0, 10))   # → nodes[2] slot 1 (reverse)
        eng.process(drain(nodes[1], 0, 10))
        eng.process(drain(nodes[2], 0, 10))
        eng.process(drain(nodes[3], 0, 10))
        eng.process(drain(nodes[2], 1, 10))
        eng.run()
        assert len(finished) == 4
