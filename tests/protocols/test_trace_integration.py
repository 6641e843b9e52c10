"""Trace-level integration assertions: not just *that* recovery worked,
but that the packets moved the way each protocol specifies."""

import numpy as np
import pytest

from repro.metrics.collectors import BandwidthLedger, RecoveryLog
from repro.net.mcast_tree import MulticastTree
from repro.net.routing import RoutingTable
from repro.net.topology import NodeKind, Topology
from repro.protocols.base import CompletionTracker, StreamConfig, StreamDriver
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.srm import SRMProtocolFactory
from repro.sim.engine import EventQueue
from repro.sim.network import SimNetwork
from repro.sim.packet import PacketKind
from repro.sim.rng import LossLane, RngStreams
from repro.sim.trace import TraceFilter, TraceKind, TraceRecorder


class RiggedLossLane(LossLane):
    """Drops exactly the given ``(seq, from, to)`` traversals."""

    def __init__(self, drops: set[tuple[int, int, int]]):
        super().__init__(0)
        self.drops = drops

    def journey(self, packet, sender, attempt):
        return packet.seq

    def uniform(self, journey, frm, to):
        return 0.0 if (journey, frm, to) in self.drops else 1.0


def build(factory, drops, num_packets=3):
    """Line-ish topology with a shortcut so unicast != tree path."""
    topo = Topology()
    r0, r1 = topo.add_nodes(2, NodeKind.ROUTER)
    s = topo.add_node(NodeKind.SOURCE)
    ca, cb = topo.add_nodes(2, NodeKind.CLIENT)
    topo.add_link(s, r0, 2.0, 1e-9)
    topo.add_link(r0, r1, 2.0, 1e-9)
    topo.add_link(r1, ca, 2.0, 1e-9)
    topo.add_link(r0, cb, 2.0, 1e-9)
    topo.add_link(ca, cb, 1.0, 1e-9)  # direct shortcut, not in tree
    tree = MulticastTree(topo, s, {r0: s, r1: r0, ca: r1, cb: r0})
    events = EventQueue()
    log = RecoveryLog()
    net = SimNetwork(
        events, topo, RoutingTable(topo), tree,
        loss_rng=np.random.default_rng(1),
        ledger=BandwidthLedger(),
        data_loss_rng=RiggedLossLane(drops),
    )
    recorder = TraceRecorder().attach(net)
    tracker = CompletionTracker(2, num_packets)
    source_agent = factory.install(net, log, tracker, RngStreams(0), num_packets)
    StreamDriver(net, source_agent, StreamConfig(num_packets=num_packets),
                 tracker).start()
    events.run(stop_when=lambda: tracker.complete, max_events=200_000)
    assert tracker.complete
    return topo, tree, log, recorder, (s, ca, cb)


#: DATA seq 1 dropped on the r1 -> cA link (node ids r1=1, cA=3).
SEQ1_ON_R1_CA = (1, 1, 3)


class TestRPTraces:
    def test_repair_travels_unicast_shortcut(self):
        """cA loses seq 1 (dropped on r1->cA); its planned peer is cB,
        and cB's repair must take the 1-hop shortcut — proving RP
        repairs are unicast on routed paths, not tree multicasts."""
        topo, tree, log, recorder, (s, ca, cb) = build(
            RPProtocolFactory(), drops={SEQ1_ON_R1_CA}
        )
        assert log.is_recovered(ca, 1)
        repair_path = recorder.path_of(PacketKind.REPAIR, 1)
        assert (cb, ca) in repair_path  # the shortcut link
        request_path = recorder.path_of(PacketKind.REQUEST, 1)
        assert (ca, cb) in request_path

    def test_no_recovery_traffic_without_losses(self):
        _, _, log, recorder, _ = build(RPProtocolFactory(), drops=set())
        assert log.num_detected == 0
        for kind in (PacketKind.REQUEST, PacketKind.REPAIR, PacketKind.NACK):
            assert recorder.path_of(kind, 0) == []
            assert recorder.path_of(kind, 1) == []


class TestSRMTraces:
    def test_nack_and_repair_are_tree_floods(self):
        """SRM's NACK must traverse tree links (not the shortcut), and
        the repair likewise floods the tree."""
        topo, tree, log, recorder, (s, ca, cb) = build(
            SRMProtocolFactory(), drops={SEQ1_ON_R1_CA}
        )
        assert log.is_recovered(ca, 1)
        nack_hops = recorder.path_of(PacketKind.NACK, 1)
        assert nack_hops, "expected at least one NACK flood"
        assert (ca, cb) not in nack_hops and (cb, ca) not in nack_hops
        # The NACK left cA toward its tree parent r1.
        assert (ca, 1) in nack_hops
        repair_hops = recorder.path_of(PacketKind.REPAIR, 1)
        assert repair_hops
        assert (ca, cb) not in repair_hops and (cb, ca) not in repair_hops
