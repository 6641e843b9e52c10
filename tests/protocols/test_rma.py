"""Tests for the RMA baseline: upstream ordering, one-by-one escalation,
subsumption, subtree repairs, the source deadline."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.timeouts import FixedTimeout
from repro.net.generators import TopologyConfig, random_backbone
from repro.net.mcast_tree import MulticastTree, random_multicast_tree
from repro.net.routing import RoutingTable
from repro.net.topology import NodeKind, Topology
from repro.protocols.rma import (
    RMAClientAgent,
    RMAConfig,
    RMAProtocolFactory,
    RMASourceAgent,
    upstream_receiver_order,
)
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngStreams
from tests.protocols.rma_oracles import naive_upstream_receiver_order


def data(seq):
    return Packet(PacketKind.DATA, seq, origin=2)


def install_rma(world, config=None):
    config = config or RMAConfig()
    agents = {}
    for client in (world.CA, world.CB, world.CC):
        agent = RMAClientAgent(
            client, world.network, world.log, world.tracker,
            world.num_packets, config,
        )
        world.network.attach_agent(client, agent)
        agents[client] = agent
    source = RMASourceAgent(world.S, world.network)
    world.network.attach_agent(world.S, source)
    return agents, source


class TestUpstreamOrder:
    def test_nearest_upstream_first(self, world):
        # For CA (under r1, depth 3): CB shares r1 (ds=2) -> nearest;
        # CC shares r0 (ds=1) -> second.
        agents, _ = install_rma(world)
        order = [peer for peer, _ in agents[world.CA].search_order]
        assert order == [world.CB, world.CC]

    def test_own_subtree_excluded(self, world):
        # For CC (under r0, depth 2): CA and CB share r0 (ds=1 < 2): both
        # upstream; neither is in CC's subtree.
        agents, _ = install_rma(world)
        order = [peer for peer, _ in agents[world.CC].search_order]
        assert set(order) == {world.CA, world.CB}

    def test_order_function_matches_agent(self, world):
        agents, _ = install_rma(world)
        assert (
            upstream_receiver_order(world.network, world.CA)
            == agents[world.CA].search_order
        )


class TestUpstreamOrderOracle:
    """The array-built search order equals the per-pair reference loop
    for every client: peers, RTT floats and order."""

    @pytest.mark.parametrize("routers,seed", [(60, 1), (120, 2), (200, 3)])
    def test_matches_reference_on_random_scenarios(self, routers, seed):
        topo = random_backbone(
            TopologyConfig(num_routers=routers), np.random.default_rng(seed)
        )
        tree = random_multicast_tree(topo, np.random.default_rng(seed + 100))
        network = SimpleNamespace(tree=tree, routing=RoutingTable(topo))
        assert len(tree.clients) > 10
        for client in tree.clients:
            assert upstream_receiver_order(network, client) == (
                naive_upstream_receiver_order(network, client)
            )

    def test_ties_break_on_rtt_then_id(self):
        # S - r0 - r1 - cA, with cD beside cA under r1 (DS 2) and cB, cC,
        # cF hanging off r0 (DS 1).  cB and cC tie on DS and RTT, so
        # their ids decide; cF has the lowest id but a longer link, so
        # RTT puts it last.
        topo = Topology()
        r0, r1 = topo.add_nodes(2, NodeKind.ROUTER)
        s = topo.add_node(NodeKind.SOURCE)
        cf, cc, ca, cb, cd = topo.add_nodes(5, NodeKind.CLIENT)
        for u, v, delay in (
            (s, r0, 1.0), (r0, r1, 1.0), (r1, ca, 1.0), (r1, cd, 1.0),
            (r0, cc, 1.0), (r0, cb, 1.0), (r0, cf, 2.0),
        ):
            topo.add_link(u, v, delay)
        tree = MulticastTree(
            topo, s, {r0: s, r1: r0, ca: r1, cd: r1, cc: r0, cb: r0, cf: r0}
        )
        network = SimpleNamespace(tree=tree, routing=RoutingTable(topo))
        order = upstream_receiver_order(network, ca)
        assert order == [(cd, 4.0), (cc, 6.0), (cb, 6.0), (cf, 8.0)]
        for client in tree.clients:
            assert upstream_receiver_order(network, client) == (
                naive_upstream_receiver_order(network, client)
            )


class TestSearch:
    def test_first_request_to_nearest_upstream(self, world):
        config = RMAConfig(timeout_policy=FixedTimeout(50.0))
        agents, _ = install_rma(world, config)
        agents[world.CB].on_packet(data(0))  # CB holds seq 0
        agents[world.CA].on_packet(data(1))  # CA loses 0, asks CB
        world.events.run(until=300.0)
        assert world.log.is_recovered(world.CA, 0)

    def test_timeout_escalates_to_next(self, world):
        config = RMAConfig(timeout_policy=FixedTimeout(5.0))
        agents, _ = install_rma(world, config)
        # CB misses seq 0 too (silent subsume); CC holds it.
        agents[world.CC].on_packet(data(0))
        agents[world.CA].on_packet(data(1))
        world.events.run(until=500.0)
        assert world.log.is_recovered(world.CA, 0)

    def test_deadline_jumps_to_source(self, world):
        # Tiny deadline: the search goes to the source immediately after
        # the first timeout even though peers remain.
        config = RMAConfig(
            timeout_policy=FixedTimeout(5.0), source_deadline_factor=0.001
        )
        agents, source = install_rma(world, config)
        source.next_seq = 2
        agents[world.CA].on_packet(data(1))
        world.events.run(until=400.0)
        assert world.log.is_recovered(world.CA, 0)

    def test_source_repair_is_subtree_multicast(self, world):
        config = RMAConfig(source_deadline_factor=0.001)
        agents, source = install_rma(world, config)
        source.next_seq = 2
        # CA and CB both lose 0; CA's source repair covers CB too.
        agents[world.CA].on_packet(data(1))
        agents[world.CB].on_packet(data(1))
        world.events.run(until=1000.0)
        assert world.log.is_recovered(world.CA, 0)
        assert world.log.is_recovered(world.CB, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RMAConfig(source_deadline_factor=0.0)


class TestSubsumption:
    def test_request_to_missing_peer_forces_detection(self, world):
        agents, _ = install_rma(world)
        cb = agents[world.CB]
        # CB has not even noticed seq 0 exists; the request teaches it.
        cb.on_packet(Packet(PacketKind.REQUEST, 0, origin=world.CA))
        assert 0 in cb.detected
        assert world.log.was_lost(world.CB, 0)

    def test_subsumed_request_flushed_on_recovery(self, world):
        agents, _ = install_rma(world)
        cb = agents[world.CB]
        cb.on_packet(Packet(PacketKind.REQUEST, 0, origin=world.CA))
        before = world.ledger.hops_by_kind[PacketKind.REPAIR]
        cb.on_packet(Packet(PacketKind.REPAIR, 0, origin=world.S))
        world.events.run(until=50.0)
        # CB multicast a repair covering CA once it got the packet.
        assert world.ledger.hops_by_kind[PacketKind.REPAIR] > before
        assert world.log.is_recovered(world.CA, 0) or any(
            p is not None for p in [world.network.agent_at(world.CA)]
        )

    def test_peer_with_packet_repairs_subtree(self, world):
        agents, _ = install_rma(world)
        cb = agents[world.CB]
        cb.on_packet(data(0))
        cb.on_packet(Packet(PacketKind.REQUEST, 0, origin=world.CA))
        world.events.run(until=50.0)
        # Repair multicast rooted at r1 (meeting of CA and CB): 2 links
        # up... CB -> r1 (1 hop) then down to CA and CB (2 hops).
        assert world.ledger.hops_by_kind[PacketKind.REPAIR] >= 2


class TestFactory:
    def test_install(self, world):
        factory = RMAProtocolFactory()
        source = factory.install(
            world.network, world.log, world.tracker, RngStreams(0),
            world.num_packets,
        )
        assert isinstance(source, RMASourceAgent)
        for client in world.tree.clients:
            assert isinstance(world.network.agent_at(client), RMAClientAgent)
