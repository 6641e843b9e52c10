"""Tests for the source-based recovery baseline: RP's runtime on the
empty prioritized list, with a source that repairs by unicast."""

from repro.core.timeouts import FixedTimeout
from repro.protocols.policy import RecoveryPolicy
from repro.protocols.rp import RPClientAgent, RPSourceAgent
from repro.protocols.source import SourceConfig, SourceProtocolFactory
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngStreams


def data(seq):
    return Packet(PacketKind.DATA, seq, origin=2)


def install(world, timeout=20.0, policy=None):
    config = SourceConfig(
        timeout_policy=FixedTimeout(timeout),
        recovery_policy=policy or RecoveryPolicy(),
    )
    source = SourceProtocolFactory(config).install(
        world.network, world.log, world.tracker, RngStreams(0),
        world.num_packets,
    )
    agents = {
        client: world.network.agent_at(client)
        for client in (world.CA, world.CB, world.CC)
    }
    return agents, source


class TestSourceRecovery:
    def test_factory_install(self, world):
        factory = SourceProtocolFactory()
        source = factory.install(
            world.network, world.log, world.tracker, RngStreams(0),
            world.num_packets,
        )
        assert factory.name == "SOURCE"
        assert isinstance(source, RPSourceAgent)
        assert not source.source_multicast
        for client in (world.CA, world.CB, world.CC):
            agent = world.network.agent_at(client)
            assert isinstance(agent, RPClientAgent)
            assert agent.strategy.attempts == ()
            assert agent.protocol == "source"
            assert agent.detector is None

    def test_loss_recovered_from_source(self, world):
        agents, source = install(world)
        source.next_seq = 2
        agents[world.CA].on_packet(data(1))
        world.events.run(until=200.0)
        assert world.log.is_recovered(world.CA, 0)

    def test_unicast_mode_touches_only_requester(self, world):
        agents, source = install(world)
        source.next_seq = 2
        agents[world.CA].on_packet(data(1))
        world.events.run(until=200.0)
        assert agents[world.CA].has(0)
        # A subgroup multicast would have reached cB and cC as well.
        assert not agents[world.CB].has(0)
        assert not agents[world.CC].has(0)
        assert world.ledger.hops_by_kind[PacketKind.REPAIR] == 3

    def test_retries_on_silent_source(self, world):
        # The source has sent nothing yet, so it ignores every request:
        # the client must keep trying.
        agents, _ = install(world, timeout=10.0)
        agents[world.CA].on_packet(data(1))
        world.events.run(until=100.0)
        assert world.ledger.hops_by_kind[PacketKind.REQUEST] >= 3 * 3

    def test_hardened_policy_abandons_a_silent_source(self, world):
        agents, _ = install(world, timeout=10.0, policy=RecoveryPolicy.hardened())
        agents[world.CA].on_packet(data(1))
        world.events.run(until=5_000.0)
        assert world.log.was_abandoned(world.CA, 0)
        assert world.ledger.hops_by_kind[PacketKind.REQUEST] == 6 * 3
