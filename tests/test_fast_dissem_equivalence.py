"""Array-vs-per-hop dissemination equivalence.

Array dissemination resolves each send's whole journey at send time;
the hop-by-hop walkers move it one link traversal per event.  Loss
draws are keyed by the traversal (see ``repro.sim.rng.LossLane``), so
the two must agree exactly: same draws, same arrival times, same
delivery sets, same ledger totals.  ``events_processed`` is the one
quantity that legitimately differs, so every summary comparison here is
modulo that counter, and everything else must match *exactly* (no
tolerances).

The per-hop side of each comparison is forced through a test-local
monkeypatch of ``SimNetwork.enable_fast_dissem`` (the runner's only
arming point).  Gating is covered too: jitter, congestion, faults and
churn must each keep the run on the walkers, while observing a run
with the profiler on must not.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.campaign import run_campaign
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol_detailed
from repro.net.mcast_tree import MulticastTree
from repro.net.routing import RoutingTable
from repro.net.topology import NodeKind, Topology
from repro.obs.instrumentation import Instrumentation
from repro.protocols.naive import NearestPeerProtocolFactory
from repro.protocols.rma import RMAProtocolFactory
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.source import SourceProtocolFactory
from repro.protocols.srm import SRMProtocolFactory
from repro.sim.engine import EventQueue
from repro.sim.faults import CrashWindow, FaultSchedule
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet, PacketKind
from repro.sim.trace import TraceKind

FACTORIES = [
    RPProtocolFactory,
    SRMProtocolFactory,
    RMAProtocolFactory,
    SourceProtocolFactory,
    NearestPeerProtocolFactory,
]

BASE = dict(seed=11, num_routers=30, loss_prob=0.08, num_packets=8)


def _force_per_hop(patch) -> None:
    patch.setattr(SimNetwork, "enable_fast_dissem", lambda self: False)


@pytest.fixture
def dissem_mode(monkeypatch):
    """Run the array path (True) or force the walkers (False)."""

    def set_mode(array: bool) -> None:
        if array:
            monkeypatch.undo()
        else:
            _force_per_hop(monkeypatch)

    return set_mode


def _run(factory, config, instrumentation=None, faults=None, membership=None):
    return run_protocol_detailed(
        build_scenario(config), factory(),
        instrumentation=instrumentation, faults=faults, membership=membership,
    )


def _comparable(artifacts):
    """Everything that must match bit-for-bit, events_processed zeroed."""
    summary = dataclasses.replace(artifacts.summary, events_processed=0)
    return (
        json.dumps(dataclasses.asdict(summary), sort_keys=True, default=str),
        dict(artifacts.ledger.hops_by_kind),
        dict(artifacts.ledger.drops_by_kind),
        sorted(artifacts.log.latencies()),
        artifacts.log.outstanding(),
    )


class TestAllProtocolsBitIdentical:
    @pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("lossless_recovery", [False, True])
    def test_summary_and_ledger_match_scalar(
        self, factory, lossless_recovery, dissem_mode
    ):
        config = ScenarioConfig(**BASE, lossless_recovery=lossless_recovery)
        dissem_mode(False)
        per_hop = _run(factory, config)
        dissem_mode(True)
        array = _run(factory, config)
        assert _comparable(array) == _comparable(per_hop)
        # The array path must actually have fired — in both recovery
        # modes every journey collapses to one event per delivery.
        assert (
            array.summary.events_processed
            < per_hop.summary.events_processed
        )

    @pytest.mark.parametrize("factory", [RPProtocolFactory, SRMProtocolFactory])
    def test_telemetry_stream_matches_scalar(
        self, factory, dissem_mode, tmp_path
    ):
        config = ScenarioConfig(**BASE)
        lines = {}
        for array in (False, True):
            dissem_mode(array)
            path = tmp_path / f"events_{array}.jsonl"
            instr = Instrumentation.recording(
                jsonl_path=path, profile=False
            )
            _run(factory, config, instrumentation=instr)
            instr.close()
            lines[array] = path.read_text().splitlines()
        assert lines[True] == lines[False]

    def test_overlapping_cascades_still_identical(self, dissem_mode):
        # data_interval far below the tree's delay span: consecutive
        # DATA cascades interleave in time.
        config = ScenarioConfig(
            seed=7, num_routers=60, loss_prob=0.1, num_packets=10,
            data_interval=2.0,
        )
        dissem_mode(False)
        per_hop = _run(RPProtocolFactory, config)
        dissem_mode(True)
        array = _run(RPProtocolFactory, config)
        assert _comparable(array) == _comparable(per_hop)

    def test_lossless_tree_collapses_every_multicast(self, dissem_mode):
        config = ScenarioConfig(**{**BASE, "loss_prob": 0.0})
        dissem_mode(False)
        per_hop = _run(SRMProtocolFactory, config)
        dissem_mode(True)
        array = _run(SRMProtocolFactory, config)
        assert _comparable(array) == _comparable(per_hop)
        assert array.summary.events_processed < per_hop.summary.events_processed

    def test_campaign_output_matches_per_hop(self, dissem_mode, tmp_path):
        """Whole campaigns (both sweeps, several protocols, loss rates and
        seeds) agree modulo ``events_processed``."""

        def strip(value):
            if isinstance(value, dict):
                return {
                    k: strip(v) for k, v in value.items()
                    if k != "events_processed"
                }
            if isinstance(value, list):
                return [strip(v) for v in value]
            return value

        sweeps = {}
        for array in (False, True):
            dissem_mode(array)
            out = tmp_path / ("array" if array else "per_hop")
            run_campaign(
                out, num_packets=4, seeds=(1, 2), client_routers=(15, 25),
                loss_probs=(0.05, 0.10), loss_routers=25,
                progress=lambda *_: None,
            )
            sweeps[array] = {
                name: json.loads((out / name).read_text())
                for name in ("client_sweep.json", "loss_sweep.json")
            }
        assert strip(sweeps[True]) == strip(sweeps[False])


class TestHypothesisSweep:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        loss=st.sampled_from([0.0, 0.02, 0.08, 0.15]),
        lossless_recovery=st.booleans(),
    )
    def test_rp_bit_identity_over_seeds_and_loss(
        self, seed, loss, lossless_recovery
    ):
        config = ScenarioConfig(
            seed=seed, num_routers=25, loss_prob=loss, num_packets=6,
            lossless_recovery=lossless_recovery,
        )
        with pytest.MonkeyPatch.context() as patch:
            _force_per_hop(patch)
            per_hop = _run(RPProtocolFactory, config)
        array = _run(RPProtocolFactory, config)
        assert _comparable(array) == _comparable(per_hop)


class _Sink:
    def __init__(self, events=None):
        self.events = events
        self.received = []

    def on_packet(self, packet: Packet) -> None:
        if self.events is not None:
            self.received.append((self.events.now, packet))


def _lossy_network(array: bool = False):
    """A ten-link tree, every link dropping with p = 0.4.  Returns
    ``(network, source, clients, fates)``.  Walked hop by hop, ``fates``
    collects ``(time, kind, seq, from, to, survived)`` per traversal;
    with ``array`` the network is armed and unobserved instead."""
    topo = Topology()
    routers = topo.add_nodes(6, NodeKind.ROUTER)
    source = topo.add_node(NodeKind.SOURCE)
    clients = topo.add_nodes(4, NodeKind.CLIENT)
    links = [
        (source, routers[0]), (routers[0], routers[1]),
        (routers[0], routers[2]), (routers[1], routers[3]),
        (routers[2], routers[4]), (routers[2], routers[5]),
        (routers[3], clients[0]), (routers[4], clients[1]),
        (routers[5], clients[2]), (routers[1], clients[3]),
    ]
    for i, (u, v) in enumerate(links):
        topo.add_link(u, v, 1.0 + 0.37 * i, 0.4)
    tree = MulticastTree(topo, source, {v: u for u, v in links})
    events = EventQueue()
    net = SimNetwork(
        events, topo, RoutingTable(topo), tree,
        loss_rng=np.random.default_rng(5),
        data_loss_rng=np.random.default_rng(6),
    )
    for node in (*routers, *clients):
        net.attach_agent(node, _Sink(events))
    fates = []
    if array:
        assert net.enable_fast_dissem()
        return net, source, clients, fates

    def observe(event):
        if event.kind is not TraceKind.DELIVER:
            fates.append((
                event.time, event.packet_kind, event.seq, event.peer,
                event.node, event.kind is TraceKind.TRANSMIT,
            ))

    net.add_link_observer(observe)
    return net, source, clients, fates


def _data(seq):
    return lambda net, source, _clients: net.multicast_subtree(
        source, source, Packet(PacketKind.DATA, seq, origin=source)
    )


def _request(seq):
    return lambda net, _source, clients: net.send_unicast(
        clients[0], clients[2],
        Packet(PacketKind.REQUEST, seq, origin=clients[0]),
    )


def _flood(seq):
    return lambda net, _source, clients: net.flood_tree(
        clients[1], Packet(PacketKind.NACK, seq, origin=clients[1])
    )


def _fates_of(sends, kind, seq):
    """Per-link fates of the ``(kind, seq)`` packet when ``sends`` are
    issued in order at time 0."""
    net, source, clients, fates = _lossy_network()
    for send in sends:
        send(net, source, clients)
    net.events.run()
    return sorted(f for f in fates if f[1] is kind and f[2] == seq)


class TestPrimitivesUnderHeavyLoss:
    """Each send primitive, resolved at send time, against the walkers
    on a tree where 40% of traversals fail: same deliveries (agent,
    time, packet), same hop and drop charges."""

    @staticmethod
    def _outcome(sends, array):
        net, source, clients, _ = _lossy_network(array=array)
        for send in sends:
            send(net, source, clients)
        net.events.run()
        net.finalize_fast_dissem(net.events.now)
        received = {
            node: net.agent_at(node).received
            for node in range(net.topology.num_nodes)
            if net.agent_at(node) is not None
        }
        return received, dict(net.ledger.hops_by_kind), dict(net.ledger.drops_by_kind)

    def test_every_primitive_matches_the_walkers(self):
        def subtree_from_leaf(seq):
            # Access leg up from a leaf to an inner router, then down.
            return lambda net, _source, clients: net.multicast_subtree(
                clients[0], 2, Packet(PacketKind.REPAIR, seq, origin=clients[0])
            )

        def flood_from(client, seq):
            return lambda net, _source, clients: net.flood_tree(
                clients[client], Packet(PacketKind.NACK, seq, origin=clients[client])
            )

        sends = [
            make(seq) for seq in range(25)
            for make in (_data, _request, subtree_from_leaf)
        ] + [flood_from(c, seq) for seq in range(25) for c in range(4)]
        per_hop = self._outcome(sends, array=False)
        array = self._outcome(sends, array=True)
        assert array == per_hop
        assert per_hop[2]  # drops happened


class TestOrderIndependence:
    """A traversal's fate is a function of the traversal alone: what
    else is in flight, and the order sends are issued in, cannot change
    it."""

    @pytest.mark.parametrize("kind,make", [
        (PacketKind.DATA, _data), (PacketKind.REQUEST, _request),
        (PacketKind.NACK, _flood),
    ], ids=["data", "unicast", "flood"])
    def test_unrelated_send_leaves_fates_unchanged(self, kind, make):
        alone = _fates_of([make(3)], kind, 3)
        assert not all(f[-1] for f in alone), "no loss drawn"
        for other in (_data(9), _request(9), _flood(9)):
            assert _fates_of([other, make(3)], kind, 3) == alone

    def test_swapping_same_time_sends_leaves_fates_unchanged(self):
        # Two DATA cascades issued together cross every link at the same
        # instants, so any order-dependent draw would trade their fates.
        sends = [_data(1), _data(2), _request(1), _flood(1)]
        for kind, seq in (
            (PacketKind.DATA, 1), (PacketKind.DATA, 2),
            (PacketKind.REQUEST, 1), (PacketKind.NACK, 1),
        ):
            assert _fates_of(sends, kind, seq) == _fates_of(sends[::-1], kind, seq)

    def test_repeated_identical_send_draws_afresh(self):
        """The sender's attempt number keys the draws: resending an
        identical packet is a new trial, not a replay."""
        net, source, clients, fates = _lossy_network()
        send = _data(2)
        send(net, source, clients)
        net.events.schedule_at(100.0, lambda: send(net, source, clients))
        net.events.run()
        first = [f[3:] for f in fates if f[0] < 100.0]
        second = [f[3:] for f in fates if f[0] >= 100.0]
        assert first and second and first != second

    def test_link_observer_run_matches_array_run(self):
        """Causal tracing attaches a link observer (and stamps trace ids
        on packets), which puts a lossy-recovery run on the walkers;
        nothing but ``events_processed`` may change."""
        config = ScenarioConfig(**BASE)
        for factory in FACTORIES:
            array = _run(factory, config)
            traced = _run(
                factory, config,
                instrumentation=Instrumentation.recording(
                    profile=False, trace=True
                ),
            )
            assert traced.spans
            assert _comparable(traced) == _comparable(array)
            assert (
                array.summary.events_processed
                < traced.summary.events_processed
            )


class TestGatingFallbacks:
    """Each ineligibility condition keeps the run on the walkers —
    identical to a forced per-hop run, events_processed included."""

    def _pair(self, dissem_mode, config, **kw):
        dissem_mode(False)
        off = _run(RPProtocolFactory, config, **kw)
        dissem_mode(True)
        on = _run(RPProtocolFactory, config, **kw)
        return off, on

    def test_jitter_disables_fast_path(self, dissem_mode):
        config = ScenarioConfig(**BASE, jitter=0.05)
        off, on = self._pair(dissem_mode, config)
        assert on.summary == off.summary  # events_processed included

    def test_congestion_disables_fast_path(self, dissem_mode):
        config = ScenarioConfig(**BASE, congestion_alpha=0.01)
        off, on = self._pair(dissem_mode, config)
        assert on.summary == off.summary

    def test_faults_disable_fast_path(self, dissem_mode):
        schedule = FaultSchedule(crash_windows=(CrashWindow(0, 80.0, 120.0),))
        config = ScenarioConfig(**BASE)
        off, on = self._pair(dissem_mode, config, faults=schedule)
        assert on.summary == off.summary

    def test_churn_disables_fast_path(self, dissem_mode):
        # Churn prunes/grafts the tree mid-run; TreeDissem snapshots it
        # once, so an active membership schedule must keep the run on
        # the walkers.
        from repro.sim.membership import LEAVE, MembershipEvent, MembershipSchedule

        config = ScenarioConfig(**BASE)
        built = build_scenario(config)
        churner = next(
            c for c in built.tree.clients if c != built.tree.root
        )
        schedule = MembershipSchedule(events=(
            MembershipEvent(time=40.0, node=churner, kind=LEAVE),
        ))
        off, on = self._pair(dissem_mode, config, membership=schedule)
        assert on.summary == off.summary

    def test_enabled_profiler_keeps_fast_path(self, monkeypatch):
        armed = []
        enable = SimNetwork.enable_fast_dissem

        def spy(network):
            result = enable(network)
            armed.append(network)
            return result

        monkeypatch.setattr(SimNetwork, "enable_fast_dissem", spy)
        instr = Instrumentation.recording(profile=True)
        assert instr.profiler.enabled
        _run(RPProtocolFactory, ScenarioConfig(**BASE), instrumentation=instr)
        assert [net.fast_dissem_enabled for net in armed] == [True]
        # The profiler still measured the run, at phase granularity.
        assert instr.profiler.total("events.run") > 0.0


class TestObservedRunMatchesUnobserved:
    """Measuring must not disarm what is being measured: a recording
    run (event bus, counters, profiler on) takes the same code path as
    the unobserved run, so even ``events_processed`` agrees."""

    @pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("lossless_recovery", [False, True])
    def test_recording_summary_equals_plain(self, factory, lossless_recovery):
        config = ScenarioConfig(**BASE, lossless_recovery=lossless_recovery)
        plain = _run(factory, config)
        instr = Instrumentation.recording()
        try:
            observed = _run(factory, config, instrumentation=instr)
        finally:
            instr.close()
        assert instr.profiler.enabled
        assert observed.summary == plain.summary  # events_processed included
