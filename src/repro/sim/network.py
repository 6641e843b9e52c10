"""Packet-level network simulation.

Wires a :class:`~repro.net.topology.Topology`, its
:class:`~repro.net.routing.RoutingTable` and a
:class:`~repro.net.mcast_tree.MulticastTree` onto the event calendar.
Three transmission primitives cover everything the protocols need:

* :meth:`SimNetwork.send_unicast` — hop-by-hop along the minimum
  expected-RTT route (how the paper routes unicast, section 5.1);
* :meth:`SimNetwork.multicast_subtree` — a repair travelling up/over to
  a tree node and then copied down its subtree along tree links (RMA
  repairs, RP's source-subgroup fallback, the original data stream);
* :meth:`SimNetwork.flood_tree` — any-source group multicast: the
  packet spreads over every tree link outward from the originating
  member (SRM NACKs and repairs).

Each link traversal *attempt* draws an independent Bernoulli loss and
charges one hop to the bandwidth ledger — a transmitted-then-dropped
packet still consumed the link.  Link delay and loss are independent of
traffic volume; the paper points out this favors the chattier protocols
(SRM, then RMA), and we preserve that bias for fidelity.

Loss draws are keyed, not sequential: every send gets a loss key from a
:class:`~repro.sim.rng.LossLane` (the packet's identity, the sender and
the sender's attempt number for that identity — never its trace
context), and a traversal is lost iff the lane's uniform for (key,
directed link) is below the link's loss probability.  DATA draws from
the ``data`` lane shared by every protocol on a seed, so protocols
compared on one seed face the *identical* original-loss pattern;
everything else draws from the protocol's own lane.

Agents (protocol endpoints) register per node; intermediate routers
forward without an agent.  Deliveries never happen synchronously inside
the sender's call — everything is mediated by the event queue, so
protocol code observes a consistent clock.

**Two ways to move a packet, one realization.**  Once the experiment
runner calls :meth:`SimNetwork.enable_fast_dissem`, every send resolves
its whole journey at send time — arrival times, keyed loss draws, the
members reached, the hops and drops charged — in numpy via
:mod:`repro.sim.dissem`, and only the agent deliveries are scheduled as
events.  The hop-by-hop walkers below (one event per link traversal)
remain for what needs per-traversal state: delay jitter, congestion,
faults (Gilbert–Elliott burst loss included), membership churn, an
armed time-series collector, attached link observers, and directly
constructed networks.  A profiler never picks the path: its scopes
wrap whole runs and phases, not traversals.  Because a draw is a
function of the traversal, not of when it is resolved, both give the
same arrival times, deliveries and ledger totals (an in-flight registry
refunds hops/drops charged at send time whose transmit instant falls
after the drain cutoff); only ``events_processed`` differs.

The walkers are closure-free: reusable transit objects step cached
int-array paths (an LRU of routed paths — client↔peer pairs repeat
heavily) and cached per-node ``(child, link)`` arrays.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from repro.net.mcast_tree import MulticastTree
from repro.net.routing import RoutingTable
from repro.net.topology import Link, Topology
from repro.sim import dissem as dissem_mod
from repro.sim.engine import EventQueue
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import LossLane
from repro.sim.trace import TraceEvent, TraceKind

if TYPE_CHECKING:  # pragma: no cover - import cycle breaker
    from repro.metrics.collectors import BandwidthLedger
    from repro.sim.faults import FaultInjector
    from repro.sim.membership import MembershipDirector

#: Routed-path LRU capacity (entries).  Recovery traffic concentrates
#: on client↔peer and client↔source pairs, which repeat heavily.
PATH_CACHE_SIZE = 65536

#: Tree access-leg LRU capacity (entries).
LEG_CACHE_SIZE = 8192


class Agent(Protocol):
    """Protocol endpoint attached to a node."""

    def on_packet(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class _RoutedPath:
    """A cached unicast route: nodes, links and per-hop delays."""

    __slots__ = ("nodes", "links", "delays")

    def __init__(self, topology: Topology, nodes: list[int]):
        self.nodes = tuple(nodes)
        links = tuple(
            topology.link_between(nodes[i], nodes[i + 1])
            for i in range(len(nodes) - 1)
        )
        self.links = links
        self.delays = [link.delay for link in links]


class _UnicastTransit:
    """Closure-free hop walker for a unicast journey.

    One instance per send; it is its own arrival callback and steps the
    cached path without allocating a lambda per hop.
    """

    __slots__ = ("_network", "_path", "_packet", "_journey", "_index")

    def __init__(
        self, network: "SimNetwork", path: _RoutedPath, packet: Packet, journey
    ):
        self._network = network
        self._path = path
        self._packet = packet
        self._journey = journey
        self._index = 0

    def __call__(self) -> None:
        network = self._network
        path = self._path
        i = self._index
        if i == len(path.nodes) - 1:
            network._deliver(path.nodes[i], self._packet)
            return
        self._index = i + 1
        network._transmit(
            path.links[i], path.nodes[i + 1], self._packet, self._journey, self
        )


class _LegTransit:
    """Closure-free walker for a multicast access leg: carries the
    packet along the tree path to the subtree root, then delivers there
    and cascades down."""

    __slots__ = ("_network", "_path", "_packet", "_journey", "_index")

    def __init__(
        self, network: "SimNetwork", path: _RoutedPath, packet: Packet, journey
    ):
        self._network = network
        self._path = path
        self._packet = packet
        self._journey = journey
        self._index = 0

    def __call__(self) -> None:
        network = self._network
        path = self._path
        i = self._index
        if i == len(path.nodes) - 1:
            node = path.nodes[i]
            network._deliver(node, self._packet)
            network._cascade_down(node, self._packet, self._journey)
            return
        self._index = i + 1
        network._transmit(
            path.links[i], path.nodes[i + 1], self._packet, self._journey, self
        )


class _CascadeArrival:
    """Arrival of one downstream multicast copy: deliver, then copy to
    the children (replaces the per-child ``arrive`` lambdas)."""

    __slots__ = ("_network", "_node", "_packet", "_journey")

    def __init__(self, network: "SimNetwork", node: int, packet: Packet, journey):
        self._network = network
        self._node = node
        self._packet = packet
        self._journey = journey

    def __call__(self) -> None:
        self._network._deliver(self._node, self._packet)
        self._network._cascade_down(self._node, self._packet, self._journey)


class _FloodArrival:
    """Arrival of one flood copy: deliver, then spread everywhere but
    back where it came from."""

    __slots__ = ("_network", "_node", "_came_from", "_packet", "_journey")

    def __init__(
        self, network: "SimNetwork", node: int, came_from: int, packet: Packet,
        journey,
    ):
        self._network = network
        self._node = node
        self._came_from = came_from
        self._packet = packet
        self._journey = journey

    def __call__(self) -> None:
        self._network._deliver(self._node, self._packet)
        self._network._flood_spread(
            self._node, self._came_from, self._packet, self._journey
        )


class _FastDissem:
    """Per-run state of the array dissemination path."""

    __slots__ = ("dissem", "agent_pos", "scratch", "inflight")

    def __init__(self):
        self.dissem: dissem_mod.TreeDissem | None = None
        self.agent_pos: np.ndarray | None = None
        self.scratch: np.ndarray | None = None
        # Hop/drop charge times of every array-resolved send, by kind —
        # reconciled against the drain cutoff in finalize_fast_dissem.
        self.inflight: list[tuple[PacketKind, np.ndarray, np.ndarray | None]] = []

    def ensure(self, tree: MulticastTree, agents: dict[int, Agent]):
        if self.dissem is None:
            self.dissem = dissem_mod.TreeDissem(tree)
            pos = self.dissem.pos_of_node
            self.agent_pos = np.asarray(
                sorted(int(pos[n]) for n in agents if pos[n] >= 0),
                dtype=np.int64,
            )
            self.scratch = np.empty(self.dissem.num_members, dtype=np.float64)
        return self.dissem


class SimNetwork:
    """The simulated network: forwarding, loss, delay, accounting."""

    def __init__(
        self,
        events: EventQueue,
        topology: Topology,
        routing: RoutingTable,
        tree: MulticastTree,
        loss_rng: "np.random.Generator | LossLane",
        ledger: "BandwidthLedger | None" = None,
        data_loss_rng: "np.random.Generator | LossLane | None" = None,
        lossless_recovery: bool = False,
        jitter: float = 0.0,
        jitter_rng: np.random.Generator | None = None,
        congestion: "object | None" = None,
        faults: "FaultInjector | None" = None,
        membership: "MembershipDirector | None" = None,
    ):
        # Imported here, not at module level: metrics.collectors imports
        # sim.packet, so a module-level import would be circular.
        from repro.metrics.collectors import BandwidthLedger

        if routing.topology is not topology or tree.topology is not topology:
            raise ValueError("topology, routing and tree must be consistent")
        self.events = events
        self.topology = topology
        self.routing = routing
        self.tree = tree
        # Keyed loss lanes (see repro.sim.rng.LossLane), each seeded by
        # one draw from its generator.  DATA may have its own lane so
        # that protocols compared on one seed face the *identical*
        # original-loss pattern (recovery traffic still uses
        # per-protocol entropy).
        self._loss_lane = LossLane.seeded_by(loss_rng)
        self._data_lane = (
            LossLane.seeded_by(data_loss_rng)
            if data_loss_rng is not None else self._loss_lane
        )
        # Sends so far per (sender, packet identity): the attempt number
        # that keeps a repeated identical send's draws independent.
        self._attempts: dict[tuple, int] = {}
        # The paper's simulator ignores loss of requests and repairs
        # (section 3.1: "the probability that the request or the repair
        # is lost is ignored"; Figure 7's flat latency curves up to
        # p=20% are only consistent with that).  With
        # ``lossless_recovery`` only DATA/SESSION packets face loss.
        self._lossless_recovery = lossless_recovery
        # Optional per-transmission delay jitter: the actual delay of a
        # traversal is uniform in [d(1-j), d(1+j)].  The paper fixes the
        # expected delay per link; jitter is a beyond-paper realism knob
        # (it introduces reordering, which gap detection must tolerate).
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if jitter > 0.0 and jitter_rng is None:
            raise ValueError("jitter > 0 requires a jitter_rng")
        self._jitter = jitter
        self._jitter_rng = jitter_rng
        # Optional load-dependent delays (LinearCongestionModel); None
        # keeps the paper's load-independent links.
        self._congestion = congestion
        # Optional fault injection (crash windows, link downs, burst
        # loss, recovery black-holing — see repro.sim.faults).  None
        # keeps every fault check at a single attribute test, and the
        # runner never constructs an injector for a null schedule, so
        # fault-free runs replay the pre-fault byte stream exactly.
        self._faults = faults
        # Optional dynamic membership (join/leave churn — see
        # repro.sim.membership).  Same discipline as faults: None keeps
        # every check at one attribute test, and the runner never
        # constructs a director for a null schedule, so churn-free runs
        # replay the pre-membership byte stream exactly.  The director
        # suppresses a departed member's sends *before* the tree
        # containment checks: a pruned leaf is no longer a tree member,
        # and its last armed sends must vanish, not raise.
        self._membership = membership
        if membership is not None:
            membership.bind(self)
        self.ledger = ledger if ledger is not None else BandwidthLedger()
        self._agents: dict[int, Agent] = {}
        # Link observers receive one TraceEvent per transmission, drop
        # and delivery — the single transmission-level record stream the
        # TraceRecorder and the causal tracer both consume.  The empty
        # list keeps every emission site at one truthiness test, so an
        # unobserved run constructs no events at all.
        self._link_observers: list[Callable[[TraceEvent], None]] = []
        # Array dissemination; armed by enable_fast_dissem.
        self._fast: _FastDissem | None = None
        # LRUs of routed unicast paths and tree access legs (both as
        # _RoutedPath records), shared by both ways of moving a packet.
        self._path_cache: OrderedDict[tuple[int, int], _RoutedPath] = OrderedDict()
        self._leg_cache: OrderedDict[tuple[int, int], _RoutedPath] = OrderedDict()

    # -- link observers ---------------------------------------------------

    def add_link_observer(
        self, observer: Callable[[TraceEvent], None]
    ) -> None:
        """Register ``observer`` for every transmit/drop/deliver event."""
        self._link_observers.append(observer)

    def remove_link_observer(
        self, observer: Callable[[TraceEvent], None]
    ) -> None:
        self._link_observers.remove(observer)

    def _emit_link(
        self, kind: TraceKind, packet: Packet, node: int, peer: int,
        delay: float,
    ) -> None:
        event = TraceEvent(
            time=self.events.now,
            kind=kind,
            packet_kind=packet.kind,
            seq=packet.seq,
            origin=packet.origin,
            node=node,
            peer=peer,
            trace_id=packet.trace_id,
            span_id=packet.span_id,
            delay=delay,
        )
        for observer in self._link_observers:
            observer(event)

    # -- agents ----------------------------------------------------------

    def attach_agent(self, node: int, agent: Agent) -> None:
        if node in self._agents:
            raise ValueError(f"node {node} already has an agent")
        if not 0 <= node < self.topology.num_nodes:
            raise ValueError(f"unknown node {node}")
        self._agents[node] = agent

    def agent_at(self, node: int) -> Agent | None:
        return self._agents.get(node)

    def _deliver(self, node: int, packet: Packet) -> None:
        # The DELIVER event fires for every arrival — agentless routers
        # and crash-dropped deliveries included — so observers see the
        # wire's view, not the process's.
        if self._link_observers:
            self._emit_link(TraceKind.DELIVER, packet, node, -1, 0.0)
        agent = self._agents.get(node)
        if agent is not None:
            if self._faults is not None and self._faults.drop_delivery(
                node, packet, self.events.now
            ):
                # The node's *process* is crashed: the wire delivered,
                # the agent silently ignores.  (Forwarding through the
                # node is unaffected — routers did not crash.)
                return
            if self._membership is not None and self._membership.drop_delivery(
                node, packet, self.events.now
            ):
                # The node left the group: the wire delivered, the
                # departed process ignores.  (Interior ex-members still
                # forward — the wire outlives the member.)
                return
            agent.on_packet(packet)

    # -- path caches -----------------------------------------------------

    def _routed_path(self, src: int, dst: int) -> _RoutedPath:
        cache = self._path_cache
        key = (src, dst)
        entry = cache.get(key)
        if entry is None:
            entry = _RoutedPath(self.topology, self.routing.path(src, dst))
            cache[key] = entry
            if len(cache) > PATH_CACHE_SIZE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return entry

    def _tree_leg(self, src: int, subtree_root: int) -> _RoutedPath:
        cache = self._leg_cache
        key = (src, subtree_root)
        entry = cache.get(key)
        if entry is None:
            entry = _RoutedPath(
                self.topology, self.tree.tree_path(src, subtree_root)
            )
            cache[key] = entry
            if len(cache) > LEG_CACHE_SIZE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return entry

    # -- dynamic membership ----------------------------------------------

    @property
    def membership(self) -> "MembershipDirector | None":
        return self._membership

    def on_tree_mutated(self) -> None:
        """Invalidate tree-derived caches after a prune/graft.

        The access-leg LRU holds tree paths, which a mutation can
        reroute; the routed-path LRU is topology-only and survives.
        (The tree rebuilds its own derived structures internally, and
        the fast dissemination path is never armed alongside a
        membership director.)
        """
        self._leg_cache.clear()

    # -- array dissemination -------------------------------------------------

    def enable_fast_dissem(self) -> bool:
        """Arm array dissemination for a runner-driven session.

        Refused (checked here once) when a traversal needs state of its
        own: delay jitter, a congestion model, a fault injector or a
        membership director.  Attached link observers are checked at
        each send.  Only the runner calls this; directly constructed
        networks walk hop by hop throughout.
        """
        self._fast = None
        if self._jitter > 0.0 or self._congestion is not None:
            return False
        if self._faults is not None or self._membership is not None:
            # Churn also mutates the tree mid-run, and TreeDissem
            # snapshots it once.
            return False
        self._fast = _FastDissem()
        return True

    @property
    def fast_dissem_enabled(self) -> bool:
        return self._fast is not None

    def finalize_fast_dissem(self, now: float) -> None:
        """Reconcile send-time charges against the drain cutoff.

        A walker charges each hop/drop when its transmit event fires;
        events strictly after the final ``run(until=now)`` cutoff never
        fire and are never charged.  Array dissemination charged whole
        journeys at send time, recording each charge's would-be event
        time — refund the ones the walkers would not have made.
        """
        fast = self._fast
        if fast is None:
            return
        for kind, hop_times, drop_times in fast.inflight:
            late = int(np.count_nonzero(hop_times > now))
            if late:
                self.ledger.refund_hops(kind, late)
            if drop_times is not None:
                late_drops = int(np.count_nonzero(drop_times > now))
                if late_drops:
                    self.ledger.refund_drops(kind, late_drops)
        fast.inflight.clear()

    def _array_path(self) -> bool:
        return self._fast is not None and not self._link_observers

    def _apply_fast(
        self,
        packet: Packet,
        deliver_nodes,
        deliver_times,
        hop_times: np.ndarray,
        drop_times: np.ndarray | None,
    ) -> None:
        """Charge a resolved dissemination and schedule its deliveries."""
        self.ledger.charge_hops(packet.kind, int(hop_times.size))
        if drop_times is not None and drop_times.size:
            self.ledger.charge_drops(packet.kind, int(drop_times.size))
        self._fast.inflight.append((packet.kind, hop_times, drop_times))
        schedule_at = self.events.schedule_at
        deliver = self._deliver
        for node, when in zip(deliver_nodes, deliver_times):
            schedule_at(when, partial(deliver, node, packet))

    def _walk(
        self, path: _RoutedPath, packet: Packet, journey
    ) -> tuple[np.ndarray, float | None]:
        """Resolve a routed path from now: the transmit time of every
        hop attempted, and the arrival time at the end (``None`` when a
        hop drops — its transmit time is the last one listed)."""
        t = self.events.now
        times = []
        lane = self._lane(packet)
        nodes = path.nodes
        for i, link in enumerate(path.links):
            times.append(t)
            p = link.loss_prob
            if (
                journey is not None and p > 0.0
                and lane.uniform(journey, nodes[i], nodes[i + 1]) < p
            ):
                return np.asarray(times, dtype=np.float64), None
            t = t + path.delays[i]
        return np.asarray(times, dtype=np.float64), t

    def _fast_unicast(
        self, path: _RoutedPath, dst: int, packet: Packet, journey
    ) -> None:
        hop_times, arrival = self._walk(path, packet, journey)
        if arrival is None:
            self._apply_fast(packet, (), (), hop_times, hop_times[-1:])
        else:
            self._apply_fast(packet, (dst,), (arrival,), hop_times, None)

    def _fast_subtree(
        self, src: int, subtree_root: int, packet: Packet, journey
    ) -> None:
        """Access leg + subtree copy resolved in one pass."""
        fast = self._fast
        dissem = fast.ensure(self.tree, self._agents)
        nodes: list[int] = []
        times: list[float] = []
        leg_times = None
        t_root = self.events.now
        if src != subtree_root:
            leg_times, t_root = self._walk(
                self._tree_leg(src, subtree_root), packet, journey
            )
            if t_root is None:
                self._apply_fast(packet, (), (), leg_times, leg_times[-1:])
                return
            if subtree_root in self._agents:
                # Delivered at the end of the access leg, before its
                # descendants.
                nodes.append(subtree_root)
                times.append(t_root)
        outcome = dissem_mod.resolve_subtree(
            dissem, int(dissem.pos_of_node[subtree_root]), t_root,
            fast.agent_pos, fast.scratch, self._lane(packet), journey,
        )
        hop_times = outcome.hop_times
        if leg_times is not None:
            hop_times = np.concatenate((leg_times, hop_times))
        nodes += dissem.order[outcome.reached].tolist()
        times += outcome.times.tolist()
        self._apply_fast(packet, nodes, times, hop_times, outcome.drop_times)

    def _fast_flood(self, src: int, packet: Packet, journey) -> None:
        fast = self._fast
        dissem = fast.ensure(self.tree, self._agents)
        outcome = dissem_mod.resolve_flood(
            dissem, int(dissem.pos_of_node[src]), self.events.now,
            fast.agent_pos, self._lane(packet), journey,
        )
        self._apply_fast(
            packet,
            dissem.order[outcome.reached].tolist(),
            outcome.times.tolist(),
            outcome.hop_times,
            outcome.drop_times,
        )

    # -- loss keys -----------------------------------------------------------

    def _lane(self, packet: Packet) -> LossLane:
        return self._data_lane if packet.kind is PacketKind.DATA else self._loss_lane

    def _journey(self, src: int, packet: Packet):
        """The loss key of a send from ``src``, or ``None`` when the
        send is exempt from loss (recovery traffic under
        ``lossless_recovery``).  Every send counts as an attempt."""
        key = (
            src, packet.kind, packet.seq, packet.origin, packet.highest_seq,
            packet.req_id, packet.chain_index,
        )
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        if self._lossless_recovery and packet.is_recovery_traffic:
            return None
        return self._lane(packet).journey(packet, src, attempt)

    # -- link-level primitive ------------------------------------------------

    def _transmit(
        self,
        link: Link,
        to_node: int,
        packet: Packet,
        journey,
        on_arrival: Callable[[], None],
    ) -> bool:
        """Put ``packet`` on ``link`` toward ``to_node``.

        Charges the hop, draws the loss (keyed by ``journey``, the
        send's loss key; ``None`` = exempt), and schedules ``on_arrival``
        after the link delay when the packet survives.  Returns whether
        the packet survived the loss draw — the authoritative
        survive/drop outcome tracing and telemetry consume (inferring
        it from event-heap growth would mislabel transmissions whenever
        a hook or future primitive schedules differently).
        """
        self.ledger.charge_hop(packet.kind)
        faults = self._faults
        if faults is not None and faults.link_down(link, self.events.now):
            # A down link drops everything — data, session and recovery
            # alike, regardless of the lossless_recovery exemption.
            dropped = True
        elif journey is None:
            dropped = False
        elif faults is not None and faults.burst_loss:
            # Gilbert–Elliott replaces the Bernoulli draw entirely; its
            # draws come from the fault lane, never the loss lanes.
            dropped = faults.burst_loss_draw(link, self.events.now)
        else:
            p = link.loss_prob
            dropped = p > 0.0 and self._lane(packet).uniform(
                journey, link.other(to_node), to_node
            ) < p
        if dropped:
            self.ledger.charge_drop(packet.kind)
            if self._link_observers:
                self._emit_link(
                    TraceKind.DROP, packet, to_node, link.other(to_node), 0.0
                )
            return False
        delay = link.delay
        if self._jitter > 0.0:
            assert self._jitter_rng is not None
            delay *= 1.0 + self._jitter * (2.0 * self._jitter_rng.random() - 1.0)
        if self._congestion is not None:
            key = (link.u, link.v)
            concurrent = self._congestion.begin(key)
            delay = self._congestion.effective_delay(delay, concurrent)
            congestion = self._congestion

            def arrive_and_release() -> None:
                congestion.end(key)
                on_arrival()

            self.events.schedule(delay, arrive_and_release)
        else:
            self.events.schedule(delay, on_arrival)
        if self._link_observers:
            self._emit_link(
                TraceKind.TRANSMIT, packet, to_node, link.other(to_node), delay
            )
        return True

    # -- unicast ---------------------------------------------------------------

    def send_unicast(self, src: int, dst: int, packet: Packet) -> None:
        """Send ``packet`` from ``src`` to ``dst`` along the routed path.

        Delivery (if the packet survives every hop) invokes the
        destination agent; intermediate nodes just forward.  ``src ==
        dst`` delivers locally on the next event tick (zero hops) —
        through :meth:`_deliver`, so local delivery faces the same
        crash check as a remote arrival.
        """
        if self._membership is not None and self._membership.suppress_send(
            src, packet, self.events.now
        ):
            return
        faults = self._faults
        if faults is not None:
            now = self.events.now
            if faults.suppress_send(src, packet, now):
                return
            if faults.blackhole(packet, now):
                # The recovery packet vanishes end-to-end: hops are not
                # charged (it was eaten, not transmitted) and the
                # receiver's only signal is its own timeout.
                return
        if src == dst:
            self.events.schedule(0.0, partial(self._deliver, dst, packet))
            return
        path = self._routed_path(src, dst)
        journey = self._journey(src, packet)
        if self._array_path():
            self._fast_unicast(path, dst, packet, journey)
            return
        _UnicastTransit(self, path, packet, journey)()

    # -- tree multicast -----------------------------------------------------------

    def _cascade_down(self, node: int, packet: Packet, journey) -> None:
        """Copy ``packet`` to every child of ``node``, continuing down
        recursively via :class:`_CascadeArrival` events."""
        if self._membership is not None and not self.tree.contains(node):
            # The copy was in flight when churn pruned this leaf; a
            # pruned leaf has no subtree to continue into.
            return
        for child, link in self.tree.children_with_links(node):
            self._transmit(
                link, child, packet, journey,
                _CascadeArrival(self, child, packet, journey),
            )

    def multicast_subtree(
        self, src: int, subtree_root: int, packet: Packet
    ) -> None:
        """Carry ``packet`` from ``src`` to ``subtree_root`` along the
        tree path, then copy it down the whole subtree.

        Both legs use tree links (this is multicast infrastructure, not
        unicast routing).  Members along the way — including
        ``subtree_root`` and the nodes on the access leg — receive the
        packet; the originator does not self-deliver.
        """
        if self._membership is not None and self._membership.suppress_send(
            src, packet, self.events.now
        ):
            # Checked before containment: a departed-and-pruned leaf is
            # no longer a tree member, and its last armed sends must be
            # suppressed, not raise.
            return
        if not self.tree.contains(src) or not self.tree.contains(subtree_root):
            raise ValueError("multicast endpoints must be tree members")
        if self._faults is not None and self._faults.suppress_send(
            src, packet, self.events.now
        ):
            return
        journey = self._journey(src, packet)
        if self._array_path():
            self._fast_subtree(src, subtree_root, packet, journey)
            return
        if src == subtree_root:
            self._cascade_down(src, packet, journey)
            return
        _LegTransit(self, self._tree_leg(src, subtree_root), packet, journey)()

    def _flood_spread(
        self, node: int, came_from: int, packet: Packet, journey
    ) -> None:
        if self._membership is not None and not self.tree.contains(node):
            # In-flight flood copy arriving at a since-pruned leaf: it
            # has no tree links left to spread over.
            return
        for neighbor, link in self.tree.flood_neighbors(node):
            if neighbor == came_from:
                continue
            self._transmit(
                link, neighbor, packet, journey,
                _FloodArrival(self, neighbor, node, packet, journey),
            )

    def flood_tree(self, src: int, packet: Packet) -> None:
        """Any-source group multicast: spread over every tree link
        outward from ``src``, delivering to every member reached."""
        if self._membership is not None and self._membership.suppress_send(
            src, packet, self.events.now
        ):
            # Before containment, same as multicast_subtree: a pruned
            # leaf's stragglers suppress, they do not raise.
            return
        if not self.tree.contains(src):
            raise ValueError(f"flood origin {src} is not a tree member")
        if self._faults is not None and self._faults.suppress_send(
            src, packet, self.events.now
        ):
            return
        journey = self._journey(src, packet)
        if self._array_path():
            self._fast_flood(src, packet, journey)
            return
        self._flood_spread(src, -1, packet, journey)
