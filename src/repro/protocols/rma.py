"""RMA baseline — Reliable Multicast Architecture (Levine & G-L-A, 1997).

As the paper describes it (section 1): "each receiver that lost some
packet attempts to achieve the shortest delay from the nearest upstream
(from this receiver toward the source) receiver that has received the
packet.  Once the request approaches an upstream receiver that has the
packet, this receiver will multicast the repair to the subtree that
contains all the receivers that have been requested."

Our runtime implements that with two mechanisms:

* **One-by-one upstream search.**  The requester unicasts its REQUEST to
  the nearest upstream receiver — the peer whose attachment point on the
  requester's source path is deepest (largest ``DS``), ties broken
  toward the lowest RTT — and escalates to the next one on timeout,
  ending at the source (which always repairs, retried forever).  This is
  the "one-by-one searching is just best-effort, not strategic" the
  paper criticizes: the nearest upstream peers are precisely the ones
  whose losses correlate most with the requester's, so timeouts are
  burned on peers that almost surely miss the packet too — while RP's
  planner jumps straight to the peer minimizing expected delay.

* **Request subsumption.**  A visited receiver that also lacks the
  packet does not bounce the request; it *subsumes* it — remembering the
  first common router with the requester and making sure its own
  upstream search is running — and, when the packet finally reaches it
  (its own repair, or late data), multicasts the repair down the subtree
  rooted at the shallowest recorded meeting router, which by
  construction contains every receiver that requested through it.  This
  is how RMA keeps a near-root loss from degenerating into hundreds of
  independent end-to-end searches.

Repairs are subtree multicasts rooted at the first common router of
repairer and requester; the source repairs into the requester's
top-level subgroup (the subtree containing everything that was asked).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.timeouts import ProportionalTimeout, TimeoutPolicy
from repro.metrics.collectors import RecoveryLog
from repro.obs.instrumentation import SOURCE_RANK, Instrumentation
from repro.protocols.base import (
    ClientAgent,
    CompletionTracker,
    PendingRecovery,
    ProtocolFactory,
    RepairDeduper,
    SourceAgentBase,
)
from repro.protocols.policy import (
    DEFAULT_RECOVERY_POLICY,
    PeerFailureDetector,
    RecoveryPolicy,
)
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class RMAConfig:
    """RMA runtime knobs.

    ``timeout_policy`` guards each one-by-one attempt (scaled to the
    attempted peer's RTT).  ``source_deadline_factor`` bounds the whole
    peer search: once ``factor × source RTT`` has elapsed since
    detection, the requester stops escalating through peers and asks the
    source directly — RMA's terminal fallback.  Without the bound, a
    near-root loss (where *every* upstream peer is missing the packet
    too) degenerates into hundreds of sequential timeouts.
    """

    timeout_policy: TimeoutPolicy | None = None
    source_deadline_factor: float = 2.0
    recovery_policy: RecoveryPolicy = DEFAULT_RECOVERY_POLICY

    def __post_init__(self) -> None:
        if self.source_deadline_factor <= 0:
            raise ValueError("source_deadline_factor must be positive")


def upstream_receiver_order(
    network: SimNetwork, client: int
) -> list[tuple[int, float]]:
    """The RMA search order for ``client``: ``(peer, rtt)`` pairs.

    Every other client whose first common router with ``client`` lies
    strictly above it, sorted nearest-upstream-first: descending ``DS``,
    then ascending RTT, then id.  Built from arrays like the planner's
    candidate list: one LCA query, one distance row, one lexsort.
    """
    tree = network.tree
    peers = np.asarray(tree.clients, dtype=np.int64)
    ds = tree.depth_vector()[tree.lca_vector(client, peers)]
    # Peers at or below the client (itself included) lost whatever it lost.
    upstream = ds < tree.depth(client)
    peers, ds = peers[upstream], ds[upstream]
    rtt = 2.0 * np.asarray(network.routing.distances_from(client))[peers]
    # lexsort's primary key is its LAST array: (-ds, rtt, peer).
    order = np.lexsort((peers, rtt, -ds))
    return list(zip(peers[order].tolist(), rtt[order].tolist()))


class _PendingSearch(PendingRecovery):
    __slots__ = ("index", "deadline", "source_attempts")

    def __init__(self, seq: int, deadline: float, detected_at: float):
        super().__init__(seq, detected_at)
        self.index = 0
        self.deadline = deadline
        # Requests sent to the source so far: drives the hardened
        # policy's backoff scale and bounded-fallback abandonment.
        self.source_attempts = 0


class RMAClientAgent(ClientAgent):
    protocol = "rma"
    timer_label = "rma.search"

    def __init__(
        self,
        node: int,
        network: SimNetwork,
        log: RecoveryLog,
        tracker: CompletionTracker,
        num_packets: int,
        config: RMAConfig,
        instrumentation: Instrumentation | None = None,
        detector: PeerFailureDetector | None = None,
    ):
        super().__init__(
            node, network, log, tracker, num_packets,
            instrumentation=instrumentation,
        )
        self.timeout_policy = config.timeout_policy or ProportionalTimeout()
        self.policy = config.recovery_policy
        self.detector = detector
        self.search_order = upstream_receiver_order(network, node)
        self._source_rtt = network.routing.rtt(node, network.tree.root)
        self._search_budget = config.source_deadline_factor * max(
            self._source_rtt, 1.0
        )
        # seq -> meeting routers of requests we subsumed while also
        # missing the packet; flushed when the packet reaches us.
        self._subsumed: dict[int, set[int]] = {}
        self._deduper = RepairDeduper(network.tree)

    # -- requester side ----------------------------------------------------

    def on_loss_detected(self, seq: int) -> None:
        now = self.network.events.now
        pending = _PendingSearch(seq, now + self._search_budget, now)
        self._pending[seq] = pending
        self._send_next(pending)

    def _send_next(self, pending: _PendingSearch) -> None:
        past_deadline = self.network.events.now >= pending.deadline
        if self.detector is not None:
            # Skip peers the failure detector already declared dead —
            # their timeout would be burned on certain silence.
            while (
                pending.index < len(self.search_order)
                and self.detector.is_dead(self.search_order[pending.index][0])
            ):
                pending.index += 1
        if pending.index < len(self.search_order) and not past_deadline:
            peer, rtt = self.search_order[pending.index]
            self._send_request(
                pending, pending.index, peer, self.timeout_policy.timeout(rtt)
            )
            return
        limit = self.policy.max_source_attempts
        if limit > 0 and pending.source_attempts >= limit:
            self._abandon_recovery(pending)
            return
        pending.source_attempts += 1
        self._send_request(
            pending, SOURCE_RANK, self.network.tree.root,
            self.timeout_policy.timeout(self._source_rtt),
            pending.source_attempts - 1,
        )

    def _on_attempt_timeout(self, pending: _PendingSearch) -> None:
        if pending.rank != SOURCE_RANK and self.detector is not None:
            died = self.detector.record_timeout(pending.peer)
            if died:
                self.instr.fault(
                    self.network.events.now, "peer.dead",
                    node=self.node, peer=pending.peer,
                )
        if pending.index < len(self.search_order):
            pending.index += 1  # escalate; the deadline may cut this short
        self._send_next(pending)

    def _teardown_recoveries(self) -> None:
        """Departure teardown: also forget subsumed requests (the leaver
        no longer owes anyone a repair)."""
        super()._teardown_recoveries()
        self._subsumed.clear()

    # -- visited-receiver side ---------------------------------------------------

    def on_protocol_packet(self, packet: Packet) -> None:
        if packet.kind is not PacketKind.REQUEST:
            return
        seq = packet.seq
        if not self.network.tree.contains(packet.origin):
            # The requester left (and was pruned) while its request was
            # in flight: no meeting router exists any more.  Answer
            # directly if we can — the delivery is membership-dropped at
            # the leaver — and never subsume for a ghost.
            if self.has(seq):
                self.network.send_unicast(
                    self.node, packet.origin,
                    Packet(
                        PacketKind.REPAIR, seq, origin=self.node,
                        trace_id=packet.trace_id, span_id=packet.span_id,
                    ),
                )
            return
        meeting = self.network.tree.first_common_router(self.node, packet.origin)
        if self.has(seq):
            repair = Packet(
                PacketKind.REPAIR, seq, origin=self.node,
                trace_id=packet.trace_id, span_id=packet.span_id,
            )
            if self._deduper.should_repair(seq, meeting, self.network.events.now):
                self.network.multicast_subtree(self.node, meeting, repair)
            else:
                # Subtree repair already in flight; cover this requester
                # directly in case its copy was lost.
                self.network.send_unicast(self.node, packet.origin, repair)
            return
        # Subsume: remember whom to cover, make sure our own search runs.
        self._subsumed.setdefault(seq, set()).add(meeting)
        self.force_detect(seq)  # no-op if our search is already running

    def on_new_packet(self, seq: int) -> None:
        meetings = self._subsumed.pop(seq, None)
        if not meetings:
            return
        # The shallowest recorded meeting router's subtree contains all
        # the others (they lie on our own source path).
        tree = self.network.tree
        root = min(meetings, key=tree.depth)
        repair = Packet(PacketKind.REPAIR, seq, origin=self.node)
        self.network.multicast_subtree(self.node, root, repair)


class RMASourceAgent(SourceAgentBase):
    def __init__(self, node: int, network: SimNetwork):
        super().__init__(node, network)
        self._deduper = RepairDeduper(network.tree)

    def on_request(self, packet: Packet) -> None:
        if not self.has(packet.seq):
            return  # not sent yet; the requester retries
        repair = Packet(
            PacketKind.REPAIR, packet.seq, origin=self.node,
            trace_id=packet.trace_id, span_id=packet.span_id,
        )
        if not self.network.tree.contains(packet.origin):
            # Pruned-leaver straggler: no subgroup to repair into.
            self.network.send_unicast(self.node, packet.origin, repair)
            return
        subgroup = self.network.tree.top_level_subgroup(packet.origin)
        if self._deduper.should_repair(
            packet.seq, subgroup, self.network.events.now
        ):
            self.network.multicast_subtree(self.node, subgroup, repair)
        else:
            self.network.send_unicast(self.node, packet.origin, repair)


class RMAProtocolFactory(ProtocolFactory):
    name = "RMA"

    def __init__(self, config: RMAConfig | None = None):
        self.config = config or RMAConfig()

    def install(
        self,
        network: SimNetwork,
        log: RecoveryLog,
        tracker: CompletionTracker,
        streams: RngStreams,
        num_packets: int,
        instrumentation: Instrumentation | None = None,
    ) -> SourceAgentBase:
        recovery_policy = self.config.recovery_policy
        detector = (
            PeerFailureDetector(recovery_policy.failure_threshold)
            if recovery_policy.failure_threshold > 0
            else None
        )
        for client in network.tree.clients:
            agent = RMAClientAgent(
                client, network, log, tracker, num_packets, self.config,
                instrumentation=instrumentation,
                detector=detector,
            )
            network.attach_agent(client, agent)
        source = RMASourceAgent(network.tree.root, network)
        network.attach_agent(source.node, source)
        return source
