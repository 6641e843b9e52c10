"""Source-based recovery baseline.

The paper's first taxonomy category (section 1): "the source exclusively
retransmits all the lost packets to the requesting receivers.  This
mechanism guarantees that one recovery attempt is enough for each
request" — at the cost of concentrating all recovery load and latency at
the source.  Not part of the paper's figure comparison (its simulations
compare RP/SRM/RMA), but a useful reference point the examples and
extension benches use.

In the strategy graph this is the direct ``u → S`` edge: the empty
prioritized list ``L_u = ()``, whose delay is ``d(S)`` (eq. 2 with
``k = 0``).  SOURCE therefore runs RP's runtime on that list — every
loss goes straight to the source, which unicasts the repair to the
requester only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.timeouts import ProportionalTimeout, TimeoutPolicy
from repro.metrics.collectors import RecoveryLog
from repro.obs.instrumentation import Instrumentation
from repro.protocols.base import CompletionTracker, ProtocolFactory, SourceAgentBase
from repro.protocols.naive import _strategy_from_peers
from repro.protocols.policy import DEFAULT_RECOVERY_POLICY, RecoveryPolicy
from repro.protocols.rp import RPClientAgent, RPSourceAgent
from repro.sim.network import SimNetwork
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class SourceConfig:
    timeout_policy: TimeoutPolicy | None = None
    recovery_policy: RecoveryPolicy = DEFAULT_RECOVERY_POLICY


class SourceProtocolFactory(ProtocolFactory):
    """RP's agents on the empty list, with a unicast-repairing source."""

    name = "SOURCE"

    def __init__(self, config: SourceConfig | None = None):
        self.config = config or SourceConfig()

    def install(
        self,
        network: SimNetwork,
        log: RecoveryLog,
        tracker: CompletionTracker,
        streams: RngStreams,
        num_packets: int,
        instrumentation: Instrumentation | None = None,
    ) -> SourceAgentBase:
        policy = self.config.timeout_policy or ProportionalTimeout()
        for client in network.tree.clients:
            agent = RPClientAgent(
                client, network, log, tracker, num_packets,
                _strategy_from_peers(network, client, [], policy),
                instrumentation=instrumentation,
                protocol="source",
                policy=self.config.recovery_policy,
            )
            network.attach_agent(client, agent)
        source = RPSourceAgent(network.tree.root, network, False)
        network.attach_agent(source.node, source)
        return source
