"""The chaos sweep: perturbation intensity versus hardened recovery.

The paper's figures compare the protocols inside the regime its analysis
assumes — independent per-link loss, peers that always answer, a fixed
receiver group.  The chaos sweep measures what the *hardened* protocol
configurations do when those assumptions are broken on purpose, along
one of three axes:

* ``faults`` — a :func:`~repro.sim.faults.random_fault_schedule` per
  intensity (peer crashes, burst loss, link downs, recovery
  black-holing);
* ``churn`` — a :func:`~repro.sim.membership.random_membership_schedule`
  per intensity (members leave and rejoin mid-session);
* ``both`` — both schedules at the same intensity in one run.

What comes out per (intensity, seed, protocol) cell:

* the usual recovery metrics (losses detected/recovered, mean latency,
  recovery hops) — latency *degrades* with intensity, it should not cliff;
* the **abandonment rate** — the fraction of detected losses the bounded
  retry policy explicitly gave up on.  Abandonment is the hardened
  protocols' pressure valve: under the default (paper) policy the same
  faults would hang recoveries forever;
* the injector's per-kind fault counts and the membership director's
  composition counters (leaves, joins, drops at departed members), so a
  point's severity is auditable;
* for the planning protocol (RP), the **incremental plan repair** cost
  — how many clients each peer death or composition change re-planned
  (``repair_fraction``; sublinear repair keeps it far below 1.0) — and
  the **quality gap**, the worst relative expected-delay difference
  between the repaired plans and planning the final group (dead and
  departed peers excluded) from scratch.

Four gates must hold on every axis (:attr:`ChaosSweepResult.gates_pass`):

1. zero liveness violations — a perturbed run may abandon, it must never
   silently hang a detected loss;
2. zero ``member.tx_drop`` — agent teardown cancels every send a
   departing member had armed, so none may reach the membership
   boundary;
3. a repair quality gap within :data:`QUALITY_GAP_LIMIT`;
4. zero invariant-watchdog violations (:mod:`repro.obs.health`:
   recovery conservation, ledger accounting, quiescence at drain,
   ``membership.tx_drop``), which the runner evaluates on every run.

Intensity 0 draws the null schedules, so the leftmost column doubles as
the unperturbed baseline of the same build (byte-identical to a run
without the fault and membership subsystems).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.experiments.runner import (
    BuiltScenario,
    build_scenario,
    ensure_unique_factories,
    run_protocol_detailed,
)
from repro.protocols.base import ProtocolFactory
from repro.protocols.naive import (
    NaiveConfig,
    NearestPeerProtocolFactory,
    RandomListProtocolFactory,
)
from repro.protocols.policy import RecoveryPolicy
from repro.protocols.rma import RMAConfig, RMAProtocolFactory
from repro.protocols.rp import RPConfig, RPProtocolFactory
from repro.protocols.source import SourceConfig, SourceProtocolFactory
from repro.protocols.srm import SRMConfig, SRMProtocolFactory
from repro.sim.faults import FaultSchedule, LivenessError, random_fault_schedule
from repro.sim.membership import MembershipSchedule, random_membership_schedule
from repro.sim.rng import RngStreams

#: What each axis perturbs: (inject faults, churn membership).
AXES: dict[str, tuple[bool, bool]] = {
    "faults": (True, False),
    "churn": (False, True),
    "both": (True, True),
}

#: Default intensity grid per axis: unperturbed baseline, moderate, severe.
DEFAULT_INTENSITIES: dict[str, tuple[float, ...]] = {
    "faults": (0.0, 0.3, 0.6),
    "churn": (0.0, 0.4, 0.8),
    "both": (0.0, 0.3, 0.6),
}

#: The acceptance bound on the incremental-repair quality gap.
QUALITY_GAP_LIMIT = 0.01

#: SRM has no peer-retry policy (its requests flood); its bound is the
#: request-round cap.  8 doubling rounds span a 256x timeout range —
#: far beyond any transient window the default schedules produce.
SRM_MAX_REQUEST_ROUNDS = 8


def hardened_factory(name: str) -> ProtocolFactory:
    """One protocol (a ``repro`` CLI name) in its hardened,
    guaranteed-termination configuration.

    RP, RMA, SOURCE and the naive strategies share
    :meth:`RecoveryPolicy.hardened` (bounded peer retries with backoff,
    failure detector, bounded source fallback); SRM's equivalent knob is
    the request-round cap.
    """
    if name == "srm":
        return SRMProtocolFactory(
            SRMConfig(max_request_rounds=SRM_MAX_REQUEST_ROUNDS)
        )
    policy = RecoveryPolicy.hardened()
    return {
        "rp": lambda: RPProtocolFactory(RPConfig(recovery_policy=policy)),
        "rma": lambda: RMAProtocolFactory(RMAConfig(recovery_policy=policy)),
        "source": lambda: SourceProtocolFactory(
            SourceConfig(recovery_policy=policy)
        ),
        "random": lambda: RandomListProtocolFactory(
            NaiveConfig(recovery_policy=policy)
        ),
        "nearest": lambda: NearestPeerProtocolFactory(
            NaiveConfig(recovery_policy=policy)
        ),
    }[name]()


def hardened_factories() -> list[ProtocolFactory]:
    """The five swept protocols in their hardened configuration."""
    return [
        hardened_factory(name)
        for name in ("rp", "srm", "rma", "source", "nearest")
    ]


def chaos_horizon(config: ScenarioConfig) -> float:
    """The placement horizon for fault windows and membership events:
    the nominal stream duration plus a session-flush margin.  Windows end
    and every scheduled rejoin lands within it, well before the drain —
    finite perturbations are what keep chaos runs terminating."""
    return (
        config.num_packets * config.data_interval + 2.0 * config.session_interval
    )


@dataclass(frozen=True)
class ChaosRunRecord:
    """One (protocol, seed, intensity) cell of the sweep."""

    protocol: str
    seed: int
    intensity: float
    losses_detected: int
    losses_recovered: int
    losses_abandoned: int
    avg_latency: float | None
    #: Detections that neither recovered nor abandoned (must be 0).
    liveness_violations: int
    sim_time: float
    recovery_hops: int = 0
    #: Per-kind injection totals from the run's FaultInjector; ``None``
    #: when the axis injects no faults.
    fault_counts: dict[str, int] | None = None
    #: Per-kind composition totals from the run's MembershipDirector
    #: (member.leave / member.join / member.rx_drop / member.tx_drop /
    #: plan.repair); ``None`` when the axis does not churn.
    member_counts: dict[str, int] | None = None
    #: Incremental plan-repair accounting (zeros for non-planning
    #: protocols or cells where no peer died or churned).
    repair_events: int = 0
    repair_replans: int = 0
    #: Mean fraction of the group re-planned per death or churn event —
    #: the sublinearity headline (1.0 would be plan_all-per-event).
    repair_fraction: float = 0.0
    #: Wall-clock spent repairing — live diagnostic only, excluded from
    #: the saved artifact (which must be byte-deterministic; timing
    #: claims live in ``BENCH_churn_repair.json``).
    repair_seconds: float = 0.0
    #: Worst relative expected-delay gap between the repaired plans and
    #: a from-scratch plan of the final group (``None`` when the
    #: protocol does not plan or no peer died or churned).
    repair_quality_gap: float | None = None
    #: Invariant-watchdog failures from the run's health report.
    health_violations: int = 0

    @property
    def total_faults(self) -> int:
        return sum((self.fault_counts or {}).values())

    def _member(self, kind: str) -> int:
        return (self.member_counts or {}).get(kind, 0)

    @property
    def leaves(self) -> int:
        return self._member("member.leave")

    @property
    def joins(self) -> int:
        return self._member("member.join")

    @property
    def tx_drops(self) -> int:
        return self._member("member.tx_drop")


@dataclass
class ChaosPoint:
    """One intensity of the sweep: every protocol x seed record."""

    intensity: float
    records: list[ChaosRunRecord] = field(default_factory=list)

    def _of(self, protocol: str | None) -> list[ChaosRunRecord]:
        if protocol is None:
            return self.records
        return [r for r in self.records if r.protocol == protocol]

    def mean_latency(self, protocol: str) -> float | None:
        values = [
            r.avg_latency for r in self._of(protocol) if r.avg_latency is not None
        ]
        return sum(values) / len(values) if values else None

    def abandonment_rate(self, protocol: str) -> float:
        """Abandoned / detected across the protocol's seeds (0.0 when
        nothing was detected)."""
        records = self._of(protocol)
        detected = sum(r.losses_detected for r in records)
        if detected == 0:
            return 0.0
        return sum(r.losses_abandoned for r in records) / detected

    def violations(self, protocol: str | None = None) -> int:
        return sum(r.liveness_violations for r in self._of(protocol))

    def tx_drops(self, protocol: str | None = None) -> int:
        return sum(r.tx_drops for r in self._of(protocol))

    def health_violations(self, protocol: str | None = None) -> int:
        return sum(r.health_violations for r in self._of(protocol))


@dataclass
class ChaosSweepResult:
    """A completed chaos sweep, JSON round-trippable."""

    seeds: list[int]
    num_routers: int
    num_packets: int
    loss_prob: float
    protocols: list[str]
    points: list[ChaosPoint]
    axis: str = "faults"

    @property
    def intensities(self) -> list[float]:
        return [point.intensity for point in self.points]

    @property
    def total_violations(self) -> int:
        """Gate 1: zero everywhere (recoveries terminate)."""
        return sum(point.violations() for point in self.points)

    @property
    def total_tx_drops(self) -> int:
        """Gate 2: zero everywhere (no send ever reaches the membership
        boundary — teardown beat it to every armed timer)."""
        return sum(point.tx_drops() for point in self.points)

    @property
    def max_quality_gap(self) -> float:
        """Gate 3: worst repaired-vs-scratch plan gap."""
        return max(
            (
                r.repair_quality_gap
                for p in self.points
                for r in p.records
                if r.repair_quality_gap is not None
            ),
            default=0.0,
        )

    @property
    def total_health_violations(self) -> int:
        """Gate 4: zero everywhere (the invariant watchdogs stay silent)."""
        return sum(point.health_violations() for point in self.points)

    @property
    def gates_pass(self) -> bool:
        return (
            self.total_violations == 0
            and self.total_tx_drops == 0
            and self.max_quality_gap <= QUALITY_GAP_LIMIT
            and self.total_health_violations == 0
        )

    def render(self) -> str:
        rows = []
        for point in self.points:
            for protocol in self.protocols:
                records = point._of(protocol)
                latency = point.mean_latency(protocol)
                fractions = [
                    r.repair_fraction for r in records if r.repair_events
                ]
                gaps = [
                    r.repair_quality_gap
                    for r in records
                    if r.repair_quality_gap is not None
                ]
                rows.append([
                    f"{point.intensity:g}",
                    protocol,
                    str(sum(r.total_faults for r in records)),
                    str(sum(r.leaves for r in records)),
                    str(sum(r.joins for r in records)),
                    str(sum(r.losses_detected for r in records)),
                    str(sum(r.losses_recovered for r in records)),
                    str(sum(r.losses_abandoned for r in records)),
                    f"{100.0 * point.abandonment_rate(protocol):.1f}",
                    "n/a" if latency is None else f"{latency:.2f}",
                    str(sum(r.repair_replans for r in records)),
                    (
                        f"{100.0 * sum(fractions) / len(fractions):.1f}"
                        if fractions else "n/a"
                    ),
                    f"{100.0 * max(gaps):.2f}" if gaps else "n/a",
                    str(point.violations(protocol) + point.tx_drops(protocol)),
                ])
        table = format_table(
            [
                "intensity", "protocol", "faults", "leaves", "joins",
                "detected", "recovered", "abandoned", "abandon %",
                "latency ms", "replans", "replan %", "gap %", "violations",
            ],
            rows,
        )
        header = (
            f"Chaos sweep (axis={self.axis}): perturbation intensity vs"
            " hardened recovery\n"
            f"seeds={self.seeds} routers={self.num_routers}"
            f" packets={self.num_packets} loss={self.loss_prob:g}\n"
        )
        footer = (
            "\n\nliveness violations: "
            f"{self.total_violations}"
            f"  member tx drops: {self.total_tx_drops}"
            f"  worst repair gap: {100.0 * self.max_quality_gap:.2f}%"
            f"  health violations: {self.total_health_violations}"
            + ("" if self.gates_pass else "  <-- INVARIANT BROKEN")
        )
        return header + "\n" + table + footer

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        for point in data["points"]:
            for record in point["records"]:
                # Wall clock: dropping it keeps the artifact
                # byte-deterministic across identical runs.
                del record["repair_seconds"]
        return {"kind": "chaos-sweep", **data}

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosSweepResult":
        if data.get("kind") != "chaos-sweep":
            raise ValueError(
                f"not a chaos-sweep document (kind={data.get('kind')!r})"
            )
        points = [
            ChaosPoint(
                intensity=float(raw["intensity"]),
                records=[ChaosRunRecord(**record) for record in raw["records"]],
            )
            for raw in data["points"]
        ]
        return cls(
            seeds=[int(s) for s in data["seeds"]],
            num_routers=int(data["num_routers"]),
            num_packets=int(data["num_packets"]),
            loss_prob=float(data["loss_prob"]),
            protocols=list(data["protocols"]),
            points=points,
            # Sweeps saved before the churn axis existed were fault sweeps.
            axis=data.get("axis", "faults"),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ChaosSweepResult":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _run_cell(
    built: BuiltScenario,
    factory: ProtocolFactory,
    faults: FaultSchedule | None,
    membership: MembershipSchedule | None,
    seed: int,
    intensity: float,
) -> ChaosRunRecord:
    cell = {"protocol": factory.name, "seed": seed, "intensity": intensity}
    try:
        artifacts = run_protocol_detailed(
            built, factory, faults=faults, membership=membership
        )
    except LivenessError as err:
        # A protocol that hangs a recovery is the finding the sweep
        # exists to surface: record the violation, keep the sweep alive.
        # The run died before its watchdogs ran, so the liveness
        # violation carries the signal.
        report = err.report
        return ChaosRunRecord(
            **cell,
            losses_detected=report.recovered + report.abandoned + report.violations,
            losses_recovered=report.recovered,
            losses_abandoned=report.abandoned,
            avg_latency=None,
            liveness_violations=report.violations,
            sim_time=0.0,
            fault_counts={} if faults is not None else None,
            member_counts={} if membership is not None else None,
        )
    summary = artifacts.summary
    repair: dict = {}
    repairer = getattr(factory, "last_repairer", None)
    if repairer is not None:
        stats = repairer.stats()
        repair = {
            "repair_events": stats["events"],
            "repair_replans": stats["clients_replanned"],
            "repair_fraction": stats["replan_fraction"],
            "repair_seconds": stats["seconds"],
        }
        if stats["events"]:
            # The quality audit: re-plan the *final* group from scratch
            # and compare every repaired plan against it.
            repair["repair_quality_gap"] = repairer.verify_against_scratch(
                factory.excluded_peers()
            )

    def counts(live, scheduled) -> dict[str, int] | None:
        if scheduled is None:
            return None
        return dict(live.counts) if live is not None else {}

    return ChaosRunRecord(
        **cell,
        losses_detected=summary.losses_detected,
        losses_recovered=summary.losses_recovered,
        losses_abandoned=artifacts.log.num_abandoned,
        avg_latency=summary.avg_latency,
        liveness_violations=artifacts.liveness.violations,
        sim_time=summary.sim_time,
        recovery_hops=summary.recovery_hops,
        fault_counts=counts(artifacts.faults, faults),
        member_counts=counts(artifacts.membership, membership),
        health_violations=len(artifacts.health.violations),
        **repair,
    )


def run_chaos_sweep(
    seeds: Sequence[int] = (1,),
    intensities: Sequence[float] | None = None,
    num_routers: int = 60,
    num_packets: int = 20,
    loss_prob: float = 0.05,
    factories: list[ProtocolFactory] | None = None,
    progress: Callable[[str], None] | None = None,
    axis: str = "faults",
) -> ChaosSweepResult:
    """Sweep perturbation intensity along ``axis`` against the hardened
    protocol suite; ``intensities`` defaults to the axis's
    :data:`DEFAULT_INTENSITIES` grid.

    Per seed the topology is built once and shared by every (intensity,
    protocol) cell — the comparison discipline of the figure sweeps;
    churned runs clone the multicast tree so the shared build stays
    pristine.  Per (seed, intensity) each schedule is sampled once from
    its own RNG lane (``fault-schedule:<intensity>``,
    ``membership-schedule:<intensity>``), so all protocols face identical
    crash, link-down and join/leave events; the injector's stochastic
    draws come from the per-protocol ``faults:<protocol>`` lane.  Chaos
    runs always use the realistic loss mode (``lossless_recovery=False``):
    exempting recovery traffic would hide exactly the faults being
    injected, and members leave mid-recovery precisely because
    recoveries take time.

    The source is never crashed and never churns: a sourceless group
    makes every fallback abandon, which measures the schedule rather
    than the protocol.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}; expected one of {list(AXES)}")
    if intensities is None:
        intensities = DEFAULT_INTENSITIES[axis]
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if not intensities:
        raise ValueError("intensities must be non-empty")
    factories = factories if factories is not None else hardened_factories()
    ensure_unique_factories(factories)
    inject_faults, churn = AXES[axis]
    points = [ChaosPoint(intensity=float(i)) for i in intensities]
    for seed in seeds:
        config = ScenarioConfig(
            seed=seed,
            num_routers=num_routers,
            loss_prob=loss_prob,
            num_packets=num_packets,
            lossless_recovery=False,
        )
        built = build_scenario(config)
        horizon = chaos_horizon(config)
        candidates = [
            client for client in built.tree.clients if client != built.tree.root
        ]
        for point in points:
            lane = f"{point.intensity:g}"
            faults = membership = None
            if inject_faults:
                faults = random_fault_schedule(
                    point.intensity,
                    RngStreams(seed).get(f"fault-schedule:{lane}"),
                    candidates,
                    built.topology.links,
                    horizon,
                )
            if churn:
                membership = random_membership_schedule(
                    point.intensity,
                    RngStreams(seed).get(f"membership-schedule:{lane}"),
                    candidates,
                    horizon,
                )
            for factory in factories:
                if progress is not None:
                    progress(
                        f"chaos {axis} seed={seed} intensity={lane}"
                        f" {factory.name}"
                    )
                point.records.append(_run_cell(
                    built, factory, faults, membership, seed, point.intensity
                ))
    return ChaosSweepResult(
        seeds=[int(s) for s in seeds],
        num_routers=num_routers,
        num_packets=num_packets,
        loss_prob=loss_prob,
        protocols=[factory.name for factory in factories],
        points=points,
        axis=axis,
    )
