"""Benchmark workloads and the campaign cell that runs one of them.

A **cell** is what a user of the simulator pays for per seed of a sweep:
one seeded :class:`~repro.experiments.config.ScenarioConfig` is built
with :func:`~repro.experiments.runner.build_scenario` once, then every
protocol of the workload runs on it, in a fixed order, through
:func:`~repro.experiments.runner.run_protocol_detailed`.  One process
runs one session at a time (a closed loop: no worker pool, no threads).

Each workload names a fixed number of scenarios.  Their seeds are
derived from the benchmark's ``--seed`` (:meth:`Workload.scenario_seeds`),
so one benchmark seed always produces the same inputs, and averaging
many small independent scenarios per run keeps the seed-to-seed spread
of the timings small.

A shared host's speed drifts with its neighbours' load (by up to 1.7x,
over seconds to minutes, on a 2-core shared VM).  Every timed
component (the build, each session) is therefore bracketed by a short
fixed calibration loop (:func:`calibrate`), and its wall time is scaled
to a reference host speed: ``time * REFERENCE_CALIBRATION_S / calibration``, with the
calibration taken as the mean of the loops just before and after it.
All times this module reports are such reference-speed seconds; the
raw wall times stay available as ``time / scale``.

Every session is checked (:func:`check_session`) and its simulated
statistics are reduced to a digest (:func:`session_stats`): they are
deterministic for a seed, so they are the correctness record, never a
speed metric.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core import plan_cache
from repro.experiments.chaos import chaos_horizon, hardened_factories
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import (
    BuiltScenario,
    RunArtifacts,
    build_scenario,
    run_protocol_detailed,
)
from repro.obs.health import evaluate_health
from repro.protocols.base import ProtocolFactory
from repro.protocols.rma import RMAProtocolFactory
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.source import SourceProtocolFactory
from repro.protocols.srm import SRMProtocolFactory
from repro.sim.faults import FaultSchedule, random_fault_schedule
from repro.sim.membership import MembershipSchedule, random_membership_schedule
from repro.sim.packet import PacketKind
from repro.sim.rng import RngStreams

PROTOCOLS: tuple[str, ...] = ("RP", "SRM", "RMA", "SOURCE")

#: The calibration loop's duration at the reference host speed (about
#: a 2-core shared VM's speed when its neighbours are idle).
REFERENCE_CALIBRATION_S = 0.02

_PAPER_FACTORIES: dict[str, Callable[[], ProtocolFactory]] = {
    "RP": RPProtocolFactory,
    "SRM": SRMProtocolFactory,
    "RMA": RMAProtocolFactory,
    "SOURCE": SourceProtocolFactory,
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario shape plus a protocol order."""

    name: str
    why: str
    num_routers: int
    loss_prob: float
    num_packets: int
    lossless_recovery: bool
    protocols: tuple[str, ...]
    #: Independent scenarios per pass (seeds from :meth:`scenario_seeds`).
    scenarios: int
    #: Whether every session must run with the array dissemination fast
    #: path armed (the runner arms it unless faults or churn disarm it).
    fast_dissem: bool
    #: Fault and membership-churn intensity, both sampled from the RNG
    #: lanes the chaos and churn sweeps use; 0.0 means a clean cell.
    perturb_intensity: float = 0.0

    @property
    def perturbed(self) -> bool:
        return self.perturb_intensity > 0.0

    def scenario_seeds(self, seed: int) -> list[int]:
        return [1000 * seed + i for i in range(self.scenarios)]

    def config(self, scenario_seed: int) -> ScenarioConfig:
        return ScenarioConfig(
            seed=scenario_seed,
            num_routers=self.num_routers,
            loss_prob=self.loss_prob,
            num_packets=self.num_packets,
            lossless_recovery=self.lossless_recovery,
        )

    def factories(self) -> list[ProtocolFactory]:
        """Fresh factories in the workload's fixed order (factories keep
        per-run state such as the last plan, so never reuse them)."""
        if self.perturbed:
            by_name = {f.name: f for f in hardened_factories()}
            return [by_name[name] for name in self.protocols]
        return [_PAPER_FACTORIES[name]() for name in self.protocols]

    def describe(self) -> dict:
        return {
            "num_routers": self.num_routers,
            "loss_prob": self.loss_prob,
            "num_packets": self.num_packets,
            "lossless_recovery": self.lossless_recovery,
            "protocols": list(self.protocols),
            "scenarios_per_pass": self.scenarios,
            "scenario_seeds": "1000*seed + i",
            "fast_dissem_expected": self.fast_dissem,
            "fault_and_churn_intensity": self.perturb_intensity,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lossless_ref",
            why=(
                "Paper mode (lossless recovery): all traffic on the array "
                "fast path; SRM the largest self time. 600 routers, p=0.05, 6 "
                "packets; RP,SRM,RMA,SOURCE; 15 scenarios, seeds 1000*seed+i"
            ),
            num_routers=600,
            loss_prob=0.05,
            num_packets=6,
            lossless_recovery=True,
            protocols=PROTOCOLS,
            scenarios=15,
            fast_dissem=True,
        ),
        Workload(
            name="lossy_ref",
            why=(
                "Default lossy recovery: scalar hop-by-hop transit with loss "
                "draws, 2-3x the events, little fast path. 600 routers, "
                "p=0.05, 4 packets; RP,SRM,RMA,SOURCE; 15 scenarios, seeds "
                "1000*seed+i"
            ),
            num_routers=600,
            loss_prob=0.05,
            num_packets=4,
            lossless_recovery=False,
            protocols=PROTOCOLS,
            scenarios=15,
            fast_dissem=True,
        ),
        Workload(
            name="perturbed",
            why=(
                "Only cell where faults, churn, abandonment and plan repair "
                "work; fast path off. 300 routers, p=0.05, 10 packets, "
                "intensity 0.3; hardened RP,SRM,RMA,SOURCE; 6 scenarios, "
                "seeds 1000*seed+i"
            ),
            num_routers=300,
            loss_prob=0.05,
            num_packets=10,
            lossless_recovery=False,
            protocols=PROTOCOLS,
            scenarios=6,
            fast_dissem=False,
            perturb_intensity=0.3,
        ),
        Workload(
            name="large_setup",
            why=(
                "Setup-bound: Dijkstra rows and planning. 2000 routers, "
                "p=0.01, 4 packets; RP,SOURCE; 5 scenarios, seeds "
                "1000*seed+i. XL 100k-client arm left out: ~106 s build, 2 "
                "GiB per cell"
            ),
            num_routers=2000,
            loss_prob=0.01,
            num_packets=4,
            lossless_recovery=True,
            protocols=("RP", "SOURCE"),
            scenarios=5,
            fast_dissem=True,
        ),
    )
}


# -- host speed ------------------------------------------------------------


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop of heap, dict and float
    work — the kind of work the event loop does — with the collector
    off, so the heap the simulator left behind does not affect it."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list[tuple[float, int]] = []
        table: dict[int, int] = {}
        value = 0.5
        for i in range(20_000):
            value = (value * 3.9) % 1.0
            heapq.heappush(heap, (value, i))
            table[i & 1023] = i
            if len(heap) > 500:
                heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def speed_scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference-speed seconds."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2.0)


# -- one session ---------------------------------------------------------


@dataclass
class SessionResult:
    """One protocol's run inside a cell."""

    protocol: str
    scenario_seed: int
    #: Wall seconds times this factor are reference-speed seconds.
    scale: float = 1.0
    #: Time of the whole ``run_protocol_detailed`` call.
    total_s: float = 0.0
    install_s: float = 0.0
    #: From the end of ``install()`` to the end of the drain.
    session_s: float = 0.0
    fast_armed: bool = False
    events: int = 0
    stats: dict = field(default_factory=dict)
    digest: str = ""
    health_s: float = 0.0
    health_violations: int = 0
    problems: list[str] = field(default_factory=list)
    #: False when the session raised before producing artifacts.
    completed: bool = False
    #: Clients RP planned, and its incremental plan repair history
    #: (``IncrementalPlanRepairer.stats()``; empty without churn).  Plain
    #: values only: holding a session's objects across passes would
    #: grow the heap, and with it the cost of every later collection.
    plan_clients: int = 0
    repair: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def session_stats(artifacts: RunArtifacts, repairer_stats: dict | None) -> dict:
    """The session's simulated statistics, deterministic for a seed.

    ``events_processed`` is left out on purpose: the fast paths are
    bit-identical to the scalar path *modulo* the event count, so a
    speed-only change may move it while every statistic here holds.
    """
    summary = artifacts.summary
    ledger = artifacts.ledger
    stats = {
        "protocol": summary.protocol,
        "clients": summary.num_clients,
        "packets": summary.num_packets,
        "detected": summary.losses_detected,
        "recovered": summary.losses_recovered,
        "abandoned": artifacts.log.num_abandoned,
        "avg_latency": summary.avg_latency,
        "p50_latency": summary.p50_latency,
        "p95_latency": summary.p95_latency,
        "recovery_hops": summary.recovery_hops,
        "bandwidth_per_recovery": summary.bandwidth_per_recovery,
        "data_hops": summary.data_hops,
        "sim_time": summary.sim_time,
        "hops": {k.value: ledger.hops_by_kind[k] for k in PacketKind},
        "drops": {k.value: ledger.drops_by_kind[k] for k in PacketKind},
        "faults": dict(sorted(artifacts.faults.counts.items()))
        if artifacts.faults is not None else {},
        "membership": dict(sorted(artifacts.membership.counts.items()))
        if artifacts.membership is not None else {},
        "liveness_violations": (
            artifacts.liveness.violations if artifacts.liveness is not None else 0
        ),
    }
    if repairer_stats is not None:
        stats["repair_events"] = repairer_stats["events"]
        stats["repair_replans"] = repairer_stats["clients_replanned"]
    return stats


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_session(workload: Workload, result: SessionResult) -> None:
    """Append every failed correctness condition to ``result.problems``."""
    stats = result.stats
    if result.fast_armed != workload.fast_dissem:
        result.problems.append(
            f"fast dissemination armed={result.fast_armed}, "
            f"workload expects {workload.fast_dissem}"
        )
    if result.health_violations:
        result.problems.append(
            f"{result.health_violations} health violation(s)"
        )
    if workload.perturbed:
        if stats["liveness_violations"]:
            result.problems.append(
                f"{stats['liveness_violations']} liveness violation(s)"
            )
        if stats["detected"] != stats["recovered"] + stats["abandoned"]:
            result.problems.append(
                "detected != recovered + abandoned "
                f"({stats['detected']} != {stats['recovered']} + "
                f"{stats['abandoned']})"
            )
        tx_drops = stats["membership"].get("member.tx_drop", 0)
        if tx_drops:
            result.problems.append(f"{tx_drops} member tx drop(s)")
    elif stats["detected"] != stats["recovered"]:
        result.problems.append(
            f"detected {stats['detected']} != recovered {stats['recovered']}"
        )


# -- one cell ----------------------------------------------------------------


@dataclass
class CellResult:
    """One scenario's build plus every protocol's session on it."""

    scenario_seed: int
    clients: int = 0
    build_scale: float = 1.0
    build_s: float = 0.0
    #: ``build_scenario`` plus every protocol's ``install()``.
    setup_s: float = 0.0
    #: Setup plus every session's stream and drain.
    cell_s: float = 0.0
    #: Dijkstra rows the cell's routing table computed (cached + evicted).
    routing_rows: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    sessions: list[SessionResult] = field(default_factory=list)

    @property
    def recovered(self) -> int:
        return sum(s.stats.get("recovered", 0) for s in self.sessions)

    @property
    def wall_cell_s(self) -> float:
        """The cell's unscaled wall time."""
        return self.build_s / self.build_scale + sum(
            s.total_s / s.scale for s in self.sessions
        )

    def digest(self) -> str:
        return digest([s.stats for s in self.sessions])


def perturbations(
    workload: Workload, built: BuiltScenario
) -> tuple[FaultSchedule | None, MembershipSchedule | None]:
    """The workload's fault and churn schedules for one built scenario,
    sampled exactly as the chaos and churn sweeps sample them."""
    if not workload.perturbed:
        return None, None
    config = built.config
    intensity = workload.perturb_intensity
    horizon = chaos_horizon(config)
    candidates = [c for c in built.tree.clients if c != built.tree.root]
    faults = random_fault_schedule(
        intensity,
        RngStreams(config.seed).get(f"fault-schedule:{intensity:g}"),
        candidates,
        built.topology.links,
        horizon,
    )
    membership = random_membership_schedule(
        intensity,
        RngStreams(config.seed).get(f"membership-schedule:{intensity:g}"),
        candidates,
        horizon,
    )
    return faults, membership


def _run_session(
    workload: Workload,
    built: BuiltScenario,
    factory: ProtocolFactory,
    faults: FaultSchedule | None,
    membership: MembershipSchedule | None,
) -> SessionResult:
    result = SessionResult(
        protocol=factory.name, scenario_seed=built.config.seed
    )
    seen: dict = {}
    install = factory.install

    def timed_install(network, *args, **kwargs):
        start = time.perf_counter()
        agent = install(network, *args, **kwargs)
        seen["installed_at"] = time.perf_counter()
        seen["install_s"] = seen["installed_at"] - start
        seen["network"] = network
        return agent

    # Instance attribute: shadows the class method for this factory only.
    factory.install = timed_install
    gc.collect()
    start = time.perf_counter()
    try:
        artifacts = run_protocol_detailed(
            built, factory, faults=faults, membership=membership
        )
    except Exception:  # noqa: BLE001 - a failed session is a counted result
        result.total_s = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        result.problems.append(
            "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        )
        return result
    end = time.perf_counter()
    result.total_s = end - start
    result.install_s = seen["install_s"]
    result.session_s = end - seen["installed_at"]
    result.fast_armed = seen["network"].fast_dissem_enabled
    result.events = artifacts.summary.events_processed
    result.completed = True
    result.plan_clients = len(getattr(factory, "last_strategies", ()))
    repairer = getattr(factory, "last_repairer", None)
    if repairer is not None:
        result.repair = repairer.stats()
    result.stats = session_stats(artifacts, result.repair or None)
    result.digest = digest(result.stats)
    health_start = time.perf_counter()
    health = evaluate_health(
        artifacts.log,
        artifacts.ledger,
        membership_tx_drops=(
            artifacts.membership.counts.get("member.tx_drop", 0)
            if artifacts.membership is not None else None
        ),
    )
    result.health_s = time.perf_counter() - health_start
    result.health_violations = len(health.violations)
    check_session(workload, result)
    return result


def run_cell(workload: Workload, scenario_seed: int) -> CellResult:
    """Build one scenario on cold caches and run every protocol on it."""
    cell = CellResult(scenario_seed=scenario_seed)
    # Cold state: a sweep over new seeds never hits the plan cache, and
    # every build gets a fresh RoutingTable (and so a fresh row LRU).
    plan_cache.clear()
    config = workload.config(scenario_seed)
    gc.collect()
    before = calibrate()
    start = time.perf_counter()
    built = build_scenario(config)
    wall = time.perf_counter() - start
    after = calibrate()
    cell.build_scale = speed_scale(before, after)
    cell.build_s = wall * cell.build_scale
    cell.clients = built.num_clients
    faults, membership = perturbations(workload, built)
    for factory in workload.factories():
        before = after
        result = _run_session(workload, built, factory, faults, membership)
        after = calibrate()
        result.scale = speed_scale(before, after)
        result.install_s *= result.scale
        result.session_s *= result.scale
        result.total_s *= result.scale
        cell.sessions.append(result)
    cell.setup_s = cell.build_s + sum(s.install_s for s in cell.sessions)
    cell.cell_s = cell.build_s + sum(s.total_s for s in cell.sessions)
    backend = built.routing.backend
    cell.routing_rows = getattr(backend, "cached_rows", 0) + getattr(
        backend, "evictions", 0
    )
    cell.plan_hits = plan_cache.GLOBAL_PLAN_CACHE.hits
    cell.plan_misses = plan_cache.GLOBAL_PLAN_CACHE.misses
    return cell
