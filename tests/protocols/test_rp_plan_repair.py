"""Hardened RP keeps every live prioritized list clear of unanswerable
peers: failure-detector deaths and membership churn go through one
incremental repairer against one exclusion set, the dead peers plus the
departed members (see :mod:`repro.core.plan_repair`)."""

import dataclasses

import pytest

from repro.core import plan_cache
from repro.experiments.chaos import chaos_horizon, hardened_factory
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol_detailed
from repro.protocols import policy as policy_module
from repro.protocols.policy import RecoveryPolicy
from repro.protocols.rp import RPConfig, RPProtocolFactory
from repro.sim.faults import random_fault_schedule
from repro.sim.membership import random_membership_schedule
from repro.sim.rng import RngStreams


def _perturbed(seed, routers, packets, intensity, faults=True, churn=True):
    """A scenario plus its fault and churn schedules, sampled from the
    lanes the chaos sweep and the perturbed benchmark workload use."""
    config = ScenarioConfig(
        seed=seed, num_routers=routers, loss_prob=0.05,
        num_packets=packets, lossless_recovery=False,
    )
    built = build_scenario(config)
    horizon = chaos_horizon(config)
    candidates = [c for c in built.tree.clients if c != built.tree.root]
    lane = f"{intensity:g}"
    fault_schedule = membership = None
    if faults:
        fault_schedule = random_fault_schedule(
            intensity, RngStreams(seed).get(f"fault-schedule:{lane}"),
            candidates, built.topology.links, horizon,
        )
    if churn:
        membership = random_membership_schedule(
            intensity, RngStreams(seed).get(f"membership-schedule:{lane}"),
            candidates, horizon,
        )
    return built, fault_schedule, membership


class _ListAudit:
    """After every death and every churn event, counts the live agents
    whose prioritized list names a dead or departed peer."""

    def __init__(self, factory, monkeypatch):
        self.checks = 0
        self.stale_lists = 0
        self.network = None
        self.clients = ()
        self.detector = None
        self.director = None
        install = factory.install
        attach = factory.attach_membership

        def audited_install(network, *args, **kwargs):
            source = install(network, *args, **kwargs)
            self.network = network
            self.clients = tuple(factory.last_strategies)
            return source

        def audited_attach(director):
            attach(director)
            self.director = director
            # Listeners run in order: this one sees the repaired lists.
            director.add_listener(lambda *_: self.check())

        factory.install = audited_install
        factory.attach_membership = audited_attach
        record_timeout = policy_module.PeerFailureDetector.record_timeout
        audit = self

        def audited_record_timeout(detector, peer):
            audit.detector = detector
            died = record_timeout(detector, peer)
            if died:
                audit.check()
            return died

        monkeypatch.setattr(
            policy_module.PeerFailureDetector, "record_timeout",
            audited_record_timeout,
        )

    def check(self) -> None:
        dead = self.detector.dead if self.detector is not None else frozenset()
        departed = (
            self.director.departed if self.director is not None
            else frozenset()
        )
        excluded = dead | departed
        self.checks += 1
        for client in self.clients:
            if client in departed:
                continue
            agent = self.network.agent_at(client)
            if any(a.node in excluded for a in agent.strategy.attempts):
                self.stale_lists += 1


@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_no_live_list_names_a_dead_or_departed_peer(seed, monkeypatch):
    # perturbed-workload shape: 300 routers, 10 packets, faults and
    # churn at intensity 0.3.
    built, faults, membership = _perturbed(seed, 300, 10, 0.3)
    factory = hardened_factory("rp")
    audit = _ListAudit(factory, monkeypatch)
    artifacts = run_protocol_detailed(
        built, factory, faults=faults, membership=membership
    )
    assert artifacts.liveness.ok
    assert audit.checks > 0
    assert audit.stale_lists == 0
    # The repairer's final plans equal from-scratch planning against
    # the same exclusion set.
    assert factory.last_repairer.verify_against_scratch(
        factory.excluded_peers()
    ) == 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("intensity", [0.5, 0.9])
def test_every_repair_matches_scratch_planning(seed, intensity, monkeypatch):
    """Exactness after *every* event, not only at the end: each repaired
    plan equals the from-scratch plan for the exclusion set right after
    the event (the repairer's skip rules never skip a moved plan)."""
    from repro.core import plan_repair

    built, faults, membership = _perturbed(seed, 40, 10, intensity)
    factory = hardened_factory("rp")
    repair = plan_repair.IncrementalPlanRepairer.repair
    moved = []

    def checked_repair(repairer, kind, node, excluded):
        replanned = repair(repairer, kind, node, excluded)
        for client, strategy in repairer.strategies.items():
            scratch = repairer._replan(client, excluded)
            if scratch.attempts != strategy.attempts:
                moved.append((kind, node, client))
        return replanned

    monkeypatch.setattr(
        plan_repair.IncrementalPlanRepairer, "repair", checked_repair
    )
    run_protocol_detailed(built, factory, faults=faults, membership=membership)
    kinds = {h["kind"] for h in factory.last_repairer.history}
    assert {"death", "leave", "join"} <= kinds
    assert moved == []


def test_faults_only_run_repairs_deaths_incrementally():
    built, faults, _ = _perturbed(1000, 300, 10, 0.3, churn=False)
    factory = hardened_factory("rp")
    plan_cache.clear()
    artifacts = run_protocol_detailed(built, factory, faults=faults)
    assert artifacts.membership is None
    # One plan_all per install; every death is an incremental repair.
    assert plan_cache.GLOBAL_PLAN_CACHE.misses == 1
    repairer = factory.last_repairer
    assert repairer is not None and repairer.history
    assert {h["kind"] for h in repairer.history} == {"death"}
    group = len(factory.last_strategies)
    assert all(h["replanned"] < group for h in repairer.history)
    assert repairer.verify_against_scratch(factory.excluded_peers()) == 0.0


def test_clean_and_skip_only_runs_build_no_repairer(monkeypatch):
    built, faults, _ = _perturbed(1000, 60, 6, 0.5, churn=False)
    plain = RPProtocolFactory()
    run_protocol_detailed(built, plain)
    assert plain.last_repairer is None
    skip_only = RPProtocolFactory(RPConfig(recovery_policy=dataclasses.replace(
        RecoveryPolicy.hardened(), replan_on_death=False
    )))
    audit = _ListAudit(skip_only, monkeypatch)
    run_protocol_detailed(built, skip_only, faults=faults)
    # Deaths are only skipped at runtime: lists keep naming dead peers,
    # and no repairer is built.
    assert audit.detector.dead
    assert audit.stale_lists > 0
    assert skip_only.last_repairer is None
