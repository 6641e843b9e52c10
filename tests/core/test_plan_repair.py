"""Tests for incremental plan repair under deaths and membership churn.

The contract under test (see repro.core.plan_repair): after any death,
leave or join, the incrementally repaired strategy set must equal
from-scratch planning of the current group against the current
exclusion set (dead plus departed peers) — the skip rules (the removal
monotonicity argument, the class-winner filters) may only skip clients
whose optimal plan provably did not move.
"""

import numpy as np
import pytest

from repro.core.candidates import candidate_clients
from repro.net.mcast_tree import MulticastTree
from repro.net.routing import RoutingTable
from repro.net.topology import NodeKind, Topology

from repro.core.plan_repair import IncrementalPlanRepairer
from repro.core.planner import RPPlanner
from repro.core.strategy_graph import StrategyRestrictions
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario


def _setup(seed=3, routers=40):
    built = build_scenario(
        ScenarioConfig(seed=seed, num_routers=routers, loss_prob=0.05,
                       num_packets=5)
    )
    tree = built.tree.clone()
    routing = built.routing

    def replan(client, departed):
        planner = RPPlanner(
            tree, routing,
            restrictions=StrategyRestrictions(
                forbidden_peers=frozenset(departed)
            ),
        )
        return planner.plan(client)

    strategies = dict(RPPlanner(tree, routing).plan_all())
    return tree, routing, strategies, replan


def _leaf_peer_in_some_list(tree, strategies):
    """A leaf client that appears in at least one other client's chosen
    prioritized list — leaving it must dirty those clients."""
    chosen_peers = {
        cand.node
        for strategy in strategies.values()
        for cand in strategy.attempts
    }
    for node in sorted(chosen_peers):
        if tree.contains(node) and tree.is_leaf(node) and node != tree.root:
            return node
    pytest.skip("scenario has no leaf client inside a chosen list")


class TestLeave:
    def test_departed_peer_scrubbed_everywhere(self):
        tree, routing, strategies, replan = _setup()
        leaver = _leaf_peer_in_some_list(tree, strategies)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        tree.prune_leaf(leaver)
        replanned = repairer.repair("leave", leaver, frozenset({leaver}))
        assert leaver not in repairer.strategies
        for strategy in repairer.strategies.values():
            assert leaver not in [a.node for a in strategy.attempts]
        # Only the dirty clients were touched — sublinear by
        # construction, strict on any non-degenerate scenario.
        assert 0 < len(replanned) < len(strategies)

    def test_leave_repair_matches_scratch(self):
        tree, routing, strategies, replan = _setup()
        leaver = _leaf_peer_in_some_list(tree, strategies)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        tree.prune_leaf(leaver)
        repairer.repair("leave", leaver, frozenset({leaver}))
        # The monotonicity argument, checked empirically: every client
        # the repair *skipped* must still hold its from-scratch optimum.
        assert repairer.verify_against_scratch(frozenset({leaver})) == 0.0

    def test_leave_of_unchosen_peer_replans_nobody(self):
        tree, routing, strategies, replan = _setup()
        chosen = {
            cand.node
            for strategy in strategies.values()
            for cand in strategy.attempts
        }
        unchosen = [
            c for c in tree.clients
            if c not in chosen and c != tree.root and tree.is_leaf(c)
        ]
        if not unchosen:
            pytest.skip("every leaf client is in some chosen list")
        leaver = unchosen[0]
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        tree.prune_leaf(leaver)
        replanned = repairer.repair("leave", leaver, frozenset({leaver}))
        assert replanned == {}
        assert repairer.verify_against_scratch(frozenset({leaver})) == 0.0


class TestJoin:
    def test_rejoin_replans_joiner_and_matches_scratch(self):
        tree, routing, strategies, replan = _setup()
        leaver = _leaf_peer_in_some_list(tree, strategies)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        parent = tree.prune_leaf(leaver)
        repairer.repair("leave", leaver, frozenset({leaver}))
        tree.graft_leaf(leaver, parent)
        replanned = repairer.repair("join", leaver, frozenset())
        # The joiner always gets a fresh plan.
        assert leaver in replanned
        assert leaver in repairer.strategies
        # After the round trip the group is back to the original set;
        # the LCA/class-winner filters may only skip unmoved plans.
        assert repairer.verify_against_scratch(frozenset()) == 0.0
        # Join repair is also sublinear: the joiner plus the clients it
        # could actually improve, not the whole group.
        assert len(replanned) < len(repairer.strategies)

    @pytest.mark.parametrize("seed", [3, 9, 21])
    def test_round_trip_over_seeds(self, seed):
        tree, routing, strategies, replan = _setup(seed=seed)
        leaver = _leaf_peer_in_some_list(tree, strategies)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        parent = tree.prune_leaf(leaver)
        repairer.repair("leave", leaver, frozenset({leaver}))
        assert repairer.verify_against_scratch(frozenset({leaver})) == 0.0
        tree.graft_leaf(leaver, parent)
        repairer.repair("join", leaver, frozenset())
        assert repairer.verify_against_scratch(frozenset()) == 0.0


class TestAccounting:
    def test_history_and_stats(self):
        tree, routing, strategies, replan = _setup()
        leaver = _leaf_peer_in_some_list(tree, strategies)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        parent = tree.prune_leaf(leaver)
        repairer.repair("leave", leaver, frozenset({leaver}))
        tree.graft_leaf(leaver, parent)
        repairer.repair("join", leaver, frozenset())
        assert [h["kind"] for h in repairer.history] == ["leave", "join"]
        stats = repairer.stats()
        assert stats["events"] == 2
        assert stats["clients_replanned"] >= 1
        assert 0.0 < stats["replan_fraction"] < 1.0
        assert stats["seconds"] >= 0.0


def _holders(strategies, peer):
    return {
        client for client, strategy in strategies.items()
        if peer in [a.node for a in strategy.attempts]
    }


def _leaves_in_some_list(tree, strategies):
    chosen = {a.node for s in strategies.values() for a in s.attempts}
    return [
        node for node in sorted(chosen)
        if tree.contains(node) and tree.is_leaf(node) and node != tree.root
    ]


class TestDeath:
    @pytest.mark.parametrize("seed", [3, 9, 21])
    def test_death_replans_only_holders_and_keeps_own_plan(self, seed):
        tree, routing, strategies, replan = _setup(seed=seed)
        dead = max(
            {a.node for s in strategies.values() for a in s.attempts},
            key=lambda peer: len(_holders(strategies, peer)),
        )
        holders = _holders(strategies, dead)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        replanned = repairer.repair("death", dead, frozenset({dead}))
        assert set(replanned) == holders
        # The dead node stays on the tree and keeps its own list.
        assert repairer.strategies[dead] is strategies[dead]
        assert not _holders(repairer.strategies, dead)
        assert repairer.verify_against_scratch(frozenset({dead})) == 0.0

    def test_death_of_unchosen_peer_replans_nobody(self):
        tree, routing, strategies, replan = _setup()
        chosen = {a.node for s in strategies.values() for a in s.attempts}
        unchosen = [c for c in tree.clients if c not in chosen]
        if not unchosen:
            pytest.skip("every client is in some chosen list")
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        dead = frozenset({unchosen[0]})
        assert repairer.repair("death", unchosen[0], dead) == {}
        assert repairer.verify_against_scratch(dead) == 0.0


class TestDeadChurn:
    """A dead peer stays excluded while it churns (death is sticky)."""

    @pytest.mark.parametrize("seed", [3, 9, 21])
    def test_rejoin_of_dead_node_replans_joiner_and_displaced(self, seed):
        tree, routing, strategies, replan = _setup(seed=seed)
        only_joiner = 0
        for node in _leaves_in_some_list(tree, strategies)[:6]:
            tree, routing, strategies, replan = _setup(seed=seed)
            repairer = IncrementalPlanRepairer(
                tree, routing, strategies, replan
            )
            excluded = frozenset({node})
            repairer.repair("death", node, excluded)
            parent = tree.prune_leaf(node)
            repairer.repair("leave", node, excluded)
            before = dict(repairer.strategies)
            old_winners = {
                c: {k.ds: k.node for k in candidate_clients(tree, routing, c)}
                for c in before
            }
            tree.graft_leaf(node, parent)
            replanned = repairer.repair("join", node, excluded)
            # Besides the joiner, only clients whose chosen list held
            # the class winner the (excluded) joiner displaced move.
            displaced = set()
            for client, plan in before.items():
                ds = tree.ds(client, node)
                new = {
                    k.ds: k.node
                    for k in candidate_clients(tree, routing, client)
                }
                if new.get(ds) == node and old_winners[client].get(ds) in {
                    a.node for a in plan.attempts
                }:
                    displaced.add(client)
            assert set(replanned) == {node} | displaced
            assert repairer.verify_against_scratch(excluded) == 0.0
            only_joiner += set(replanned) == {node}
        assert only_joiner > 0

    @pytest.mark.parametrize("seed", [3, 9, 21])
    def test_leave_of_dead_leaf_hands_its_classes_back(self, seed):
        tree, routing, strategies, replan = _setup(seed=seed)
        revived = 0
        for node in _leaves_in_some_list(tree, strategies)[:6]:
            tree, routing, strategies, replan = _setup(seed=seed)
            repairer = IncrementalPlanRepairer(
                tree, routing, strategies, replan
            )
            excluded = frozenset({node})
            repairer.repair("death", node, excluded)
            tree.prune_leaf(node)
            # The dead leaf's classes were out of every graph; pruned,
            # each passes to its runner-up and may enter plans again.
            replanned = repairer.repair("leave", node, excluded)
            assert node not in repairer.strategies
            assert repairer.verify_against_scratch(excluded) == 0.0
            revived += bool(replanned)
        assert revived > 0


class TestRandomEventSequences:
    @pytest.mark.parametrize("seed", [3, 9, 21, 33])
    def test_every_event_matches_scratch(self, seed):
        """Random deaths, leaves and joins; after each one every
        repaired plan equals the from-scratch plan."""
        tree, routing, strategies, replan = _setup(seed=seed)
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        rng = np.random.default_rng(seed)
        dead: set[int] = set()
        departed: dict[int, int | None] = {}
        for _ in range(40):
            present = [c for c in tree.clients if c not in departed]
            kind = rng.choice(["death", "leave", "join"])
            if kind == "join" and departed:
                node = sorted(departed)[rng.integers(len(departed))]
                parent = departed.pop(node)
                if parent is not None:
                    tree.graft_leaf(node, parent)
            elif kind == "leave" or (kind == "join" and not departed):
                kind = "leave"
                node = present[rng.integers(len(present))]
                departed[node] = (
                    tree.prune_leaf(node) if tree.is_leaf(node) else None
                )
            else:
                node = present[rng.integers(len(present))]
                dead.add(node)
            excluded = frozenset(dead) | frozenset(departed)
            repairer.repair(kind, node, excluded)
            for client, plan in repairer.strategies.items():
                assert plan.attempts == replan(client, excluded).attempts, (
                    kind, node, client
                )
        assert set(repairer.strategies) == {
            c for c in tree.clients if c not in departed
        }


class TestTies:
    def test_joiner_wins_an_rtt_tie_by_node_id(self):
        """S -10- r0 - r1 - u and r0 - r2 - {a, b}, unit delays
        elsewhere: for u, a and b tie on RTT in one class, and the lower
        id wins it (the planner's tie-break)."""
        topo = Topology()
        r0, r1, r2 = topo.add_nodes(3, NodeKind.ROUTER)
        source = topo.add_node(NodeKind.SOURCE)
        u, a, b = topo.add_nodes(3, NodeKind.CLIENT)
        topo.add_link(source, r0, 10.0, 0.05)
        for x, y in ((r0, r1), (r1, u), (r0, r2), (r2, a), (r2, b)):
            topo.add_link(x, y, 1.0, 0.05)
        tree = MulticastTree(
            topo, source, {r0: source, r1: r0, r2: r0, u: r1, a: r2, b: r2}
        )
        routing = RoutingTable(topo)

        def replan(client, excluded):
            return RPPlanner(tree, routing, restrictions=StrategyRestrictions(
                forbidden_peers=frozenset(excluded)
            )).plan(client)

        strategies = {c: replan(c, frozenset()) for c in tree.clients}
        assert [x.node for x in strategies[u].attempts] == [a]
        repairer = IncrementalPlanRepairer(tree, routing, strategies, replan)
        parent = tree.prune_leaf(a)
        repairer.repair("leave", a, frozenset({a}))
        assert [x.node for x in repairer.strategies[u].attempts] == [b]
        tree.graft_leaf(a, parent)
        replanned = repairer.repair("join", a, frozenset())
        assert u in replanned
        assert [x.node for x in repairer.strategies[u].attempts] == [a]
        assert repairer.verify_against_scratch(frozenset()) == 0.0
