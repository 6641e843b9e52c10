"""Incremental repair of RP recovery plans under deaths and churn.

An event invalidates only part of the planning problem, and this module
re-plans exactly that part instead of re-running ``plan_all`` (which is
O(group²)).  Every plan excludes one set of peers: those the failure
detector has declared dead plus the departed members.  A client's
candidates are the winners of its competitive classes over every tree
client, and an excluded winner takes its whole class out of the strategy
graph, so an event on peer ``p`` moves a plan only through a class ``p``
wins:

* **Death.**  The classes ``p`` wins leave the graph.  Removing an
  option the client had not chosen never changes the optimum, so the
  dirty set is exactly the clients whose chosen list holds ``p`` — one
  lookup in a peer→clients reverse index.  ``p`` keeps its own plan.
* **Departure.**  The death step, after retiring the leaver's own plan.
  A pruned leaf hands each class it won to the runner-up, a worse
  option — but if the leaver was already dead those classes come back
  into the graph, so the clients whose class it won are re-planned too.
* **Join.**  Only the clients whose class the joiner now wins can move
  (Lemma 2 bounds its classes; one LCA and RTT row per client compares
  it with their members).  A dead joiner stays excluded (death is sticky), so
  of those only the clients that had chosen the displaced winner are
  re-planned.  The joiner always gets a fresh plan.

Re-planning a client runs the ordinary single-client pipeline, so a
repaired plan equals the from-scratch plan by construction; the chaos
sweep audits that the rules above never skip a client whose plan moved
(:meth:`IncrementalPlanRepairer.verify_against_scratch`).  The RP
factory feeds the repairer its events and swaps repaired strategies into
the live agents.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.planner import RecoveryStrategy
    from repro.net.mcast_tree import MulticastTree
    from repro.net.routing import RoutingTable

#: Re-plan one client against the current tree with ``excluded``
#: restricted out of the strategy graph.
ReplanFn = Callable[[int, frozenset], "RecoveryStrategy"]


class IncrementalPlanRepairer:
    """Keeps a live strategy set consistent across deaths and churn.

    ``strategies`` is the repairer's authoritative copy (one entry per
    current member with a plan); callers read it after each
    :meth:`repair` to swap updated lists into their agents.
    ``excluded`` is the exclusion set ``strategies`` were planned
    against, and the tree must hold every client a later event names.
    """

    def __init__(
        self,
        tree: "MulticastTree",
        routing: "RoutingTable",
        strategies: "dict[int, RecoveryStrategy]",
        replan: ReplanFn,
        excluded: frozenset = frozenset(),
    ):
        self._tree = tree
        self._routing = routing
        self._replan = replan
        self._excluded = excluded
        self.strategies: "dict[int, RecoveryStrategy]" = dict(strategies)
        # A leaf is pruned from and grafted back at the same parent, so
        # its classes stay computable while it is off the tree.
        self._parent = {c: tree.parent(c) for c in tree.clients}
        # peer -> clients whose chosen list contains that peer; the
        # death and departure dirty set is one lookup here.
        self._peer_index: dict[int, set[int]] = {}
        for client, strategy in self.strategies.items():
            for cand in strategy.attempts:
                self._peer_index.setdefault(cand.node, set()).add(client)
        #: One record per event:
        #: ``{kind, node, group_size, replanned, seconds}`` — the chaos
        #: sweep reads these to chart repair cost against group size.
        self.history: list[dict] = []

    # -- index maintenance ------------------------------------------------

    def _unindex(self, client: int) -> None:
        old = self.strategies.get(client)
        if old is None:
            return
        for cand in old.attempts:
            members = self._peer_index.get(cand.node)
            if members is not None:
                members.discard(client)

    def _apply(self, replanned: "dict[int, RecoveryStrategy]") -> None:
        for client, strategy in replanned.items():
            self._unindex(client)
            self.strategies[client] = strategy
            for cand in strategy.attempts:
                self._peer_index.setdefault(cand.node, set()).add(client)

    # -- event handlers ---------------------------------------------------

    def repair(
        self, kind: str, node: int, excluded: frozenset
    ) -> "dict[int, RecoveryStrategy]":
        """Apply one ``death``, ``leave`` or ``join`` of ``node``, with
        ``excluded`` the exclusion set after it; returns the re-planned
        strategies."""
        started = time.perf_counter()
        replanned = getattr(self, f"_on_{kind}")(node, excluded)
        self._excluded = excluded
        self._apply(replanned)
        self.history.append({
            "kind": kind,
            "node": node,
            "group_size": len(self.strategies),
            "replanned": len(replanned),
            "seconds": time.perf_counter() - started,
        })
        return replanned

    def _on_death(
        self, node: int, excluded: frozenset
    ) -> "dict[int, RecoveryStrategy]":
        dirty = self._peer_index.pop(node, ())
        return {client: self._replan(client, excluded) for client in sorted(dirty)}

    def _on_leave(
        self, node: int, excluded: frozenset
    ) -> "dict[int, RecoveryStrategy]":
        self._unindex(node)
        self.strategies.pop(node, None)
        replanned = self._on_death(node, excluded)
        if node in self._excluded and not self._tree.contains(node):
            for client, _ in self._class_wins(node):
                if client not in replanned:
                    replanned[client] = self._replan(client, excluded)
        return replanned

    def _on_join(
        self, node: int, excluded: frozenset
    ) -> "dict[int, RecoveryStrategy]":
        replanned = {node: self._replan(node, excluded)}
        for client, ds in self._class_wins(node):
            if node in excluded and all(
                a.ds != ds for a in self.strategies[client].attempts
            ):
                continue
            replanned[client] = self._replan(client, excluded)
        return replanned

    def _class_wins(self, peer: int) -> list[tuple[int, int]]:
        """``(client, DS)`` for every planned client whose competitive
        class at ``DS`` ``peer`` wins: it falls in one of the client's
        classes (Lemma 2) and no other member beats it by ``(rtt, node
        id)``, the planner's tie-break.  Classes range over the tree
        clients, excluded ones included; a pruned ``peer`` meets every
        client where its parent does."""
        tree = self._tree
        depth = tree.depth_vector()
        users = np.asarray(
            [c for c in self.strategies if c != peer], dtype=np.int64
        )
        meet = tree.lca_vector(
            peer if tree.contains(peer) else self._parent[peer], users
        )
        inside = depth[meet] < depth[users]
        users, meet = users[inside], meet[inside]
        if not users.size:
            return []
        peers = np.asarray(tree.clients, dtype=np.int64)
        cols = np.append(peers, peer)
        # same[i, j]: peers[j] is in peer's class for users[i] (a user
        # meets itself below ``meet``, so it never is).  Row by row, so
        # the transient stays O(group) per user.
        same = np.stack([tree.lca_vector(u, peers) for u in users])
        same = same == meet[:, None]
        rtt = 2.0 * np.stack([
            np.asarray(self._routing.distances_from(u))[cols] for u in users
        ])
        mine, rtt = rtt[:, -1:], rtt[:, :-1]
        beaten = same & (
            (rtt < mine) | ((rtt == mine) & (peers < peer))
        )
        wins = ~beaten.any(axis=1)
        return list(zip(users[wins].tolist(), depth[meet[wins]].tolist()))

    # -- diagnostics ------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready aggregate of the repair history."""
        events = len(self.history)
        replans = sum(h["replanned"] for h in self.history)
        group = sum(h["group_size"] for h in self.history)
        return {
            "events": events,
            "clients_replanned": replans,
            "replans_per_event": (replans / events) if events else 0.0,
            "replan_fraction": (replans / group) if group else 0.0,
            "seconds": sum(h["seconds"] for h in self.history),
        }

    def verify_against_scratch(self, excluded: frozenset) -> float:
        """Max relative expected-delay gap vs from-scratch planning.

        Re-plans every currently-planned client from scratch with
        ``excluded`` restricted out and returns the worst
        ``|repaired − scratch| / scratch`` over the group — 0.0 when the
        incremental skip filters never skipped a moved plan.
        """
        worst = 0.0
        for client, repaired in sorted(self.strategies.items()):
            scratch = self._replan(client, excluded)
            denom = max(abs(scratch.expected_delay), 1e-12)
            gap = abs(repaired.expected_delay - scratch.expected_delay) / denom
            worst = max(worst, gap)
        return worst
