"""Array-native dissemination (the struct-of-arrays fast path).

The hop-by-hop walkers move every multicast copy as one heap event per
link traversal: a cascade over an ``M``-member tree is ``M - 1`` events.
This module resolves a whole dissemination — arrival times, keyed loss
draws, which members it reaches, which hops and drops it charges — in a
handful of numpy passes, so the network schedules one event per agent
delivery instead:

* :class:`TreeDissem` — static per-tree arrays in preorder (incoming
  edge delay/loss, per-depth level slices, lossy prefix sums, the
  directed link words the loss lanes key on);
* :func:`resolve_subtree` — one copy down the subtree at a position
  (DATA and SESSION cascades, repair multicasts);
* :func:`resolve_flood` — one tree flood from a member (SRM NACKs and
  repairs).

**Bit-identity.** Loss draws come from a keyed
:class:`~repro.sim.rng.LossLane`, a pure function of the journey and
the directed link, so the array form draws exactly what the walkers
would whatever the order it evaluates links in.  Arrival times are
accumulated hop by hop (each level does the same single ``fl(a + d)``
the walker's hop did), so they are bit-equal too.

The module is pure computation over a tree and a lane; all simulation
state (event scheduling, ledgers, eligibility gating, the in-flight hop
registry) stays in :mod:`repro.sim.network`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.net.mcast_tree import MulticastTree
from repro.sim.rng import LossLane


class TreeDissem:
    """Static preorder arrays of a :class:`MulticastTree`.

    All arrays are indexed by *preorder position* (root at 0); ``order``
    maps positions back to node ids.  Built once per run.
    """

    def __init__(self, tree: MulticastTree):
        topo = tree.topology
        order_nodes, _tin, size_nodes, parent_nodes = tree.structure_arrays()
        order = np.asarray(order_nodes, dtype=np.int64)
        m = int(order.size)
        self.order = order
        self.num_members = m
        pos_of_node = np.full(topo.num_nodes, -1, dtype=np.int64)
        pos_of_node[order] = np.arange(m, dtype=np.int64)
        self.pos_of_node = pos_of_node
        parent_node = parent_nodes[order]  # -1 for the root
        parent_pos = np.where(
            parent_node >= 0, pos_of_node[np.maximum(parent_node, 0)], -1
        )
        self.parent_pos = parent_pos
        self.size_pos = size_nodes[order]
        depth = tree.depth_vector()[order]
        self.depth = depth

        # Incoming-edge delay / loss per position (0 for the root).
        delay = np.zeros(m, dtype=np.float64)
        loss = np.zeros(m, dtype=np.float64)
        for i in range(1, m):
            link = topo.link_between(int(parent_node[i]), int(order[i]))
            delay[i] = link.delay
            loss[i] = link.loss_prob
        self.delay = delay
        self.loss = loss
        lossy = loss > 0.0
        self.lossy_pos = np.flatnonzero(lossy)
        self.num_lossy = int(self.lossy_pos.size)
        # Lossy edges among positions [0, p), for O(1) "is this subtree
        # draw-free" answers.
        self.lossy_prefix = np.concatenate(
            ([0], np.cumsum(lossy.astype(np.int64)))
        )
        # Directed link words (``frm << 32 | to``) of each position's
        # incoming edge, downward and upward; the root's are unused.
        child = order.astype(np.uint64)
        parent = np.maximum(parent_node, 0).astype(np.uint64)
        self.down_word = (parent << np.uint64(32)) | child
        self.up_word = (child << np.uint64(32)) | parent

        # Per-depth level slices: (child positions ascending, their
        # parents' positions).  Stable sort keeps positions ascending
        # within a level, which subtree restriction relies on.
        by_depth = np.argsort(depth, kind="stable").astype(np.int64)
        counts = np.bincount(depth)
        levels: list[tuple[np.ndarray, np.ndarray]] = []
        start = int(counts[0])  # skip depth 0 (the root)
        for d in range(1, len(counts)):
            ch = by_depth[start : start + int(counts[d])]
            levels.append((ch, parent_pos[ch]))
            start += int(counts[d])
        self.levels = levels

    def subtree_is_lossless(self, p0: int) -> bool:
        """No lossy edge strictly inside the subtree at position ``p0``."""
        size = int(self.size_pos[p0])
        pre = self.lossy_prefix
        return int(pre[p0 + size] - pre[p0 + 1]) == 0


class Outcome(NamedTuple):
    """One resolved dissemination."""

    #: Agent positions reached, ascending, and their arrival times.
    reached: np.ndarray
    times: np.ndarray
    #: Transmit instants of every link traversal attempt and of every
    #: loss drop — the times the walkers would have charged the ledger,
    #: kept for drain-cutoff reconciliation.
    hop_times: np.ndarray
    drop_times: np.ndarray | None


def _alive(m: int, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Positions ``[0, m)`` covered by none of the intervals
    ``[starts[i], ends[i])``."""
    cover = np.bincount(starts, minlength=m + 1) - np.bincount(
        ends, minlength=m + 1
    )
    return np.cumsum(cover[:m]) == 0


def subtree_arrivals(
    dissem: TreeDissem, p0: int, t_root: float, scratch: np.ndarray
) -> None:
    """Fill ``scratch`` with arrival times for positions in the subtree
    at ``p0``, the subtree root arriving/starting at ``t_root``.

    Per-level restriction to the preorder interval keeps the cost
    proportional to the subtree's depth, not the tree's size.
    """
    scratch[p0] = t_root
    size = int(dissem.size_pos[p0])
    if size == 1:
        return
    end = p0 + size
    delay = dissem.delay
    for d in range(int(dissem.depth[p0]) + 1, len(dissem.levels) + 1):
        ch, pa = dissem.levels[d - 1]
        lo = int(np.searchsorted(ch, p0 + 1))
        hi = int(np.searchsorted(ch, end))
        if lo == hi:
            break  # subtree depths are contiguous
        c = ch[lo:hi]
        scratch[c] = scratch[pa[lo:hi]] + delay[c]


def resolve_subtree(
    dissem: TreeDissem,
    p0: int,
    t_root: float,
    agent_pos: np.ndarray,
    scratch: np.ndarray,
    lane: LossLane,
    journey,
) -> Outcome:
    """One copy from the subtree root at ``p0`` (present there at
    ``t_root``) down every tree link of its subtree.

    ``journey`` is the send's loss key, or ``None`` when the send is
    exempt from loss.  The root itself is not among ``reached``.
    """
    subtree_arrivals(dissem, p0, t_root, scratch)
    end = p0 + int(dissem.size_pos[p0])
    parents = dissem.parent_pos[p0 + 1 : end]
    hop_times = scratch[parents]
    lo = int(np.searchsorted(agent_pos, p0 + 1))
    hi = int(np.searchsorted(agent_pos, end))
    reached = agent_pos[lo:hi]
    if journey is None or dissem.subtree_is_lossless(p0):
        return Outcome(reached, scratch[reached], hop_times, None)
    lossy_pos = dissem.lossy_pos
    edges = lossy_pos[
        np.searchsorted(lossy_pos, p0 + 1) : np.searchsorted(lossy_pos, end)
    ]
    failed = edges[
        lane.uniforms(journey, dissem.down_word[edges]) < dissem.loss[edges]
    ]
    if not failed.size:
        return Outcome(reached, scratch[reached], hop_times, None)
    # A failed edge cuts off its whole subtree; an edge is attempted iff
    # its parent was reached.
    alive = _alive(
        end - p0, failed - p0, failed - p0 + dissem.size_pos[failed]
    )
    dropped = failed[alive[dissem.parent_pos[failed] - p0]]
    reached = reached[alive[reached - p0]]
    return Outcome(
        reached,
        scratch[reached],
        hop_times[alive[parents - p0]],
        scratch[dissem.parent_pos[dropped]],
    )


def resolve_flood(
    dissem: TreeDissem,
    src_pos: int,
    t0: float,
    agent_pos: np.ndarray,
    lane: LossLane,
    journey,
) -> Outcome:
    """One tree flood from ``src_pos`` at ``t0``.

    The flood re-roots the tree at the source: ancestors are entered
    bottom-up over the same links (same delays, reversed direction),
    everything else through its normal parent.  Accumulation is
    hop-by-hop in both directions, matching the walkers' floats
    exactly.  ``journey`` as in :func:`resolve_subtree`.
    """
    m = dissem.num_members
    parent_pos = dissem.parent_pos
    delay = dissem.delay
    arrivals = np.empty(m, dtype=np.float64)
    pred = parent_pos.copy()
    # Ancestor chain src -> root, sequential (length <= tree depth).
    chain = [src_pos]
    p = int(parent_pos[src_pos])
    while p != -1:
        chain.append(p)
        p = int(parent_pos[p])
    arrivals[src_pos] = t0
    for i in range(1, len(chain)):
        # The upward hop re-uses chain[i-1]'s incoming link.
        arrivals[chain[i]] = arrivals[chain[i - 1]] + delay[chain[i - 1]]
        pred[chain[i]] = chain[i - 1]
    pred[src_pos] = -1
    chain_values = arrivals[chain].copy()
    src_depth = int(dissem.depth[src_pos])
    # chain[i] sits at depth src_depth - i.
    for d in range(1, len(dissem.levels) + 1):
        ch, pa = dissem.levels[d - 1]
        arrivals[ch] = arrivals[pa] + delay[ch]
        if d <= src_depth:
            # The chain node at this depth was just overwritten with a
            # bogus downward value; restore its upward one before the
            # next level reads it as a parent.
            arrivals[chain[src_depth - d]] = chain_values[src_depth - d]

    entered = np.flatnonzero(pred >= 0)
    hop_times = arrivals[pred[entered]]
    reached = agent_pos[agent_pos != src_pos]
    if journey is None or dissem.num_lossy == 0:
        return Outcome(reached, arrivals[reached], hop_times, None)
    # Loss and link word of the traversal entering each position: the
    # incoming edge downward, or the chain child's edge upward.
    ups = np.asarray(chain[1:], dtype=np.int64)
    below = np.asarray(chain[:-1], dtype=np.int64)
    loss = dissem.loss.copy()
    loss[ups] = dissem.loss[below]
    loss[src_pos] = 0.0
    words = dissem.down_word.copy()
    words[ups] = dissem.up_word[below]
    edges = np.flatnonzero(loss > 0.0)
    failed = edges[lane.uniforms(journey, words[edges]) < loss[edges]]
    if not failed.size:
        return Outcome(reached, arrivals[reached], hop_times, None)
    # A failed downward entry cuts off the position's subtree; a failed
    # upward entry into a chain node cuts off everything outside the
    # chain child's subtree.
    rank = np.full(m, -1, dtype=np.int64)
    rank[ups] = np.arange(ups.size, dtype=np.int64)
    is_up = rank[failed] >= 0
    down = failed[~is_up]
    # The chain child each failed upward entry came from (ups[i] is
    # entered from below[i]).
    up_child = below[rank[failed[is_up]]]
    up_child_end = up_child + dissem.size_pos[up_child]
    starts = np.concatenate((
        down, np.zeros(up_child.size, dtype=np.int64), up_child_end
    ))
    ends = np.concatenate((
        down + dissem.size_pos[down], up_child, np.full(up_child.size, m)
    ))
    alive = _alive(m, starts, ends)
    dropped = failed[alive[pred[failed]]]
    reached = reached[alive[reached]]
    return Outcome(
        reached,
        arrivals[reached],
        hop_times[alive[pred[entered]]],
        arrivals[pred[dropped]],
    )
