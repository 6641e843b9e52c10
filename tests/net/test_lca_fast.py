"""Equivalence of the O(1) LCA fast path with the naive pointer walks.

The Euler-tour sparse table, preorder intervals and batched rows in
:class:`~repro.net.mcast_tree.MulticastTree` must be *indistinguishable*
from the original pointer-walk implementations (the reference functions
in ``tests/net/lca_oracles.py``) — the planner's output, and therefore
every sweep artifact, depends on them bit for bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.net.generators import TopologyConfig, random_backbone
from repro.net.mcast_tree import MulticastTree, random_multicast_tree
from tests.net.lca_oracles import naive_first_common_router, naive_is_ancestor


def build(seed, routers=25):
    topo = random_backbone(
        TopologyConfig(num_routers=routers), np.random.default_rng(seed)
    )
    tree = random_multicast_tree(topo, np.random.default_rng(seed + 10_000))
    return topo, tree


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000), data=st.data())
def test_fast_lca_matches_naive(seed, data):
    _, tree = build(seed)
    members = tree.members
    u = data.draw(st.sampled_from(members))
    v = data.draw(st.sampled_from(members))
    assert tree.first_common_router(u, v) == naive_first_common_router(tree, u, v)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000), data=st.data())
def test_fast_is_ancestor_matches_naive(seed, data):
    _, tree = build(seed)
    members = tree.members
    a = data.draw(st.sampled_from(members))
    n = data.draw(st.sampled_from(members))
    assert tree.is_ancestor(a, n) == naive_is_ancestor(tree, a, n)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000), data=st.data())
def test_lca_row_matches_per_pair_queries(seed, data):
    _, tree = build(seed)
    client = data.draw(st.sampled_from(tree.members))
    row = tree.lca_row(client)
    assert set(row) == set(tree.members)
    for node in tree.members:
        assert row[node] == naive_first_common_router(tree, client, node)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000), data=st.data())
def test_ds_row_matches_per_pair_ds(seed, data):
    _, tree = build(seed)
    client = data.draw(st.sampled_from(tree.members))
    row = tree.ds_row(client)
    for node in tree.members:
        assert row[node] == tree.depth(naive_first_common_router(tree, client, node))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000), data=st.data())
def test_subtree_queries_consistent(seed, data):
    _, tree = build(seed)
    node = data.draw(st.sampled_from(tree.members))
    nodes = tree.subtree_nodes(node)
    # subtree_nodes keeps its documented ascending-id contract.
    assert nodes == sorted(nodes)
    # iter_subtree yields the same membership (preorder, no sort).
    assert sorted(tree.iter_subtree(node)) == nodes
    assert tree.subtree_size(node) == len(nodes)
    assert tree.subtree_link_count(node) == len(nodes) - 1
    # Membership equals the ancestor predicate.
    in_subtree = set(nodes)
    for other in tree.members:
        assert (other in in_subtree) == tree.is_ancestor(node, other)


def test_fast_path_on_hand_built_line():
    """Pin the structures on a hand-checkable line: S - r0 - r1 - r2 - r3 - c."""
    from repro.net.generators import line_topology

    topo = line_topology(4)  # routers 0..3, source 4, client 5
    tree = MulticastTree(topo, 4, {0: 4, 1: 0, 2: 1, 3: 2, 5: 3})
    # On a line, every LCA is the shallower endpoint.
    assert tree.first_common_router(5, 1) == 1
    assert tree.first_common_router(4, 3) == 4
    assert tree.ds(5, 2) == tree.depth(2) == 3
    assert tree.lca_row(5) == {n: n for n in (4, 0, 1, 2, 3, 5)}
    assert tree.is_ancestor(4, 5) and not tree.is_ancestor(5, 4)
    assert tree.subtree_link_count(4) == 5
    assert tree.subtree_size(3) == 2
    assert tree.top_level_subgroup(5) == 0
