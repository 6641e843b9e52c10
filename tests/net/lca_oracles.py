"""Pointer-walk reference implementations of the tree's ancestor
queries (O(depth) each).

:class:`~repro.net.mcast_tree.MulticastTree` answers these in O(1) from
an Euler tour and preorder intervals; the equivalence tests and the
hot-path benchmark pit those answers against the walks below.
"""

from repro.net.mcast_tree import MulticastTree


def naive_first_common_router(tree: MulticastTree, u: int, v: int) -> int:
    """Lowest common ancestor of ``u`` and ``v`` by walking parents."""
    du, dv = tree.depth(u), tree.depth(v)
    a, b = u, v
    while du > dv:
        a = tree.parent(a)
        du -= 1
    while dv > du:
        b = tree.parent(b)
        dv -= 1
    while a != b:
        a = tree.parent(a)
        b = tree.parent(b)
    return a


def naive_is_ancestor(tree: MulticastTree, ancestor: int, node: int) -> bool:
    """Whether ``ancestor`` is on the root path of ``node`` (inclusive)."""
    d = tree.depth(ancestor)
    cur = node
    cd = tree.depth(node)
    while cd > d:
        cur = tree.parent(cur)
        cd -= 1
    return cur == ancestor
