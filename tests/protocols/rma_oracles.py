"""Per-pair reference implementation of the RMA search order.

:func:`repro.protocols.rma.upstream_receiver_order` builds the order
from arrays (one LCA query, one distance row, one lexsort); the
equivalence tests pit it against the plain loop below.
"""


def naive_upstream_receiver_order(network, client: int) -> list[tuple[int, float]]:
    """``(peer, rtt)`` for every peer meeting ``client`` strictly above
    it, by one ``ds``/``rtt`` query per pair, sorted by descending DS,
    then ascending RTT, then id."""
    tree = network.tree
    routing = network.routing
    ds_u = tree.depth(client)
    order = []
    for peer in tree.clients:
        if peer == client:
            continue
        ds = tree.ds(client, peer)
        if ds >= ds_u:
            continue  # in the client's own subtree: lost whatever it lost
        order.append((peer, ds, routing.rtt(client, peer)))
    order.sort(key=lambda item: (-item[1], item[2], item[0]))
    return [(peer, rtt) for peer, _, rtt in order]
