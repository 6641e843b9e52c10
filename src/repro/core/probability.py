"""Conditional loss probabilities for a reliable network (Lemmas 1–3).

The paper's model (sections 2.2 and 3.2): the per-link loss probability
``p`` is so small that ``p² ≈ 0`` — conditioned on client ``u`` having
lost a packet, exactly one link lost it, and that link is uniformly
distributed over the ``DS_u`` links of the tree path ``S → u``.

A peer ``v_j`` shares the first ``DS_j`` links of that path (up to the
first common router ``R_j``), so ``v_j`` also lost the packet **iff** the
lost link lies in that shared prefix.  Everything in this module follows
from that single picture:

* **Lemma 1** — with candidates ordered by strictly decreasing ``DS``
  (``DS_1 > DS_2 > …``), knowing that ``v_1 … v_{i-1}`` all failed
  narrows the lost link to the first ``DS_{i-1}`` positions (uniformly),
  hence ``P(v_i lost │ u, v_1..v_{i-1} lost) = DS_i / DS_{i-1}``.
* **Lemma 2** — if ``DS_j ≥ DS_i`` for some already-failed ``v_i``, the
  lost link is inside ``v_j``'s shared prefix too, so ``v_j`` lost the
  packet with certainty.
* **Lemma 3** — the chain telescopes:
  ``P(v_1 … v_k all lost │ u lost) = DS_k / DS_u``.

:class:`SingleLossModel` implements the general rule both lemmas are
instances of, valid for *any* (not necessarily sorted) request order:
after a set ``F`` of peers has failed, the lost link is uniform over the
first ``m = min(DS_u, min_{f∈F} DS_f)`` positions, so the next peer
``v`` succeeds with probability ``max(0, m − DS_v) / m``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


def _check_ds(ds: int, name: str = "ds") -> None:
    if ds < 0:
        raise ValueError(f"{name} must be non-negative, got {ds}")


def lemma1(ds_i: int, ds_prev: int) -> float:
    """``P(v_i lost │ u lost, v_1..v_{i-1} lost)`` for a descending chain.

    Parameters
    ----------
    ds_i:
        ``DS_i`` of the peer being asked.
    ds_prev:
        ``DS_{i-1}`` of the previous peer (or ``DS_u`` for the first
        request).  Must satisfy ``ds_prev >= ds_i`` and ``ds_prev >= 1``.
    """
    _check_ds(ds_i, "ds_i")
    if ds_prev < 1:
        raise ValueError(f"ds_prev must be >= 1 (u itself lost the packet), got {ds_prev}")
    if ds_i > ds_prev:
        raise ValueError(
            f"lemma 1 requires a descending chain (ds_i={ds_i} > ds_prev={ds_prev});"
            " use SingleLossModel for arbitrary orders"
        )
    return ds_i / ds_prev


def lemma2(ds_j: int, ds_failed_min: int) -> float:
    """``P(v_j has the packet │ some failed peer had DS ≤ DS_j)``.

    Lemma 2 of the paper: once a peer with ``DS_i ≤ DS_j`` has failed,
    the lost link is within ``v_j``'s shared prefix, so ``v_j`` cannot
    have the packet.  Returns 0.0 (kept as a function for symmetry and
    to carry the validation).
    """
    _check_ds(ds_j, "ds_j")
    _check_ds(ds_failed_min, "ds_failed_min")
    if ds_j < ds_failed_min:
        raise ValueError(
            f"lemma 2 applies only when ds_j ({ds_j}) >= the minimum failed DS"
            f" ({ds_failed_min})"
        )
    return 0.0


def lemma3(ds_k: int, ds_u: int) -> float:
    """``P(v_1 … v_k all lost │ u lost) = DS_k / DS_u`` (telescoping).

    ``ds_k`` is the last (smallest) ``DS`` in a descending chain and
    ``ds_u`` the client's own hop distance from the source.
    """
    _check_ds(ds_k, "ds_k")
    if ds_u < 1:
        raise ValueError(f"ds_u must be >= 1, got {ds_u}")
    if ds_k > ds_u:
        raise ValueError(f"ds_k ({ds_k}) cannot exceed ds_u ({ds_u})")
    return ds_k / ds_u


def list_failure_ratios(strategies: Iterable) -> Iterator[tuple[object, int, float]]:
    """Lemma 1's conditional failure ``DS_j / DS_{j-1}`` (``DS_0 = DS_u``)
    of every attempt of every prioritized list, as ``(strategy, rank,
    ratio)`` in list order.

    ``strategies`` are :class:`~repro.core.planner.RecoveryStrategy`
    objects (any order, unvalidated: naive lists need not descend).  An
    attempt after a ``DS = 0`` step is skipped — no loss reaches it.
    This is the one place the per-rank model predictions are computed
    from; the obs report and the critical-path analysis average it.
    """
    for strategy in strategies:
        prev_ds = strategy.ds_u
        for rank, candidate in enumerate(strategy.attempts):
            if prev_ds > 0:
                yield strategy, rank, candidate.ds / prev_ds
            prev_ds = candidate.ds


class SingleLossModel:
    """The uniform single-lost-link model behind Lemmas 1–3.

    Tracks the state of a request chain for one client: the lost link is
    known to be uniform over the first :attr:`horizon` links of the
    ``S → u`` path.  Initially ``horizon = DS_u``; each *failed* request
    to a peer with ``DS_v < horizon`` shrinks the horizon to ``DS_v``.

    This generalizes the lemmas to arbitrary (not necessarily
    descending) request orders, which the brute-force oracle needs to
    prove Lemmas 4–5's pruning is sound.
    """

    def __init__(self, ds_u: int):
        if ds_u < 1:
            raise ValueError(f"ds_u must be >= 1, got {ds_u}")
        self._ds_u = ds_u
        self._horizon = ds_u

    @property
    def ds_u(self) -> int:
        return self._ds_u

    @property
    def horizon(self) -> int:
        """Current upper bound (in links from S) on the lost link position."""
        return self._horizon

    def success_prob(self, ds_v: int) -> float:
        """``P(v has the packet │ everything observed so far)``.

        ``v`` has the packet iff the lost link lies strictly beyond its
        shared prefix: ``max(0, horizon − DS_v) / horizon``.
        """
        _check_ds(ds_v, "ds_v")
        if ds_v >= self._horizon:
            return 0.0
        return (self._horizon - ds_v) / self._horizon

    def observe_failure(self, ds_v: int) -> None:
        """Record that the request to a peer with ``DS_v`` failed.

        Shrinks the horizon to ``min(horizon, DS_v)``.  A failure of a
        peer with ``DS_v = 0`` would contradict the model (such a peer
        has the packet with certainty) and raises ``ValueError``.
        """
        _check_ds(ds_v, "ds_v")
        if ds_v == 0:
            raise ValueError(
                "a peer with DS = 0 cannot fail under the single-loss model"
            )
        self._horizon = min(self._horizon, ds_v)

    def chain_reach_probability(self, ds_chain: Sequence[int]) -> float:
        """``P(all peers in ds_chain fail │ u lost)`` for any order.

        Equals ``min(ds_chain ∪ {ds_u}) / ds_u`` — the telescoping of
        Lemma 3 without requiring a sorted chain.  A chain containing a
        ``DS = 0`` peer can never fully fail (probability 0).
        """
        m = self._ds_u
        for ds in ds_chain:
            _check_ds(ds)
            if ds == 0:
                return 0.0
            m = min(m, ds)
        return m / self._ds_u

    def copy(self) -> "SingleLossModel":
        clone = SingleLossModel(self._ds_u)
        clone._horizon = self._horizon
        return clone
