"""Critical-path analysis of recovery span trees.

Splits each traced recovery's latency into the components the paper's
delay model reasons about:

* ``request_transit`` — REQUEST/NACK in flight (from attempt start to
  the delivery at the target peer; a ``nacked`` attempt is all transit:
  request out, negative reply back);
* ``peer_processing`` — the gap between the request landing and the
  repair's first transmission (SRM repair-suppression timers live
  here);
* ``repair_transit`` — REPAIR in flight back to the requester;
* ``timeout_slack`` — time spent waiting on attempt timers that
  expired, plus inter-attempt gaps (SRM request-suppression waits);
* ``backoff`` — the extra wait exponential backoff added on top of the
  base timeout (from the ``extra`` field of backoff annotations);
* ``other`` — whatever the trace cannot attribute (e.g. the tail of a
  retracted recovery).

Aggregation happens on two axes.  Per *component*: totals over the
whole store — where does recovery latency actually go.  Per *rank*:
observed conditional failure rates and mean attempt costs for each
prioritized-list rank, laid next to the model's predictions — failure
``DS_j/DS_{j-1}`` (Lemma 3) and cost
``d(v_j) = d_j·P(success) + t0·P(failure)`` (eq. 1) — when the RP
strategies are supplied.  :meth:`CriticalPathReport.worst` surfaces the
slowest recoveries with their dominant component, which is the
``repro trace`` subcommand's "what should I look at first" answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.objective import BlendEstimator
from repro.core.probability import list_failure_ratios
from repro.obs.events import SOURCE_RANK
from repro.obs.spans import (
    CATEGORY_ATTEMPT,
    CATEGORY_RECOVERY,
    Span,
    SpanStore,
)

#: Latency components, in causal order (``other`` last).
COMPONENTS = (
    "request_transit",
    "peer_processing",
    "repair_transit",
    "timeout_slack",
    "backoff",
    "other",
)

#: Attempt statuses that count as conditional failures at their rank.
_FAILURE_STATUSES = ("timed_out", "nacked")

#: Causal order of succeeded-attempt milestones: ties in time (e.g. a
#: source answering a request on the tick it arrives) must still
#: attribute the preceding segment to the earlier stage.
_MILESTONE_ORDER = {
    "request_transit": 0, "peer_processing": 1, "repair_transit": 2,
}


@dataclass
class TraceBreakdown:
    """One recovery's latency split into :data:`COMPONENTS`."""

    trace_id: int
    client: int
    seq: int
    protocol: str
    status: str
    total: float
    attempts: int
    components: dict[str, float] = field(default_factory=dict)

    @property
    def dominant(self) -> str:
        """The component holding the largest share of the latency."""
        return max(COMPONENTS, key=lambda c: self.components.get(c, 0.0))

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "client": self.client,
            "seq": self.seq,
            "protocol": self.protocol,
            "status": self.status,
            "total": self.total,
            "attempts": self.attempts,
            "components": dict(self.components),
        }


@dataclass
class RankPath:
    """Observed vs predicted behaviour of one prioritized-list rank."""

    rank: int
    attempts: int = 0
    successes: int = 0
    failures: int = 0
    total_cost: float = 0.0
    predicted_failure: float | None = None
    predicted_cost: float | None = None

    @property
    def observed_failure(self) -> float | None:
        decided = self.successes + self.failures
        return self.failures / decided if decided else None

    @property
    def mean_cost(self) -> float | None:
        return self.total_cost / self.attempts if self.attempts else None

    @property
    def label(self) -> str:
        return "source" if self.rank == SOURCE_RANK else f"v{self.rank + 1}"


def _attempt_milestones(span: Span) -> list[tuple[float, str]]:
    """Causal checkpoints inside a succeeded attempt, in time order.

    Missing checkpoints (a request whose delivery fell outside the
    annotation filter, a repair that originated before this attempt)
    simply drop out; the walk in :func:`analyze_trace` attributes the
    unexplained remainder to ``other``.
    """
    t_request = t_repair_in = None
    for note in span.annotations:
        label = note.get("label", "")
        if label in ("deliver.request", "deliver.nack") and t_request is None:
            t_request = note["time"]
        elif label == "deliver.repair" and t_repair_in is None:
            t_repair_in = note["time"]
    return [
        (t, c)
        for t, c in (
            (t_request, "request_transit"),
            (t_repair_in, "repair_transit"),
        )
        if t is not None
    ]


def analyze_trace(spans: list[Span]) -> TraceBreakdown | None:
    """Break one trace's spans down into latency components.

    Returns ``None`` for span lists without a recovery root (not a
    complete trace).
    """
    root = next(
        (s for s in spans if s.category == CATEGORY_RECOVERY), None
    )
    if root is None or root.end is None:
        return None
    attempts = sorted(
        (s for s in spans if s.category == CATEGORY_ATTEMPT),
        key=lambda s: (s.start, s.span_id),
    )
    xmit_by_parent: dict[int, list[Span]] = {}
    for s in spans:
        if s.name == "xmit.repair":
            xmit_by_parent.setdefault(s.parent_id, []).append(s)

    components = {c: 0.0 for c in COMPONENTS}
    cursor = root.start
    for span in attempts:
        if span.end is None:
            continue
        gap = span.start - cursor
        if gap > 0:
            # Between attempts (or before the first one) the client is
            # waiting on a timer: SRM suppression windows, mostly.
            components["timeout_slack"] += gap
        status = span.attrs.get("status", "")
        duration = span.end - span.start
        if status == "succeeded":
            milestones = list(_attempt_milestones(span))
            repairs = xmit_by_parent.get(span.span_id)
            if repairs:
                first = min(r.start for r in repairs)
                milestones.append((first, "peer_processing"))
            milestones.sort(key=lambda m: (m[0], _MILESTONE_ORDER[m[1]]))
            at = span.start
            for t, component in milestones:
                if at <= t <= span.end:
                    components[component] += t - at
                    at = t
            components["other"] += span.end - at
        elif status == "timed_out":
            extra = sum(
                n.get("extra", 0.0)
                for n in span.annotations
                if n.get("label") == "backoff"
            )
            backoff_part = min(max(extra, 0.0), duration)
            components["backoff"] += backoff_part
            components["timeout_slack"] += duration - backoff_part
        elif status == "nacked":
            components["request_transit"] += duration
        else:
            components["other"] += duration
        cursor = span.end
    tail = root.end - cursor
    if tail > 0:
        components["other"] += tail
    return TraceBreakdown(
        trace_id=root.trace_id,
        client=root.attrs.get("client", root.node),
        seq=root.attrs.get("seq", -1),
        protocol=root.attrs.get("protocol", ""),
        status=root.attrs.get("status", ""),
        total=root.end - root.start,
        attempts=len(attempts),
        components=components,
    )


def _predicted_per_rank(strategies: dict) -> dict[int, tuple[float, float]]:
    """``rank → (mean DS_j/DS_{j-1}, mean eq.-1 cost)`` over clients."""
    estimator = BlendEstimator()
    fail_sums: dict[int, float] = {}
    cost_sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for strategy, rank, p_fail in list_failure_ratios(strategies.values()):
        fail_sums[rank] = fail_sums.get(rank, 0.0) + p_fail
        cost_sums[rank] = cost_sums.get(rank, 0.0) + estimator.cost(
            strategy.attempts[rank].rtt, strategy.timeouts[rank], 1.0 - p_fail
        )
        counts[rank] = counts.get(rank, 0) + 1
    src_cost_sum = sum(s.source_rtt for s in strategies.values())
    out = {
        rank: (fail_sums[rank] / counts[rank], cost_sums[rank] / counts[rank])
        for rank in counts
    }
    if strategies:
        # The source always has the packet: failure only through loss of
        # the request/repair themselves, which the single-loss model
        # puts at zero; cost is the plain round trip.
        out[SOURCE_RANK] = (0.0, src_cost_sum / len(strategies))
    return out


@dataclass
class CriticalPathReport:
    """Aggregated critical-path view of a span store."""

    breakdowns: list[TraceBreakdown] = field(default_factory=list)
    per_rank: list[RankPath] = field(default_factory=list)
    sampled_out: int = 0
    late_events: int = 0

    @property
    def totals(self) -> dict[str, float]:
        out = {c: 0.0 for c in COMPONENTS}
        for b in self.breakdowns:
            for c in COMPONENTS:
                out[c] += b.components.get(c, 0.0)
        return out

    @property
    def total_latency(self) -> float:
        return sum(b.total for b in self.breakdowns)

    def worst(self, k: int = 5) -> list[TraceBreakdown]:
        """The ``k`` slowest recoveries, slowest first (stable on ties)."""
        return sorted(
            self.breakdowns, key=lambda b: (-b.total, b.trace_id)
        )[:k]

    def to_dict(self) -> dict:
        return {
            "traces": len(self.breakdowns),
            "totals": self.totals,
            "total_latency": self.total_latency,
            "per_rank": [
                {
                    "rank": r.rank,
                    "attempts": r.attempts,
                    "successes": r.successes,
                    "failures": r.failures,
                    "observed_failure": r.observed_failure,
                    "predicted_failure": r.predicted_failure,
                    "mean_cost": r.mean_cost,
                    "predicted_cost": r.predicted_cost,
                }
                for r in self.per_rank
            ],
            "sampled_out": self.sampled_out,
            "late_events": self.late_events,
            "breakdowns": [b.to_dict() for b in self.breakdowns],
        }

    def render(self, worst_k: int = 5) -> str:
        lines = [f"== critical path ({len(self.breakdowns)} traces) =="]
        total = self.total_latency
        if total > 0:
            lines.append("latency by component (sim-ms):")
            for component in COMPONENTS:
                value = self.totals[component]
                share = value / total
                bar = "#" * max(0, round(30 * share))
                lines.append(
                    f"  {component:<16} {value:12.2f}  {share:6.1%}  {bar}"
                )
        if self.per_rank:
            lines.append("")
            lines.append(
                "per-rank attempt outcomes vs model "
                "(failure = DS_j/DS_j-1, cost = eq. 1):"
            )
            lines.append(
                "  rank    attempts   failed  obs fail  pred fail"
                "  mean ms   pred ms"
            )
            for r in self.per_rank:
                obs = (
                    f"{r.observed_failure:8.3f}"
                    if r.observed_failure is not None else "       -"
                )
                pred = (
                    f"{r.predicted_failure:9.3f}"
                    if r.predicted_failure is not None else "        -"
                )
                cost = (
                    f"{r.mean_cost:7.2f}" if r.mean_cost is not None else "      -"
                )
                pcost = (
                    f"{r.predicted_cost:7.2f}"
                    if r.predicted_cost is not None else "      -"
                )
                lines.append(
                    f"  {r.label:>6}  {r.attempts:8d}  {r.failures:7d}"
                    f"  {obs}  {pred}  {cost}   {pcost}"
                )
        if worst_k > 0 and self.breakdowns:
            lines.append("")
            lines.append(f"worst {min(worst_k, len(self.breakdowns))} recoveries:")
            for b in self.worst(worst_k):
                parts = ", ".join(
                    f"{c}={b.components[c]:.2f}"
                    for c in COMPONENTS
                    if b.components.get(c, 0.0) > 0
                )
                lines.append(
                    f"  client={b.client} seq={b.seq} status={b.status}"
                    f" total={b.total:.2f}ms attempts={b.attempts}"
                    f" dominant={b.dominant} [{parts}]"
                )
        if self.sampled_out or self.late_events:
            lines.append("")
            lines.append(
                f"sampling: {self.sampled_out} traces sampled out, "
                f"{self.late_events} late link events ignored"
            )
        return "\n".join(lines)


def analyze(
    store: SpanStore, strategies: dict | None = None
) -> CriticalPathReport:
    """Fold a span store into a :class:`CriticalPathReport`.

    ``strategies`` (client → ``RecoveryStrategy``, RP only) attaches the
    model's per-rank failure-rate and attempt-cost predictions.
    """
    report = CriticalPathReport(
        sampled_out=store.sampled_out, late_events=store.late_events
    )
    ranks: dict[int, RankPath] = {}
    for spans in store.by_trace().values():
        breakdown = analyze_trace(spans)
        if breakdown is not None:
            report.breakdowns.append(breakdown)
        for span in spans:
            if span.category != CATEGORY_ATTEMPT or span.end is None:
                continue
            rank = span.attrs.get("rank", SOURCE_RANK)
            stats = ranks.get(rank)
            if stats is None:
                stats = RankPath(rank=rank)
                ranks[rank] = stats
            stats.attempts += 1
            stats.total_cost += span.end - span.start
            status = span.attrs.get("status", "")
            if status == "succeeded":
                stats.successes += 1
            elif status in _FAILURE_STATUSES:
                stats.failures += 1
    predictions = _predicted_per_rank(strategies) if strategies else {}
    for rank in sorted(ranks, key=lambda r: (r == SOURCE_RANK, r)):
        stats = ranks[rank]
        if rank in predictions:
            stats.predicted_failure, stats.predicted_cost = predictions[rank]
        report.per_rank.append(stats)
    return report


__all__ = [
    "COMPONENTS",
    "TraceBreakdown",
    "RankPath",
    "CriticalPathReport",
    "analyze",
    "analyze_trace",
]
