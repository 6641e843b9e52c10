"""Reducing recorded telemetry to an attempt-level run report.

:func:`build_obs_report` folds the attempt events captured by a run's
ring-buffer sink into the quantities the paper's analysis actually
predicts:

* **attempts per recovery** — how many unicast requests each repaired
  loss needed (the makespan/retransmission-count metric hierarchical-
  recovery follow-up work evaluates);
* **per-rank success rates** — how often the attempt to the ``j``-th
  peer of the prioritized list succeeded.  When the RP strategies are
  supplied, each rank also carries the model's prediction
  ``1 − DS_j/DS_{j−1}`` (Lemma 3's telescoping conditional success
  probability), so the simulated attempt outcomes can be checked
  against the theory rank by rank;
* **top timers** — the profiler's per-subsystem wall-clock totals, the
  ROADMAP's "find the hot path before optimizing it" hook.

A report is plain data: ``to_dict``/``from_dict`` round-trips through
JSON (the campaign persists one per instrumented run next to its
summaries), and :meth:`ObsReport.render` prints the human breakdown the
``repro obs`` subcommand shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.probability import list_failure_ratios
from repro.obs.events import SOURCE_RANK, AttemptEvent
from repro.obs.instrumentation import Instrumentation
from repro.obs.sinks import RingBufferSink

#: Format version; bump on breaking schema changes.
OBS_SCHEMA_VERSION = 1


@dataclass
class RankStats:
    """Attempt outcomes of one prioritized-list rank."""

    rank: int
    attempts: int = 0
    successes: int = 0
    timeouts: int = 0
    nacks: int = 0
    predicted: float | None = None

    @property
    def success_rate(self) -> float | None:
        return self.successes / self.attempts if self.attempts else None

    @property
    def label(self) -> str:
        return "source" if self.rank == SOURCE_RANK else f"v{self.rank + 1}"


@dataclass
class ObsReport:
    """Attempt-level breakdown of one instrumented run."""

    protocol: str
    recoveries: int = 0
    attempts_total: int = 0
    attempts_by_status: dict[str, int] = field(default_factory=dict)
    attempts_per_recovery: dict[int, int] = field(default_factory=dict)
    per_rank: list[RankStats] = field(default_factory=list)
    timers: list[tuple[str, int, float]] = field(default_factory=list)
    counters: dict[str, object] = field(default_factory=dict)
    events_recorded: int = 0
    #: Ring-buffer evictions during the run: non-zero means the report
    #: was folded from a truncated window, not the whole run.
    events_dropped: int = 0
    #: Pre-rendered ASCII sparkline block (see
    #: :func:`repro.obs.timeseries.render_sparklines`); empty unless the
    #: run carried a time-series collector.
    sparklines: str = ""

    @property
    def mean_attempts_per_recovery(self) -> float | None:
        total = sum(n * c for n, c in self.attempts_per_recovery.items())
        count = sum(self.attempts_per_recovery.values())
        return total / count if count else None

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": OBS_SCHEMA_VERSION,
            "protocol": self.protocol,
            "recoveries": self.recoveries,
            "attempts_total": self.attempts_total,
            "attempts_by_status": dict(self.attempts_by_status),
            "attempts_per_recovery": {
                str(n): c for n, c in sorted(self.attempts_per_recovery.items())
            },
            "per_rank": [
                {
                    "rank": r.rank,
                    "attempts": r.attempts,
                    "successes": r.successes,
                    "timeouts": r.timeouts,
                    "nacks": r.nacks,
                    "predicted": r.predicted,
                }
                for r in self.per_rank
            ],
            "timers": [
                {"name": name, "count": count, "total_s": total}
                for name, count, total in self.timers
            ],
            "counters": dict(self.counters),
            "events_recorded": self.events_recorded,
            "events_dropped": self.events_dropped,
            "sparklines": self.sparklines,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ObsReport":
        schema = data.get("schema")
        if schema != OBS_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported obs schema {schema!r}; expected {OBS_SCHEMA_VERSION}"
            )
        return cls(
            protocol=data["protocol"],
            recoveries=data["recoveries"],
            attempts_total=data["attempts_total"],
            attempts_by_status=dict(data["attempts_by_status"]),
            attempts_per_recovery={
                int(n): c for n, c in data["attempts_per_recovery"].items()
            },
            per_rank=[RankStats(**raw) for raw in data["per_rank"]],
            timers=[
                (raw["name"], raw["count"], raw["total_s"])
                for raw in data["timers"]
            ],
            counters=dict(data["counters"]),
            events_recorded=data["events_recorded"],
            # Tolerant read: reports saved before the drop counter
            # existed simply never dropped anything they could count.
            events_dropped=data.get("events_dropped", 0),
            # Same for reports saved before sparklines existed.
            sparklines=data.get("sparklines", ""),
        )

    # -- rendering -------------------------------------------------------------

    def render(self, max_timer_rows: int = 8) -> str:
        lines = [f"== {self.protocol} attempt-level breakdown =="]
        mean = self.mean_attempts_per_recovery
        lines.append(
            f"recoveries: {self.recoveries}   attempts: {self.attempts_total}"
            + (f"   mean attempts/recovery: {mean:.2f}" if mean is not None else "")
        )
        if self.events_dropped:
            lines.append(
                f"WARNING: ring buffer dropped {self.events_dropped} events"
                " — this breakdown covers a truncated window"
            )
        if self.attempts_by_status:
            parts = ", ".join(
                f"{status}={count}"
                for status, count in sorted(self.attempts_by_status.items())
            )
            lines.append(f"attempt outcomes: {parts}")
        if self.attempts_per_recovery:
            lines.append("")
            lines.append("attempts per recovery:")
            peak = max(self.attempts_per_recovery.values())
            for n in sorted(self.attempts_per_recovery):
                count = self.attempts_per_recovery[n]
                bar = "#" * max(1, round(40 * count / peak))
                lines.append(f"  {n:3d}  {count:6d}  {bar}")
        if self.per_rank:
            lines.append("")
            lines.append("per-rank success rates (model: 1 - DS_j/DS_j-1):")
            lines.append(
                "  rank    attempts  succeeded  timed_out  "
                "nacked     rate  predicted"
            )
            for r in self.per_rank:
                rate = f"{r.success_rate:9.3f}" if r.success_rate is not None else "        -"
                predicted = f"{r.predicted:9.3f}" if r.predicted is not None else "        -"
                lines.append(
                    f"  {r.label:>6}  {r.attempts:8d}  {r.successes:9d}"
                    f"  {r.timeouts:9d}  {r.nacks:6d}  {rate}  {predicted}"
                )
        membership = {
            name: value
            for name, value in sorted(self.counters.items())
            if name.startswith("member.") or name == "plan.repair"
        }
        if membership:
            lines.append("")
            lines.append("membership and plan repair:")
            parts = ", ".join(
                f"{name}={value}" for name, value in membership.items()
            )
            lines.append(f"  {parts}")
        if self.sparklines:
            lines.append("")
            lines.append("time series (sim-time windows):")
            for row in self.sparklines.splitlines():
                lines.append(f"  {row}")
        if self.timers:
            lines.append("")
            lines.append("top timers (wall clock):")
            for name, count, total in self.timers[:max_timer_rows]:
                lines.append(f"  {name:<24} {count:10d} calls  {total * 1e3:10.2f} ms")
        return "\n".join(lines)


def predicted_rank_success(strategies: dict) -> dict[int, float]:
    """Mean model-predicted success probability per list rank.

    For a client ``u`` with prioritized list ``v_1 … v_k`` the model's
    conditional success probability of the attempt to ``v_j`` — given
    that every earlier attempt failed — is ``1 − DS_j/DS_{j−1}`` with
    ``DS_0 = DS_u`` (Lemma 3; under the single-loss model the loss link
    is uniform on the remaining upstream path).  Averaged over the
    clients whose list reaches that rank; the source rank is certain.
    """
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for _, rank, ratio in list_failure_ratios(strategies.values()):
        sums[rank] = sums.get(rank, 0.0) + (1.0 - ratio)
        counts[rank] = counts.get(rank, 0) + 1
    out = {rank: sums[rank] / counts[rank] for rank in sums}
    out[SOURCE_RANK] = 1.0
    return out


def build_obs_report(
    instr: Instrumentation,
    protocol: str = "",
    strategies: dict | None = None,
) -> ObsReport:
    """Fold an instrumented run's telemetry into an :class:`ObsReport`.

    ``strategies`` (client → ``RecoveryStrategy``, RP only) attaches the
    model's per-rank predictions next to the measured success rates.
    """
    events = instr.ring_events()
    timeseries = getattr(instr, "timeseries", None)
    sparklines = ""
    if timeseries is not None and timeseries.num_windows:
        from repro.obs.timeseries import render_sparklines

        sparklines = render_sparklines(timeseries)
    dropped = sum(
        sink.dropped
        for sink in instr.bus.sinks
        if isinstance(sink, RingBufferSink)
    )
    # Surfaced as a gauge too, so metric scrapes see truncation without
    # holding the report.
    instr.registry.gauge("obs.ring.dropped").set(dropped)
    attempts = [e for e in events if isinstance(e, AttemptEvent)]
    if not protocol and attempts:
        protocol = attempts[0].protocol

    by_status: dict[str, int] = {}
    per_rank: dict[int, RankStats] = {}
    started_per_recovery: dict[tuple[int, int], int] = {}
    succeeded: set[tuple[int, int]] = set()
    for e in attempts:
        by_status[e.status] = by_status.get(e.status, 0) + 1
        stats = per_rank.get(e.rank)
        if stats is None:
            stats = RankStats(rank=e.rank)
            per_rank[e.rank] = stats
        key = (e.client, e.seq)
        if e.status == "started":
            stats.attempts += 1
            started_per_recovery[key] = started_per_recovery.get(key, 0) + 1
        elif e.status == "succeeded":
            stats.successes += 1
            succeeded.add(key)
        elif e.status == "timed_out":
            stats.timeouts += 1
        elif e.status == "nacked":
            stats.nacks += 1

    histogram: dict[int, int] = {}
    for key in succeeded:
        n = started_per_recovery.get(key, 0)
        if n:
            histogram[n] = histogram.get(n, 0) + 1

    predictions = predicted_rank_success(strategies) if strategies else {}
    ranks = []
    # List ranks first (v1, v2, …), the source fallback last.
    for rank in sorted(per_rank, key=lambda r: (r == SOURCE_RANK, r)):
        stats = per_rank[rank]
        stats.predicted = predictions.get(rank)
        ranks.append(stats)

    return ObsReport(
        protocol=protocol,
        recoveries=len(succeeded),
        attempts_total=by_status.get("started", 0),
        attempts_by_status=by_status,
        attempts_per_recovery=histogram,
        per_rank=ranks,
        timers=[
            (stat.name, stat.count, stat.total)
            for stat in instr.profiler.top(32)
        ],
        counters=instr.registry.snapshot(),
        events_recorded=len(events),
        events_dropped=dropped,
        sparklines=sparklines,
    )
