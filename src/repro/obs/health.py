"""Invariant watchdogs: is the run healthy, window by window?

The liveness report (:func:`repro.sim.faults.check_liveness`) answers
one question at one instant — "did every detected loss terminate by
drain?".  The watchdogs here build a small battery of invariants on it,
the run's end-of-run collectors and, when armed, its
:class:`~repro.obs.timeseries.TimeSeriesCollector` windows.  The runner
evaluates them after every drain:

* ``progress.stall`` — at least one recovery stayed open across
  ``stall_windows`` consecutive windows in which **no** attempt changed
  state.  A healthy recovery is always either requesting or inside one
  bounded backoff gap; a protocol bug (or a black-holed network with an
  unbounded retry policy) shows up as exactly this silence.
* ``conservation.recovery`` — the recovery log's accounting identity:
  every detected loss is recovered, abandoned, or still unterminated,
  with no double counting.  Tautological for today's ``RecoveryLog``;
  the point is that any future refactor that breaks the bookkeeping
  trips a named alarm instead of silently skewing figures.
* ``conservation.ledger`` — hop/drop counters are non-negative after
  fast-path refunds settle, and no packet kind records more loss-process
  drops than link traversals charged.
* ``membership.tx_drop`` — a departed member transmitted (the director
  had to suppress it).  Must be zero: teardown is supposed to silence
  agents *before* they can send.
* ``quiescence.drain`` — recoveries still neither recovered nor
  abandoned after the drain cutoff (the liveness report's verdict, as
  a named check; only faulted or churned runs also raise on it).

Each failure is a typed :class:`HealthViolation` carrying the offending
sim-time window; :func:`evaluate_health` returns them in a
:class:`HealthReport` the runner attaches to its artifacts, mirrors onto
the event bus as :class:`~repro.obs.events.HealthEvent` records, and the
``repro health`` CLI renders (exit status = number of violations,
capped).  Everything is computed from already-collected state — no RNG,
no extra events — so health evaluation never perturbs a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.collectors import BandwidthLedger, RecoveryLog
from repro.obs.timeseries import TimeSeriesCollector, render_sparklines
from repro.sim.faults import LivenessReport, check_liveness

#: Format version; bump on breaking schema changes.
HEALTH_SCHEMA_VERSION = 1

#: Every watchdog `evaluate_health` knows how to run.
ALL_CHECKS = (
    "progress.stall",
    "conservation.recovery",
    "conservation.ledger",
    "membership.tx_drop",
    "quiescence.drain",
)


@dataclass(frozen=True)
class HealthViolation:
    """One failed invariant, with the window it failed in attached."""

    check: str
    message: str
    #: Sim-time bounds of the offending window; -1/-1 for run-wide
    #: checks that have no single window (drain-time conservation).
    window_start: float = -1.0
    window_end: float = -1.0
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "message": self.message,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HealthViolation":
        return cls(
            check=data["check"],
            message=data["message"],
            window_start=data["window_start"],
            window_end=data["window_end"],
            details=dict(data.get("details", {})),
        )

    def render(self) -> str:
        where = (
            f" [window {self.window_start:g}..{self.window_end:g} ms]"
            if self.window_start >= 0
            else ""
        )
        return f"{self.check}{where}: {self.message}"


@dataclass(frozen=True)
class HealthConfig:
    """Watchdog thresholds.

    ``stall_windows`` is counted in *windows at the collector's current
    width* — after coalescing, the effective stall horizon is
    ``stall_windows x width`` sim-ms, which scales with the run the same
    way the series resolution does.
    """

    stall_windows: int = 8

    def __post_init__(self):
        if self.stall_windows < 1:
            raise ValueError(
                f"stall_windows must be >= 1, got {self.stall_windows}"
            )


@dataclass
class HealthReport:
    """Outcome of one watchdog battery over one run."""

    violations: list[HealthViolation] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)
    windows: int = 0
    window_width: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "schema": HEALTH_SCHEMA_VERSION,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "checks_run": list(self.checks_run),
            "windows": self.windows,
            "window_width": self.window_width,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HealthReport":
        schema = data.get("schema")
        if schema != HEALTH_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported health schema {schema!r};"
                f" expected {HEALTH_SCHEMA_VERSION}"
            )
        return cls(
            violations=[
                HealthViolation.from_dict(raw) for raw in data["violations"]
            ],
            checks_run=list(data["checks_run"]),
            windows=data["windows"],
            window_width=data["window_width"],
        )

    def render(self) -> str:
        lines = ["== run health =="]
        checks = ", ".join(self.checks_run) if self.checks_run else "none"
        lines.append(f"checks: {checks}")
        if self.windows:
            lines.append(
                f"windowed over {self.windows} x {self.window_width:g} ms"
            )
        if self.ok:
            lines.append("OK: no invariant violations")
        else:
            lines.append(f"{len(self.violations)} violation(s):")
            for violation in self.violations:
                lines.append(f"  FAIL {violation.render()}")
        return "\n".join(lines)


def _check_stall(
    timeseries: TimeSeriesCollector, config: HealthConfig
) -> list[HealthViolation]:
    """Maximal runs of silent-but-pending windows >= the threshold."""
    violations: list[HealthViolation] = []
    run_start: int | None = None
    windows = timeseries.windows

    def flush(end_index: int) -> None:
        nonlocal run_start
        if run_start is None:
            return
        length = end_index - run_start
        if length >= config.stall_windows:
            first, last = windows[run_start], windows[end_index - 1]
            open_peak = max(
                w.open_recoveries for w in windows[run_start:end_index]
            )
            violations.append(HealthViolation(
                check="progress.stall",
                message=(
                    f"{open_peak} recovery(ies) pending with no attempt"
                    f" transition for {length} consecutive windows"
                    f" ({first.start:g}..{last.end:g} ms)"
                ),
                window_start=first.start,
                window_end=last.end,
                details={
                    "windows": length,
                    "open_recoveries": open_peak,
                    "threshold": config.stall_windows,
                },
            ))
        run_start = None

    for i, window in enumerate(windows):
        silent = window.attempt_transitions == 0 and window.open_recoveries > 0
        if silent and run_start is None:
            run_start = i
        elif not silent:
            flush(i)
    flush(len(windows))
    return violations


def evaluate_health(
    log: RecoveryLog,
    ledger: BandwidthLedger,
    *,
    liveness: LivenessReport | None = None,
    membership_tx_drops: int | None = None,
    timeseries: TimeSeriesCollector | None = None,
    config: HealthConfig | None = None,
) -> HealthReport:
    """Run every applicable watchdog; purely read-only.

    ``liveness`` is the run's drain-time report (computed from ``log``
    when not given); ``membership_tx_drops`` is the director's
    ``member.tx_drop`` count (``None`` for churn-free runs, which skips
    the check); the stall watchdog runs only when a ``timeseries``
    collector is supplied — the other checks need no windows, so every
    run is health-gated for free.
    """
    config = config if config is not None else HealthConfig()
    if liveness is None:
        liveness = check_liveness(log)
    pending = liveness.violations
    violations: list[HealthViolation] = []
    checks: list[str] = []

    if timeseries is not None:
        checks.append("progress.stall")
        violations.extend(_check_stall(timeseries, config))

    checks.append("conservation.recovery")
    accounted = log.num_recovered + log.num_abandoned + pending
    if log.num_detected != accounted:
        violations.append(HealthViolation(
            check="conservation.recovery",
            message=(
                f"detected {log.num_detected} != recovered"
                f" {log.num_recovered} + abandoned {log.num_abandoned}"
                f" + pending {pending}"
            ),
            details={
                "detected": log.num_detected,
                "recovered": log.num_recovered,
                "abandoned": log.num_abandoned,
                "pending": pending,
            },
        ))

    checks.append("conservation.ledger")
    for kind, hops in sorted(
        ledger.hops_by_kind.items(), key=lambda item: item[0].value
    ):
        drops = ledger.drops_by_kind[kind]
        if hops < 0 or drops < 0 or drops > hops:
            violations.append(HealthViolation(
                check="conservation.ledger",
                message=(
                    f"{kind.value}: {drops} drops vs {hops} hops"
                    " (refunds overdrew, or drops charged without hops)"
                ),
                details={"kind": kind.value, "hops": hops, "drops": drops},
            ))

    if membership_tx_drops is not None:
        checks.append("membership.tx_drop")
        if membership_tx_drops != 0:
            violations.append(HealthViolation(
                check="membership.tx_drop",
                message=(
                    f"{membership_tx_drops} transmission(s) by departed"
                    " members had to be suppressed at the network"
                ),
                details={"tx_drops": membership_tx_drops},
            ))

    checks.append("quiescence.drain")
    if pending:
        sample = list(liveness.unterminated[:5])
        violations.append(HealthViolation(
            check="quiescence.drain",
            message=(
                f"{pending} recovery(ies) neither recovered nor"
                f" abandoned at drain, e.g. {sample}"
            ),
            details={
                "pending": pending,
                "sample": [list(key) for key in sample],
            },
        ))

    return HealthReport(
        violations=violations,
        checks_run=checks,
        windows=timeseries.num_windows if timeseries is not None else 0,
        window_width=timeseries.width if timeseries is not None else 0.0,
    )


def render_health(
    report: HealthReport, timeseries: TimeSeriesCollector | None = None
) -> str:
    """Health verdict plus the sparkline block, the CLI's main view."""
    parts = [report.render()]
    if timeseries is not None and timeseries.num_windows:
        parts.append("")
        parts.append(render_sparklines(timeseries))
    return "\n".join(parts)


__all__ = [
    "ALL_CHECKS",
    "HEALTH_SCHEMA_VERSION",
    "HealthConfig",
    "HealthReport",
    "HealthViolation",
    "evaluate_health",
    "render_health",
]
