"""The traced run: spans and counts at the simulator's layer boundaries.

:class:`Tracer` wraps public entry points of the ``repro`` modules from
the benchmark's side — it patches attributes for the duration of one
traced pass and restores them afterwards — so the simulator's own code
is untouched.  Each wrapper times the call, counts it and records a
span ``(id, parent, session, name, start, end)`` in memory; the spans
are written out when the benchmark ends.

It deliberately arms neither :class:`repro.obs.Profiler` nor a
:class:`~repro.obs.timeseries.TimeSeriesCollector`: either one disarms
the array dissemination fast path, and the traced pass must run the
same program as the untraced one.  Hot per-packet calls (routing
queries, network sends) are counted, never spanned.

:func:`layer_metrics` turns a traced pass into the per-layer metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads
from repro.core.plan_cache import PlanCache
from repro.core.planner import RPPlanner
from repro.experiments import runner
from repro.net.routing import ExactDistanceBackend, RoutingTable
from repro.protocols.rma import RMAProtocolFactory
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.source import SourceProtocolFactory
from repro.protocols.srm import SRMProtocolFactory
from repro.sim.engine import EventQueue
from repro.sim.network import SimNetwork
from repro.sim.packet import PacketKind

PROTOCOLS = workloads.PROTOCOLS
SEND_KINDS = {
    "send_unicast": "unicast",
    "multicast_subtree": "subtree",
    "flood_tree": "flood",
}
ROUTING_QUERIES = ("delay", "rtt", "path", "next_hop")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: ``(id, parent, session, name, start, end)`` tuples.
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        #: Per session: engine phase -> (seconds, events); "compactions".
        self.engine: dict[str, dict] = defaultdict(dict)
        self.session = "-"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._query_depth = 0
        self._run_calls = 0

    # -- spans -------------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        session = self.session
        # Reserve the slot so children get higher ids than their parent.
        self.spans.append((span_id, parent, session, name, 0.0, 0.0))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, session, name, start, end)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self._call(name, original, args, kwargs)

        self._patch(owner, attr, wrapper)

    # -- patches -------------------------------------------------------------

    def arm(self) -> None:
        """Install every wrapper; :meth:`disarm` restores the originals."""
        tracer = self

        build = workloads.build_scenario

        def traced_build(config):
            tracer.session = f"{config.seed}/setup"
            return tracer._call("net.build", build, (config,), {})

        self._patch(workloads, "build_scenario", traced_build)
        self._spanned(runner, "random_backbone", "net.backbone")
        self._spanned(runner, "random_multicast_tree", "net.tree")

        run_session = workloads.run_protocol_detailed

        def traced_session(built, factory, **kwargs):
            tracer.session = f"{built.config.seed}/{factory.name}"
            tracer._run_calls = 0
            return tracer._call(
                "session", run_session, (built, factory), kwargs
            )

        self._patch(workloads, "run_protocol_detailed", traced_session)
        for factory_cls in (
            RPProtocolFactory, SRMProtocolFactory,
            RMAProtocolFactory, SourceProtocolFactory,
        ):
            self._spanned(factory_cls, "install", "protocols.install")
        self._spanned(PlanCache, "plans_for", "core.plans_for")
        self._spanned(RPPlanner, "plan_all", "core.plan_all")
        self._spanned(workloads, "evaluate_health", "health.check")

        row = ExactDistanceBackend.shortest_path_tree

        def traced_row(backend, source):
            before = backend.cached_rows + backend.evictions
            start = time.perf_counter()
            result = row(backend, source)
            end = time.perf_counter()
            if backend.cached_rows + backend.evictions != before:
                # A miss: one Dijkstra row computed (hits are not spans).
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append((
                    len(tracer.spans), parent, tracer.session,
                    "routing.row", start, end,
                ))
            return result

        self._patch(ExactDistanceBackend, "shortest_path_tree", traced_row)

        for query in ROUTING_QUERIES:
            self._patch(RoutingTable, query, self._counted_query(
                getattr(RoutingTable, query)
            ))
        for method, kind in SEND_KINDS.items():
            self._patch(SimNetwork, method, self._counted(
                getattr(SimNetwork, method), f"network.sends.{kind}"
            ))

        run = EventQueue.run

        def traced_run(queue, *args, **kwargs):
            tracer._run_calls += 1
            phase = "stream" if tracer._run_calls == 1 else "drain"
            before = queue.processed
            start = time.perf_counter()
            try:
                return tracer._call(f"engine.{phase}", run, (queue,) + args, kwargs)
            finally:
                record = tracer.engine[tracer.session]
                seconds, events = record.get(phase, (0.0, 0))
                record[phase] = (
                    seconds + time.perf_counter() - start,
                    events + queue.processed - before,
                )
                record["compactions"] = queue.compactions

        self._patch(EventQueue, "run", traced_run)

    def _counted(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_query(self, fn):
        """Count routing queries; ``rtt`` calls ``delay`` internally, so
        only the outermost call of a nest counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._query_depth == 0:
                tracer.counts["routing.queries"] += 1
            tracer._query_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._query_depth -= 1

        return wrapper

    def disarm(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- readout -------------------------------------------------------------

    # Durations are scaled to reference-speed seconds with the scale of
    # the session a span belongs to (see workloads.calibrate).

    def self_times(self, scales: dict[str, float]) -> dict[str, float]:
        """Self time per span name qualified by its session's protocol
        (``setup`` for the build): duration minus the part covered by
        direct children."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, session, name, start, end in self.spans:
            own = end - start - child_time[span_id]
            totals[f"{name}.{session.split('/')[-1]}"] += own * scales[session]
        return dict(totals)

    def plan_self_s(self, scales: dict[str, float]) -> float:
        """``plans_for`` time minus the routing rows computed inside it."""
        inside = set()
        total = 0.0
        for span_id, parent, session, name, start, end in self.spans:
            if name == "core.plans_for" or parent in inside:
                inside.add(span_id)
            if name == "core.plans_for":
                total += (end - start) * scales[session]
            elif name == "routing.row" and parent in inside:
                total -= (end - start) * scales[session]
        return total

    def total(self, name: str, scales: dict[str, float]) -> float:
        return sum(
            (end - start) * scales[session]
            for _, _, session, n, start, end in self.spans
            if n == name
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, session, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "session": session,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "net.build_s": "s",
        "net.clients": "count",
        "routing.rows": "count",
        "routing.row_s": "s",
        "routing.queries": "count",
        "plan.self_s": "s",
        "plan.clients": "count",
        "plan.cache_hits": "count",
        "plan.cache_misses": "count",
        "repair.events": "count",
        "repair.replans": "count",
        "repair.s": "s",
    }
    for proto in PROTOCOLS:
        units[f"session_s.{proto}"] = "s"
        units[f"engine.events.{proto}"] = "count"
        units[f"engine.stream_s.{proto}"] = "s"
        units[f"engine.drain_s.{proto}"] = "s"
        units[f"engine.events_per_s.{proto}"] = "1/s"
        units[f"engine.compactions.{proto}"] = "count"
    for proto in PROTOCOLS:
        units[f"dissem.fast_armed.{proto}"] = "ratio"
    for kind in SEND_KINDS.values():
        units[f"network.sends.{kind}"] = "count"
    for proto in PROTOCOLS:
        units[f"network.events_per_hop.{proto}"] = "ratio"
    for proto in PROTOCOLS:
        units[f"protocols.install_s.{proto}"] = "s"
        for outcome in ("detected", "recovered", "abandoned"):
            units[f"recovery.{outcome}.{proto}"] = "count"
        for kind in PacketKind:
            units[f"recovery.hops.{kind.value}.{proto}"] = "count"
    units.update({
        "recoveries_per_s": "1/s",
        "faults.injected": "count",
        "member.events": "count",
        "member.tx_drop": "count",
        "liveness.violations": "count",
        "health.check_s": "s",
        "health.violations": "count",
        "trace.overhead": "ratio",
    })
    return units


def session_scales(cells: list[workloads.CellResult]) -> dict[str, float]:
    """Reference-speed scale per tracer session id."""
    scales = {}
    for cell in cells:
        scales[f"{cell.scenario_seed}/setup"] = cell.build_scale
        for s in cell.sessions:
            scales[f"{s.scenario_seed}/{s.protocol}"] = s.scale
    return scales


def layer_metrics(
    tracer: Tracer,
    cells: list[workloads.CellResult],
    untraced_cell_s: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass, totalled over its cells.

    Times are reference-speed seconds, like the end-to-end metrics.
    Protocols the workload does not run read 0.  ``trace.overhead`` is
    the traced pass's cell time over the untraced pass's.
    """
    values: dict[str, float] = dict.fromkeys(layer_metric_units(), 0)
    scales = session_scales(cells)
    sessions = [s for cell in cells for s in cell.sessions]
    values["net.build_s"] = tracer.total("net.build", scales)
    values["net.clients"] = sum(cell.clients for cell in cells)
    values["routing.rows"] = sum(cell.routing_rows for cell in cells)
    values["routing.row_s"] = tracer.total("routing.row", scales)
    values["routing.queries"] = tracer.counts["routing.queries"]
    values["plan.self_s"] = tracer.plan_self_s(scales)
    values["plan.cache_hits"] = sum(cell.plan_hits for cell in cells)
    values["plan.cache_misses"] = sum(cell.plan_misses for cell in cells)
    for kind in SEND_KINDS.values():
        key = f"network.sends.{kind}"
        values[key] = tracer.counts[key]

    hops: Counter[str] = Counter()
    armed: dict[str, list[bool]] = defaultdict(list)
    for s in sessions:
        proto = s.protocol
        engine = tracer.engine.get(f"{s.scenario_seed}/{proto}", {})
        stream_s, stream_events = engine.get("stream", (0.0, 0))
        drain_s, drain_events = engine.get("drain", (0.0, 0))
        values[f"session_s.{proto}"] += s.session_s
        values[f"engine.events.{proto}"] += stream_events + drain_events
        values[f"engine.stream_s.{proto}"] += stream_s * s.scale
        values[f"engine.drain_s.{proto}"] += drain_s * s.scale
        values[f"engine.compactions.{proto}"] += engine.get("compactions", 0)
        values[f"protocols.install_s.{proto}"] += s.install_s
        armed[proto].append(s.fast_armed)
        values["health.check_s"] += s.health_s * s.scale
        values["health.violations"] += s.health_violations
        if not s.completed:
            continue
        stats = s.stats
        for outcome in ("detected", "recovered", "abandoned"):
            values[f"recovery.{outcome}.{proto}"] += stats[outcome]
        for kind, count in stats["hops"].items():
            values[f"recovery.hops.{kind}.{proto}"] += count
            hops[proto] += count
        values["faults.injected"] += sum(stats["faults"].values())
        member = stats["membership"]
        values["member.events"] += (
            member.get("member.leave", 0) + member.get("member.join", 0)
        )
        values["member.tx_drop"] += member.get("member.tx_drop", 0)
        values["liveness.violations"] += stats["liveness_violations"]
        values["plan.clients"] += s.plan_clients
        if s.repair:
            values["repair.events"] += s.repair["events"]
            values["repair.replans"] += s.repair["clients_replanned"]
            values["repair.s"] += s.repair["seconds"]
    for proto in PROTOCOLS:
        busy = values[f"engine.stream_s.{proto}"] + values[f"engine.drain_s.{proto}"]
        events = values[f"engine.events.{proto}"]
        if busy > 0:
            values[f"engine.events_per_s.{proto}"] = events / busy
        if hops[proto]:
            values[f"network.events_per_hop.{proto}"] = events / hops[proto]
        if armed[proto]:
            values[f"dissem.fast_armed.{proto}"] = (
                sum(armed[proto]) / len(armed[proto])
            )
    traced_cell_s = sum(cell.cell_s for cell in cells)
    values["recoveries_per_s"] = (
        sum(cell.recovered for cell in cells) / traced_cell_s
    )
    values["trace.overhead"] = traced_cell_s / untraced_cell_s
    return values
