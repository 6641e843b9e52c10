"""Monitors-off equivalence: the observatory is invisible when unused.

The run-health PR's bit-identity contract, in three legs:

* ``recording(timeseries=None)`` (the default) changes nothing against
  a plain recording run — same JSONL telemetry stream, same summary;
* an *armed* collector never perturbs the simulation: the run summary
  matches the uninstrumented one except ``events_processed`` (the
  collector disarms the array dissemination fast path, which coalesces
  per-member deliveries — the same carve-out the fast-dissem
  equivalence suite pins; the collector is the only monitor that
  disarms it, a recording run's profiler does not);
* the health watchdogs are read-only: evaluating them twice over the
  same collectors yields the same report, and evaluating them does not
  change the collectors' counters.
"""

import dataclasses
import json

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import (
    build_scenario,
    run_protocol,
    run_protocol_detailed,
)
from repro.obs import TimeSeriesCollector
from repro.obs.health import evaluate_health
from repro.obs.instrumentation import Instrumentation
from repro.protocols.rp import RPProtocolFactory

CONFIG = ScenarioConfig(
    seed=11, num_routers=30, loss_prob=0.08, num_packets=8,
    lossless_recovery=False,
)


def _strip_events(summary):
    return dataclasses.replace(summary, events_processed=0)


def test_recording_with_timeseries_none_is_byte_identical(tmp_path):
    paths = []
    for label, timeseries in (("a", "default"), ("b", None)):
        built = build_scenario(CONFIG)
        path = tmp_path / f"{label}.jsonl"
        kwargs = {} if timeseries == "default" else {"timeseries": timeseries}
        instr = Instrumentation.recording(jsonl_path=path, **kwargs)
        try:
            run_protocol(built, RPProtocolFactory(), instrumentation=instr)
        finally:
            instr.close()
        paths.append(path)
    a_lines = paths[0].read_text().splitlines()
    b_lines = paths[1].read_text().splitlines()
    assert a_lines == b_lines
    assert a_lines  # non-empty: the stream actually recorded something


def test_summary_json_identical_with_timeseries_none():
    dumps = []
    for kwargs in ({}, {"timeseries": None}):
        built = build_scenario(CONFIG)
        instr = Instrumentation.recording(**kwargs)
        try:
            artifacts = run_protocol_detailed(
                built, RPProtocolFactory(), instrumentation=instr
            )
        finally:
            instr.close()
        dumps.append(
            json.dumps(dataclasses.asdict(artifacts.summary), sort_keys=True)
        )
        assert artifacts.timeseries is None
        # The always-on watchdogs run, but without windows there is no
        # stall check.
        assert "progress.stall" not in artifacts.health.checks_run
    assert dumps[0] == dumps[1]


def test_armed_collector_never_perturbs_the_simulation():
    built = build_scenario(CONFIG)
    baseline = run_protocol(built, RPProtocolFactory())

    instr = Instrumentation.recording(timeseries=TimeSeriesCollector())
    try:
        artifacts = run_protocol_detailed(
            built, RPProtocolFactory(), instrumentation=instr
        )
    finally:
        instr.close()
    assert _strip_events(artifacts.summary) == _strip_events(baseline)
    assert artifacts.timeseries is not None
    assert artifacts.timeseries.finalized
    assert artifacts.health is not None
    assert artifacts.health.ok, [v.render() for v in artifacts.health.violations]


def test_health_evaluation_is_read_only():
    built = build_scenario(CONFIG)
    artifacts = run_protocol_detailed(built, RPProtocolFactory())
    before = (
        artifacts.log.num_detected,
        artifacts.log.num_recovered,
        artifacts.log.num_abandoned,
        dict(artifacts.ledger.hops_by_kind),
    )
    first = evaluate_health(artifacts.log, artifacts.ledger)
    second = evaluate_health(artifacts.log, artifacts.ledger)
    assert first.to_dict() == second.to_dict()
    after = (
        artifacts.log.num_detected,
        artifacts.log.num_recovered,
        artifacts.log.num_abandoned,
        dict(artifacts.ledger.hops_by_kind),
    )
    assert before == after
