"""The repository benchmark: campaign cells of the multicast-recovery simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lossless_ref --seed 1 --seconds 20 --trace 0

One run derives the workload's scenarios from ``--seed`` and runs a cell
on each; then, while ``--seconds`` lasts (and at least once), it repeats
the scenarios in turn.  Every cell starts on cold caches: the plan cache
is cleared and the scenario — with its routing table — is built afresh.

``--trace 0`` reports the end-to-end metrics (:func:`end_to_end`).
``--trace 1`` runs one untraced and one traced pass over the first
``TRACE_SCENARIOS`` scenarios (:mod:`layers`), checks that they agree,
and reports the per-layer metrics of the traced pass; its spans are
written to ``perfbench/out/``.

Every session is checked (see :func:`workloads.check_session`), every
repeat must reproduce its scenario's first run exactly, and the last line
of standard output is one JSON object: ``correct``, ``attempted``
(sessions run), ``failed`` (sessions that raised or failed a check) and
``metrics``.  Without the simulator's source tree (``src/repro``) the
benchmark exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Switches that select between the simulator's parallel implementations.
#: Each run records and clears them, so a stray variable cannot silently
#: measure a different program.
PINNED_ENV = (
    "REPRO_FAST_DISSEM",
    "REPRO_PLAN_CACHE",
    "REPRO_BATCH_PLANNER",
    "REPRO_ROUTING_BACKEND",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "cell_s": "s",
    "peak_rss_mb": "MB",
}

#: Stop repeating early enough that a run always ends well inside 180 s.
HARD_LIMIT_S = 120.0

#: A traced run makes its untraced and traced passes over this many of
#: the workload's scenarios.
TRACE_SCENARIOS = 3


def pin_environment() -> dict[str, str | None]:
    """Record and clear the implementation switches (before any import
    of ``repro``: the plan cache reads its switch at import time)."""
    return {name: os.environ.pop(name, None) for name in PINNED_ENV}


def import_simulator() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: simulator source not found at {src}/repro")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def best_of(reps) -> tuple[float, float]:
    """A scenario's ``(setup_s, cell_s)`` from its repetitions.

    Each component — the build, and every session's install and whole
    run — takes its fastest repetition, as ``timeit`` does: the host's
    slow phases only ever add time, and the repetitions compute exactly
    the same thing (their digests are checked).
    """
    build = min(c.build_s for c in reps)
    installs = [min(col) for col in zip(*(
        [s.install_s for s in c.sessions] for c in reps
    ))]
    totals = [min(col) for col in zip(*(
        [s.total_s for s in c.sessions] for c in reps
    ))]
    return build + sum(installs), build + sum(totals)


def end_to_end(repeats: list[list]) -> dict[str, float]:
    """End-to-end values of a run from each scenario's repetitions.

    ``setup_s`` is the median over scenarios of each one's best setup
    and ``cell_s`` the mean of each one's best cell time.
    """
    best = [best_of(reps) for reps in repeats]
    return {
        "setup_s": statistics.median(setup_s for setup_s, _ in best),
        "cell_s": statistics.fmean(cell_s for _, cell_s in best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_cells(label: str, cells) -> None:
    for cell in cells:
        print(
            f"{label} scenario {cell.scenario_seed}: "
            f"clients={cell.clients} setup_s={cell.setup_s:.4f} "
            f"cell_s={cell.cell_s:.4f} wall_s={cell.wall_cell_s:.4f} "
            f"digest={cell.digest()}"
        )
        for s in cell.sessions:
            stats = s.stats
            verdict = "OK" if s.ok else "FAIL: " + "; ".join(s.problems)
            latency = stats.get("avg_latency")
            print(
                f"  {s.protocol:<6} {verdict}  events={s.events} "
                f"fast_dissem={int(s.fast_armed)} scale={s.scale:.3f} "
                f"install_s={s.install_s:.4f} session_s={s.session_s:.4f} "
                f"detected={stats.get('detected')} "
                f"recovered={stats.get('recovered')} "
                f"abandoned={stats.get('abandoned')} "
                f"avg_latency_ms="
                f"{'n/a' if latency is None else format(latency, '.4f')} "
                f"bw_per_recovery={stats.get('bandwidth_per_recovery', 0):.4f} "
                f"digest={s.digest}"
            )


def compare_cells(reference, other, label: str) -> None:
    """Fail every session of ``other`` whose digest, event count or
    fast-path armedness differs from its counterpart in ``reference``
    (same scenarios in the same order)."""
    for ref_cell, cell in zip(reference, other):
        for ref, s in zip(ref_cell.sessions, cell.sessions):
            for what in ("digest", "events", "fast_armed"):
                if getattr(ref, what) != getattr(s, what):
                    s.problems.append(
                        f"{what} {getattr(s, what)} != {getattr(ref, what)}"
                        f" ({label})"
                    )


def engine_integrity(tracer, cells) -> list[str]:
    """The engine wrapper's per-session event counts must add up to the
    summaries' ``events_processed``, per session and per pass."""
    problems = []
    traced_total = summary_total = 0
    for cell in cells:
        for s in cell.sessions:
            record = tracer.engine.get(f"{s.scenario_seed}/{s.protocol}", {})
            counted = sum(record.get(p, (0.0, 0))[1] for p in ("stream", "drain"))
            traced_total += counted
            summary_total += s.events
            if s.completed and counted != s.events:
                s.problems.append(
                    f"engine counted {counted} events, summary says {s.events}"
                )
    if traced_total != summary_total:
        problems.append(
            f"engine.events total {traced_total} != events_processed "
            f"total {summary_total}"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    pinned = pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_simulator()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload]
    seeds = workload.scenario_seeds(args.seed)
    print(f"workload {workload.name}: {workload.why}")
    print("config " + json.dumps(workload.describe(), sort_keys=True))
    print(f"scenario seeds {seeds}")
    print("pinned environment (recorded, then cleared) " + json.dumps(pinned))

    if args.trace:
        seeds = seeds[:TRACE_SCENARIOS]

    def run_pass():
        return [workloads.run_cell(workload, seed) for seed in seeds]

    problems: list[str] = []
    started = time.perf_counter()
    first = run_pass()
    print_cells("pass 1", first)
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.arm()
        try:
            traced = run_pass()
        finally:
            tracer.disarm()
        compare_cells(first, traced, "traced vs untraced")
        problems += engine_integrity(tracer, traced)
        print_cells("traced", traced)
        untraced_s = sum(c.cell_s for c in first)
        metrics = layers.layer_metrics(tracer, traced, untraced_s)
        units = layers.layer_metric_units()
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path}")
        print("largest self times (s):")
        self_times = tracer.self_times(layers.session_scales(traced))
        top = sorted(self_times.items(), key=lambda kv: -kv[1])[:8]
        for name, seconds in top:
            print(f"  {name:<32} {seconds:.4f}")
        all_cells = first + traced
    else:
        # Repeat the scenarios in turn while time remains, at least
        # once: a repeat must reproduce the first run exactly.
        repeats = [[cell] for cell in first]
        per_cell = (time.perf_counter() - started) / len(first)
        for index in itertools.count():
            elapsed = time.perf_counter() - started
            if index and elapsed + per_cell > min(args.seconds, HARD_LIMIT_S):
                break
            reps = repeats[index % len(repeats)]
            cell = workloads.run_cell(workload, reps[0].scenario_seed)
            compare_cells([reps[0]], [cell], "repeat vs first run")
            print_cells(f"repeat {index + 1}", [cell])
            reps.append(cell)
        metrics = end_to_end(repeats)
        units = END_TO_END_UNITS
        all_cells = [cell for reps in repeats for cell in reps]

    sessions = [s for cell in all_cells for s in cell.sessions]
    failed = sum(1 for s in sessions if not s.ok)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = failed == 0 and not problems
    print(
        f"sessions attempted={len(sessions)} failed={failed} "
        f"verdict={'PASS' if correct else 'FAIL'}"
    )
    print("metrics:")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(sessions),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
