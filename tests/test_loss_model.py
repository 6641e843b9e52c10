"""The loss realization against the paper's loss model.

Bit-identity suites compare the simulator with itself; these tests
compare it with the model it implements, so a change to *how* losses
are drawn (not whether the model holds) is checked statistically:

* ``baselines/loss_model_reference.json`` records, per protocol and
  recovery-loss mode, the across-seed mean and standard error of
  ``avg_latency``, ``bandwidth_per_recovery`` and the detected loss
  fraction ``losses_detected / (clients * packets)`` on a small fixed
  scenario family.  The current generator's means must sit within
  three standard errors of the difference (both sides' standard errors
  combined) of the recorded ones.
* Each client's observed DATA loss rate must match the independent
  per-link model, ``1 - (1 - p) ** depth``, within a binomial bound.

Regenerate the reference (only when the loss *model* changes, never to
absorb a new realization) with::

    PYTHONPATH=src python tests/test_loss_model.py --write
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import numpy as np
import pytest
from scipy.stats import binomtest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol
from repro.protocols.rma import RMAProtocolFactory
from repro.protocols.rp import RPProtocolFactory
from repro.protocols.source import SourceProtocolFactory
from repro.protocols.srm import SRMProtocolFactory
from repro.sim.engine import EventQueue
from repro.sim.network import SimNetwork
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngStreams

REFERENCE_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "baselines" / "loss_model_reference.json"
)

FACTORIES = {
    "RP": RPProtocolFactory,
    "SRM": SRMProtocolFactory,
    "RMA": RMAProtocolFactory,
    "SOURCE": SourceProtocolFactory,
}
MODES = {"lossless": True, "lossy": False}
METRICS = ("avg_latency", "bandwidth_per_recovery", "loss_fraction")

#: The scenario family: small enough for tier-1, wide enough (seeds)
#: for the across-seed standard errors to mean something.
SEEDS = tuple(range(1, 25))
SCENARIO = dict(num_routers=50, loss_prob=0.05, num_packets=10)


def run_family() -> dict[str, dict[str, list[float]]]:
    """Per-seed metric values, keyed ``"<protocol>/<mode>"``."""
    values: dict[str, dict[str, list[float]]] = {
        f"{p}/{m}": {k: [] for k in METRICS} for p in FACTORIES for m in MODES
    }
    for seed in SEEDS:
        for mode, lossless in MODES.items():
            built = build_scenario(ScenarioConfig(
                seed=seed, lossless_recovery=lossless, **SCENARIO
            ))
            for name, factory in FACTORIES.items():
                summary = run_protocol(built, factory())
                cell = values[f"{name}/{mode}"]
                receptions = summary.num_clients * summary.num_packets
                cell["loss_fraction"].append(
                    summary.losses_detected / receptions
                )
                if summary.avg_latency is not None:
                    cell["avg_latency"].append(summary.avg_latency)
                    cell["bandwidth_per_recovery"].append(
                        summary.bandwidth_per_recovery
                    )
    return values


def mean_se(xs: list[float]) -> tuple[int, float, float]:
    a = np.asarray(xs, dtype=np.float64)
    return int(a.size), float(a.mean()), float(a.std(ddof=1) / math.sqrt(a.size))


def summarize(values) -> dict:
    return {
        cell: {
            metric: dict(zip(("n", "mean", "se"), mean_se(xs)))
            for metric, xs in metrics.items()
        }
        for cell, metrics in values.items()
    }


@pytest.fixture(scope="module")
def current():
    return summarize(run_family())


def test_reference_matches_the_scenario_family():
    reference = json.loads(REFERENCE_PATH.read_text())
    assert reference["seeds"] == list(SEEDS)
    assert reference["scenario"] == SCENARIO


@pytest.mark.parametrize("cell", [f"{p}/{m}" for p in FACTORIES for m in MODES])
def test_means_agree_with_reference(current, cell):
    reference = json.loads(REFERENCE_PATH.read_text())["cells"][cell]
    for metric in METRICS:
        ref, now = reference[metric], current[cell][metric]
        bound = 3.0 * math.hypot(ref["se"], now["se"])
        assert abs(now["mean"] - ref["mean"]) <= bound, (
            f"{cell} {metric}: mean {now['mean']:.4f} vs reference "
            f"{ref['mean']:.4f} (bound ±{bound:.4f})"
        )


class _Counter:
    def __init__(self):
        self.received = 0

    def on_packet(self, packet: Packet) -> None:
        if packet.kind is PacketKind.DATA:
            self.received += 1


@pytest.mark.parametrize("armed", [True, False], ids=["array", "per-hop"])
def test_client_data_loss_matches_independent_link_model(armed):
    """A client at tree depth ``d`` loses a DATA packet with probability
    ``1 - (1 - p) ** d`` (every link drops independently with ``p``)."""
    p, packets = 0.05, 400
    built = build_scenario(ScenarioConfig(
        seed=3, num_routers=100, loss_prob=p, num_packets=packets,
    ))
    streams = RngStreams(3)
    events = EventQueue()
    net = SimNetwork(
        events, built.topology, built.routing, built.tree,
        loss_rng=streams.get("loss:model"),
        data_loss_rng=streams.get("loss:data"),
    )
    counters = {c: _Counter() for c in built.clients}
    for client, counter in counters.items():
        net.attach_agent(client, counter)
    if armed:
        assert net.enable_fast_dissem()
    root = built.tree.root
    for seq in range(packets):
        events.schedule_at(
            10.0 * seq,
            lambda seq=seq: net.multicast_subtree(
                root, root, Packet(PacketKind.DATA, seq, origin=root)
            ),
        )
    events.run()
    net.finalize_fast_dissem(events.now)
    alpha = 1e-3 / len(counters)  # family-wise, Bonferroni
    for client, counter in counters.items():
        q = 1.0 - (1.0 - p) ** built.tree.depth(client)
        lost = packets - counter.received
        assert binomtest(lost, packets, q).pvalue > alpha, (
            f"client {client} (depth {built.tree.depth(client)}) lost "
            f"{lost}/{packets}, model {q:.3f}"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_loss_model.py --write")
    document = {
        "scenario": SCENARIO,
        "seeds": list(SEEDS),
        "metrics": list(METRICS),
        "cells": summarize(run_family()),
    }
    REFERENCE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
