"""Tests for the chaos sweep's churn axis (membership churn vs hardened
recovery)."""

import json

import pytest

from repro.experiments.chaos import (
    ChaosPoint,
    ChaosRunRecord,
    ChaosSweepResult,
    hardened_factory,
    run_chaos_sweep,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario, run_protocol_detailed


def run_churn_sweep(**kwargs):
    return run_chaos_sweep(axis="churn", **kwargs)


@pytest.fixture(scope="module")
def small_sweep():
    return run_churn_sweep(
        seeds=(1,),
        intensities=(0.0, 0.6),
        num_routers=25,
        num_packets=6,
    )


class TestRunChurnSweep:
    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            run_churn_sweep(seeds=())
        with pytest.raises(ValueError):
            run_churn_sweep(intensities=())

    def test_structure_and_gates(self, small_sweep):
        assert small_sweep.intensities == [0.0, 0.6]
        assert small_sweep.axis == "churn"
        assert small_sweep.protocols == ["RP", "SRM", "RMA", "SOURCE", "NEAREST"]
        for point in small_sweep.points:
            # one record per protocol x seed
            assert len(point.records) == 5
            # the churn axis injects no faults
            assert all(r.fault_counts is None for r in point.records)
        assert small_sweep.total_violations == 0
        assert small_sweep.total_tx_drops == 0
        assert small_sweep.gates_pass

    def test_zero_intensity_point_is_churn_free(self, small_sweep):
        baseline = small_sweep.points[0]
        assert baseline.intensity == 0.0
        for record in baseline.records:
            assert record.member_counts == {}
            assert record.leaves == 0 and record.joins == 0
            if record.protocol != "RP":
                assert record.repair_events == 0
                assert record.repair_quality_gap is None
        # RP's repairer also handles failure-detector deaths, which plain
        # loss can cause without any churn: rerun the cell and check
        # that every repair it recorded was a death.
        (rp,) = [r for r in baseline.records if r.protocol == "RP"]
        factory = hardened_factory("rp")
        run_protocol_detailed(
            build_scenario(ScenarioConfig(
                seed=1, num_routers=25, loss_prob=0.05, num_packets=6,
                lossless_recovery=False,
            )),
            factory,
        )
        history = (
            factory.last_repairer.history
            if factory.last_repairer is not None else []
        )
        assert {h["kind"] for h in history} <= {"death"}
        assert rp.repair_events == len(history)
        assert rp.repair_quality_gap == (0.0 if history else None)

    def test_churned_point_churns(self, small_sweep):
        churned = small_sweep.points[1]
        assert any(record.leaves > 0 for record in churned.records)
        # Every protocol faces the identical schedule per seed.
        by_seed = {}
        for record in churned.records:
            key = (record.seed, record.leaves, record.joins)
            by_seed.setdefault(record.seed, set()).add(key)
        assert all(len(keys) == 1 for keys in by_seed.values())

    def test_rp_repairs_incrementally(self, small_sweep):
        churned = small_sweep.points[1]
        rp = [r for r in churned.records if r.protocol == "RP"]
        assert rp and all(r.repair_events > 0 for r in rp)
        for record in rp:
            assert record.repair_quality_gap is not None
            assert record.repair_quality_gap <= 0.01
            # Sublinearity smell at small scale: a compound event never
            # re-plans the whole group.
            assert 0.0 < record.repair_fraction < 1.0

    def test_render_mentions_every_protocol(self, small_sweep):
        text = small_sweep.render()
        for protocol in small_sweep.protocols:
            assert protocol in text
        assert "INVARIANT BROKEN" not in text
        assert "liveness violations: 0" in text

    def test_deterministic(self, small_sweep):
        again = run_churn_sweep(
            seeds=(1,),
            intensities=(0.0, 0.6),
            num_routers=25,
            num_packets=6,
        )
        assert again.to_dict() == small_sweep.to_dict()


class TestSerialization:
    def test_round_trip(self, small_sweep, tmp_path):
        path = tmp_path / "churn.json"
        small_sweep.save(path)
        loaded = ChaosSweepResult.load(path)
        assert loaded.to_dict() == small_sweep.to_dict()
        assert loaded.points[1].mean_latency(
            "RP"
        ) == small_sweep.points[1].mean_latency("RP")

    def test_saved_artifact_excludes_wall_clock(self, small_sweep, tmp_path):
        # repair_seconds is the one nondeterministic field; the saved
        # sweep must stay byte-identical across identical runs (the CI
        # churn smoke cmp's two of them).
        path = tmp_path / "churn.json"
        small_sweep.save(path)
        assert "repair_seconds" not in json.loads(path.read_text())["points"][1][
            "records"
        ][0]

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            ChaosSweepResult.from_dict({"kind": "sweep"})

    def test_record_round_trips_none_latency(self):
        record = ChaosRunRecord(
            protocol="RP", seed=1, intensity=0.6,
            losses_detected=3, losses_recovered=2, losses_abandoned=1,
            avg_latency=None,
            member_counts={"member.leave": 2, "member.join": 1},
            liveness_violations=0, sim_time=100.0,
            repair_events=3, repair_replans=4, repair_fraction=0.1,
            repair_quality_gap=0.0,
        )
        result = ChaosSweepResult(
            seeds=[1], num_routers=10, num_packets=5, loss_prob=0.05,
            protocols=["RP"],
            points=[ChaosPoint(intensity=0.6, records=[record])],
            axis="churn",
        )
        restored = ChaosSweepResult.from_dict(result.to_dict())
        assert restored.points[0].records[0] == record

