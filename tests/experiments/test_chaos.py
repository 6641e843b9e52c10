"""Tests for the chaos sweep on its faults and both axes (the churn
axis lives in ``test_churn.py``)."""

import pytest

from repro.experiments.chaos import (
    DEFAULT_INTENSITIES,
    ChaosPoint,
    ChaosRunRecord,
    ChaosSweepResult,
    chaos_horizon,
    hardened_factories,
    hardened_factory,
    run_chaos_sweep,
)
from repro.experiments.config import ScenarioConfig


@pytest.fixture(scope="module")
def small_sweep():
    return run_chaos_sweep(
        seeds=(1,),
        intensities=(0.0, 0.5),
        num_routers=25,
        num_packets=6,
    )


class TestHardenedFactories:
    def test_covers_all_five_protocols(self):
        names = [f.name for f in hardened_factories()]
        assert names == ["RP", "SRM", "RMA", "SOURCE", "NEAREST"]
        assert len(set(names)) == 5

    def test_policies_are_hardened(self):
        for factory in hardened_factories():
            if factory.name == "SRM":
                assert factory.config.max_request_rounds > 0
            else:
                assert not factory.config.recovery_policy.is_default

    def test_single_factory_covers_every_cli_protocol(self):
        from repro.cli import PROTOCOLS

        for name in PROTOCOLS:
            factory = hardened_factory(name)
            assert factory.name == PROTOCOLS[name]().name
            if name != "srm":
                assert not factory.config.recovery_policy.is_default


class TestRunChaosSweep:
    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            run_chaos_sweep(seeds=())
        with pytest.raises(ValueError):
            run_chaos_sweep(intensities=())
        with pytest.raises(ValueError):
            run_chaos_sweep(axis="weather")

    def test_axis_defaults_to_its_own_grid(self):
        assert DEFAULT_INTENSITIES["faults"] == (0.0, 0.3, 0.6)
        assert DEFAULT_INTENSITIES["churn"] == (0.0, 0.4, 0.8)

    def test_structure_and_zero_violations(self, small_sweep):
        assert small_sweep.intensities == [0.0, 0.5]
        assert small_sweep.axis == "faults"
        assert small_sweep.protocols == ["RP", "SRM", "RMA", "SOURCE", "NEAREST"]
        for point in small_sweep.points:
            # one record per protocol x seed
            assert len(point.records) == 5
            # the faults axis never churns
            assert all(r.member_counts is None for r in point.records)
        # The acceptance gate: no recovery anywhere was left hanging.
        assert small_sweep.total_violations == 0
        assert small_sweep.total_health_violations == 0
        assert small_sweep.gates_pass

    def test_zero_intensity_point_is_fault_free(self, small_sweep):
        baseline = small_sweep.points[0]
        assert baseline.intensity == 0.0
        for record in baseline.records:
            assert record.fault_counts == {}
            assert record.losses_abandoned == 0
            assert record.losses_detected == record.losses_recovered

    def test_faulted_point_injects_faults(self, small_sweep):
        faulted = small_sweep.points[1]
        assert any(record.total_faults > 0 for record in faulted.records)

    def test_point_aggregates(self, small_sweep):
        point = small_sweep.points[0]
        for protocol in small_sweep.protocols:
            assert point.abandonment_rate(protocol) == 0.0
            assert point.violations(protocol) == 0

    def test_render_mentions_every_protocol(self, small_sweep):
        text = small_sweep.render()
        for protocol in small_sweep.protocols:
            assert protocol in text
        assert "liveness violations: 0" in text
        assert "axis=faults" in text
        assert "INVARIANT BROKEN" not in text

    def test_deterministic(self, small_sweep):
        again = run_chaos_sweep(
            seeds=(1,),
            intensities=(0.0, 0.5),
            num_routers=25,
            num_packets=6,
        )
        assert again.to_dict() == small_sweep.to_dict()


class TestSerialization:
    def test_round_trip(self, small_sweep, tmp_path):
        path = tmp_path / "chaos.json"
        small_sweep.save(path)
        loaded = ChaosSweepResult.load(path)
        assert loaded.to_dict() == small_sweep.to_dict()
        assert loaded.points[1].mean_latency(
            "RP"
        ) == small_sweep.points[1].mean_latency("RP")

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            ChaosSweepResult.from_dict({"kind": "sweep"})
        with pytest.raises(ValueError):
            ChaosSweepResult.from_dict({"kind": "churn-sweep"})

    def test_document_without_axis_loads_as_faults(self, small_sweep):
        data = small_sweep.to_dict()
        del data["axis"]
        assert ChaosSweepResult.from_dict(data).axis == "faults"

    def test_record_round_trips_none_latency(self):
        record = ChaosRunRecord(
            protocol="RP", seed=1, intensity=0.5,
            losses_detected=3, losses_recovered=2, losses_abandoned=1,
            avg_latency=None, recovery_hops=7, fault_counts={"burst.drop": 2},
            liveness_violations=0, sim_time=100.0,
        )
        result = ChaosSweepResult(
            seeds=[1], num_routers=10, num_packets=5, loss_prob=0.05,
            protocols=["RP"],
            points=[ChaosPoint(intensity=0.5, records=[record])],
        )
        restored = ChaosSweepResult.from_dict(result.to_dict())
        assert restored.points[0].records[0] == record


def test_chaos_horizon_covers_stream_and_session():
    config = ScenarioConfig(seed=1, num_routers=10, loss_prob=0.05,
                            num_packets=20)
    horizon = chaos_horizon(config)
    assert horizon == 20 * 10.0 + 2 * 100.0
    assert horizon < config.num_packets * config.data_interval + \
        config.drain_time + 2 * config.session_interval


@pytest.fixture(scope="module")
def both_sweep():
    return run_chaos_sweep(
        seeds=(1,),
        intensities=(0.0, 0.5),
        num_routers=25,
        num_packets=6,
        axis="both",
    )


class TestBothAxis:
    def test_perturbed_cells_fault_and_churn(self, both_sweep):
        assert both_sweep.axis == "both"
        baseline, perturbed = both_sweep.points
        for record in baseline.records:
            assert record.fault_counts == {} and record.member_counts == {}
        for record in perturbed.records:
            assert record.total_faults > 0
            assert record.leaves > 0

    def test_all_four_gates_pass(self, both_sweep):
        assert both_sweep.total_violations == 0
        assert both_sweep.total_tx_drops == 0
        assert both_sweep.max_quality_gap <= 0.01
        assert both_sweep.total_health_violations == 0
        assert both_sweep.gates_pass

    def test_render_and_round_trip(self, both_sweep):
        text = both_sweep.render()
        assert "axis=both" in text and "INVARIANT BROKEN" not in text
        restored = ChaosSweepResult.from_dict(both_sweep.to_dict())
        assert restored.to_dict() == both_sweep.to_dict()
