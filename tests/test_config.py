"""Unit tests for SimulationConfig and ThresholdConfig."""

import pytest

from repro.engine.config import SimulationConfig, ThresholdConfig


class TestThresholds:
    def test_variable_policy_strict(self):
        th = ThresholdConfig.variable(0.9)
        # Strict comparison: an idle minimal queue admits nothing.
        assert not th.eligible(0.0, q_min=0.0)
        assert th.eligible(0.1, q_min=0.5)
        assert not th.eligible(0.45, q_min=0.5)  # 0.45 == 0.9*0.5, strict
        assert not th.eligible(0.6, q_min=0.5)

    def test_variable_nonmin_threshold(self):
        th = ThresholdConfig.variable(0.75)
        assert th.nonmin_threshold(0.4) == pytest.approx(0.3)

    def test_static_policy_inclusive(self):
        th = ThresholdConfig.static(th_min=1.0, th_nonmin=0.4)
        assert th.eligible(0.4, q_min=1.0)
        assert not th.eligible(0.41, q_min=1.0)
        assert th.nonmin_threshold(0.99) == 0.4
        assert th.th_min == 1.0

    def test_paper_default_is_variable_09(self):
        cfg = SimulationConfig.paper()
        assert cfg.thresholds.relative_factor == 0.9
        assert cfg.thresholds.th_min == 0.0


class TestConfigValidation:
    def test_unknown_routing(self):
        with pytest.raises(ValueError, match="unknown routing"):
            SimulationConfig(routing="magic")

    def test_unknown_escape(self):
        with pytest.raises(ValueError, match="escape"):
            SimulationConfig(escape="wormhole")

    def test_ofar_requires_escape(self):
        with pytest.raises(ValueError, match="escape"):
            SimulationConfig(routing="ofar", escape="none")

    def test_buffer_must_hold_packet(self):
        with pytest.raises(ValueError, match="whole packet"):
            SimulationConfig(local_buffer=4, packet_size=8)

    def test_baselines_need_ordered_vcs(self):
        with pytest.raises(ValueError, match="VCs"):
            SimulationConfig(routing="val", local_vcs=2, escape="none")
        with pytest.raises(ValueError, match="VCs"):
            SimulationConfig(routing="pb", global_vcs=1, escape="none")
        # MIN only needs 2 local / 1 global.
        SimulationConfig(routing="min", local_vcs=2, global_vcs=1, escape="none")

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_allocator_needs_an_iteration(self, iterations):
        """Without one no router ever grants: the point used to run and
        report throughput 0.0 and latency NaN instead of failing."""
        with pytest.raises(ValueError, match="allocator_iterations"):
            SimulationConfig.small(h=2, allocator_iterations=iterations)

    @pytest.mark.parametrize("period", [0, -5])
    def test_pb_update_period_must_be_positive(self, period):
        """PB used to refresh every cycle as if the period were 1."""
        with pytest.raises(ValueError, match="pb_update_period"):
            SimulationConfig.small(h=2, routing="pb", pb_update_period=period)

    def test_pb_update_period_defaults_to_local_latency(self):
        cfg = SimulationConfig.small(h=2, routing="pb")
        assert cfg.pb_update_period is None
        assert cfg.pb_period == cfg.local_latency
        assert SimulationConfig.small(h=2, routing="pb", pb_update_period=1).pb_period == 1

    def test_ofar_allows_reduced_vcs(self):
        """The Fig. 9 configuration must be constructible."""
        cfg = SimulationConfig(
            routing="ofar", escape="embedded", local_vcs=2, global_vcs=1
        )
        assert cfg.local_vcs == 2


class TestPresets:
    def test_paper_preset_matches_methodology(self):
        cfg = SimulationConfig.paper()
        assert cfg.h == 6
        assert cfg.packet_size == 8
        assert (cfg.local_latency, cfg.global_latency) == (10, 100)
        assert (cfg.local_buffer, cfg.global_buffer) == (32, 256)
        assert (cfg.local_vcs, cfg.global_vcs, cfg.injection_vcs) == (3, 2, 3)
        assert cfg.allocator_iterations == 3
        assert cfg.escape == "physical"

    def test_paper_preset_baseline_disables_escape(self):
        assert SimulationConfig.paper(routing="pb").escape == "none"

    def test_small_preset(self):
        cfg = SimulationConfig.small(h=3, routing="min")
        assert cfg.h == 3
        assert cfg.escape == "none"

    def test_with_routing_switches_escape(self):
        base = SimulationConfig.small(h=2, routing="ofar")
        pb = base.with_routing("pb")
        assert pb.escape == "none"
        back = pb.with_routing("ofar")
        assert back.escape == "physical"

    def test_replace(self):
        cfg = SimulationConfig.small(h=2).replace(seed=99)
        assert cfg.seed == 99

    def test_pb_period_defaults_to_local_latency(self):
        cfg = SimulationConfig.small(h=2, routing="pb")
        assert cfg.pb_period == cfg.local_latency
        cfg2 = cfg.replace(pb_update_period=7)
        assert cfg2.pb_period == 7

    def test_frozen(self):
        cfg = SimulationConfig.small(h=2)
        with pytest.raises(Exception):
            cfg.h = 5


class TestSerialization:
    def test_roundtrip(self):
        cfg = SimulationConfig.paper(routing="ofar-l", seed=42)
        back = SimulationConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_roundtrip_static_thresholds(self):
        cfg = SimulationConfig.small(
            h=3, thresholds=ThresholdConfig.static(0.8, 0.3)
        )
        back = SimulationConfig.from_json(cfg.to_json())
        assert back.thresholds == cfg.thresholds

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            SimulationConfig.from_json('{"h": 2, "warp_factor": 9}')

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_json("[1, 2]")

    def test_validation_applies_on_load(self):
        cfg = SimulationConfig.small(h=2, routing="val")
        import json
        data = json.loads(cfg.to_json())
        data["local_vcs"] = 1  # illegal for VAL
        with pytest.raises(ValueError, match="VCs"):
            SimulationConfig.from_json(json.dumps(data))
