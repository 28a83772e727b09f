"""Tests for the declarative campaign layer.

Pins the contracts the layer exists for: ``inherits:`` deep-merge
semantics (missing bases and cycles are hard errors), the deterministic
expansion order (declared axes outermost-first, seeds innermost), the
byte-identity of campaign points with hand-built driver RunSpecs, the
replication/CI aggregation math, and the end-to-end resume story — a
second run of a campaign against the same store is 100% cache hits.
"""

import json
import math
from pathlib import Path

import pytest

from repro.analysis.store import ResultStore
from repro.campaign import (
    CampaignError,
    CampaignSpec,
    deep_merge,
    emit,
    load_campaign,
    load_mapping,
    mean_ci,
    run_campaign,
    t_critical,
    validate_post,
)
from repro.engine.orchestrator import Orchestrator
from repro.experiments.common import TINY

CAMPAIGNS = Path(__file__).resolve().parent.parent / "campaigns"


def mapping(**overrides):
    """A minimal valid steady campaign mapping."""
    data = {
        "name": "t",
        "scale": "tiny",
        "combination": {"routing": ["min"], "pattern": ["UN"], "load": [0.1]},
    }
    data.update(overrides)
    return data


# ----------------------------------------------------------------------
# deep_merge + inherits
# ----------------------------------------------------------------------

class TestDeepMerge:
    def test_nested_override_keeps_siblings(self):
        base = {"config": {"seed": 1, "h": 3}, "name": "base"}
        out = deep_merge(base, {"config": {"seed": 7}})
        assert out == {"config": {"seed": 7, "h": 3}, "name": "base"}

    def test_lists_replace_wholesale(self):
        out = deep_merge({"c": {"routing": ["min", "pb"]}},
                         {"c": {"routing": ["ofar"]}})
        assert out["c"]["routing"] == ["ofar"]

    def test_scalar_replaces_dict(self):
        assert deep_merge({"a": {"x": 1}}, {"a": 2}) == {"a": 2}

    def test_base_not_mutated(self):
        base = {"config": {"seed": 1}}
        deep_merge(base, {"config": {"seed": 9}, "extra": True})
        assert base == {"config": {"seed": 1}}


class TestInheritance:
    def test_single_level_merge(self, tmp_path):
        (tmp_path / "base.json").write_text(json.dumps(
            {"name": "base", "config": {"seed": 1}, "post": ["table"]}
        ))
        (tmp_path / "child.json").write_text(json.dumps(
            {"inherits": "base", "name": "child", "config": {"link_latency_local": 2}}
        ))
        data = load_mapping(tmp_path / "child.json")
        assert data["name"] == "child"
        assert data["config"] == {"seed": 1, "link_latency_local": 2}
        assert data["post"] == ["table"]
        assert "inherits" not in data

    def test_two_level_chain(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({"name": "a", "config": {"seed": 1}}))
        (tmp_path / "b.json").write_text(json.dumps({"inherits": "a", "scale": "tiny"}))
        (tmp_path / "c.json").write_text(json.dumps({"inherits": "b", "name": "c"}))
        data = load_mapping(tmp_path / "c.json")
        assert data == {"name": "c", "config": {"seed": 1}, "scale": "tiny"}

    def test_missing_base_is_campaign_error(self, tmp_path):
        (tmp_path / "child.json").write_text(json.dumps(
            {"inherits": "nonexistent", "name": "child"}
        ))
        with pytest.raises(CampaignError, match="inherited base campaign not found"):
            load_mapping(tmp_path / "child.json")

    def test_missing_file_is_campaign_error(self, tmp_path):
        with pytest.raises(CampaignError, match="campaign file not found"):
            load_mapping(tmp_path / "nope.yaml")

    def test_cycle_is_campaign_error(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({"inherits": "b", "name": "a"}))
        (tmp_path / "b.json").write_text(json.dumps({"inherits": "a", "name": "b"}))
        with pytest.raises(CampaignError, match="inheritance cycle"):
            load_mapping(tmp_path / "a.json")

    def test_self_cycle(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({"inherits": "a"}))
        with pytest.raises(CampaignError, match="inheritance cycle"):
            load_mapping(tmp_path / "a.json")

    def test_invalid_json_is_campaign_error(self, tmp_path):
        (tmp_path / "a.json").write_text("{not json")
        with pytest.raises(CampaignError, match="invalid JSON"):
            load_mapping(tmp_path / "a.json")


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(CampaignError, match="unknown campaign keys"):
            CampaignSpec.from_mapping(mapping(numRuns=3))

    def test_needs_name(self):
        data = mapping()
        del data["name"]
        with pytest.raises(CampaignError, match="needs a 'name'"):
            CampaignSpec.from_mapping(data)

    def test_unknown_kind(self):
        with pytest.raises(CampaignError, match="unknown campaign kind"):
            CampaignSpec.from_mapping(mapping(kind="warp"))

    def test_unknown_scale(self):
        with pytest.raises(CampaignError, match="unknown scale"):
            CampaignSpec.from_mapping(mapping(scale="galactic"))

    def test_unknown_config_override(self):
        with pytest.raises(CampaignError, match="unknown config overrides"):
            CampaignSpec.from_mapping(mapping(config={"warp_factor": 9}))

    def test_needs_combination(self):
        data = mapping()
        del data["combination"]
        with pytest.raises(CampaignError, match="non-empty 'combination'"):
            CampaignSpec.from_mapping(data)

    def test_steady_needs_load_axis(self):
        with pytest.raises(CampaignError, match="'load' axis"):
            CampaignSpec.from_mapping(
                mapping(combination={"routing": ["min"], "pattern": ["UN"]})
            )

    def test_seed_axis_forbidden(self):
        data = mapping()
        data["combination"]["seed"] = [1, 2]
        with pytest.raises(CampaignError, match="'seed' cannot be a combination axis"):
            CampaignSpec.from_mapping(data)

    def test_unknown_axis(self):
        data = mapping()
        data["combination"]["flux"] = [1]
        with pytest.raises(CampaignError, match="unknown combination axis"):
            CampaignSpec.from_mapping(data)

    def test_transition_forbidden_in_steady(self):
        data = mapping()
        data["combination"]["transition"] = [
            {"before": "UN", "after": "ADV+2", "load": 0.1}
        ]
        with pytest.raises(CampaignError, match="transient-campaign axis"):
            CampaignSpec.from_mapping(data)

    def test_transient_transition_shape(self):
        data = mapping(kind="transient")
        data["combination"] = {"routing": ["pb"], "transition": [{"before": "UN"}]}
        with pytest.raises(CampaignError, match="before, after, load"):
            CampaignSpec.from_mapping(data)

    def test_loads_must_be_numbers(self):
        data = mapping()
        data["combination"]["load"] = ["high"]
        with pytest.raises(CampaignError, match="loads must be numbers"):
            CampaignSpec.from_mapping(data)

    def test_load_grid_dict_expands_to_scale_loads(self):
        data = mapping()
        data["combination"]["load"] = {"saturating": 0.4, "points": 5}
        campaign = CampaignSpec.from_mapping(data)
        assert campaign.combination["load"] == TINY.loads(saturating=0.4, points=5)

    def test_load_grid_inline_max_windows(self):
        data = mapping()
        data["combination"]["load"] = {
            "saturating": 0.4, "points": 3, "max_windows": 9,
        }
        campaign = CampaignSpec.from_mapping(data)
        assert campaign.max_windows == 9
        assert all(pt.spec.max_windows == 9 for pt in campaign.expand())

    def test_max_windows_key_propagates_to_specs(self):
        campaign = CampaignSpec.from_mapping(mapping(max_windows=6))
        assert all(pt.spec.max_windows == 6 for pt in campaign.expand())

    def test_max_windows_validation(self):
        with pytest.raises(CampaignError, match="positive int"):
            CampaignSpec.from_mapping(mapping(max_windows=0))
        with pytest.raises(CampaignError, match="steady"):
            data = mapping(kind="transient", max_windows=4)
            data["combination"] = {
                "routing": ["pb"],
                "transition": [{"before": "UN", "after": "ADV+h", "load": 0.2}],
            }
            CampaignSpec.from_mapping(data)

    def test_backend_key_propagates_to_specs(self):
        campaign = CampaignSpec.from_mapping(mapping(backend="array"))
        points = campaign.expand()
        assert all(pt.spec.backend == "array" for pt in points)
        # Backend never forks the store key: same grid on the default
        # backend fingerprints identically.
        default = CampaignSpec.from_mapping(mapping()).expand()
        assert [pt.spec.fingerprint() for pt in points] == [
            pt.spec.fingerprint() for pt in default
        ]

    def test_backend_must_be_registered(self):
        with pytest.raises(CampaignError, match="unknown"):
            CampaignSpec.from_mapping(mapping(backend="cuda"))
        with pytest.raises(CampaignError, match="backend"):
            CampaignSpec.from_mapping(mapping(backend=3))

    def test_seeds_and_replications_exclusive(self):
        with pytest.raises(CampaignError, match="mutually exclusive"):
            CampaignSpec.from_mapping(mapping(seeds=[1, 2], replications=2))

    def test_bad_replications(self):
        with pytest.raises(CampaignError, match="positive int"):
            CampaignSpec.from_mapping(mapping(replications=0))

    def test_duplicate_seeds(self):
        with pytest.raises(CampaignError, match="duplicate seeds"):
            CampaignSpec.from_mapping(mapping(seeds=[3, 3]))

    def test_seeds_must_be_ints(self):
        with pytest.raises(CampaignError, match="list of ints"):
            CampaignSpec.from_mapping(mapping(seeds=[1.5]))

    def test_bad_window_key(self):
        with pytest.raises(CampaignError, match="'windows' keys"):
            CampaignSpec.from_mapping(mapping(windows={"cooldown": 100}))

    def test_unknown_post_emitter_rejected(self):
        campaign = CampaignSpec.from_mapping(mapping(post=["histogram"]))
        with pytest.raises(CampaignError, match="unknown post emitters"):
            validate_post(campaign)

    def test_scalar_axis_values_are_wrapped(self):
        data = mapping()
        data["combination"] = {"routing": "min", "pattern": "UN", "load": 0.1}
        campaign = CampaignSpec.from_mapping(data)
        assert campaign.combination["routing"] == ["min"]
        assert len(campaign.expand()) == 1


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------

class TestExpand:
    def test_golden_ordering(self):
        """Declared axis order outermost-first, seeds innermost."""
        campaign = CampaignSpec.from_mapping(mapping(
            combination={"routing": ["min", "ofar"], "pattern": ["UN"],
                         "load": [0.1, 0.2]},
            replications=2,
        ))
        labels = [p.label() for p in campaign.expand()]
        assert labels == [
            "routing=min pattern=UN load=0.1 seed=1",
            "routing=min pattern=UN load=0.1 seed=2",
            "routing=min pattern=UN load=0.2 seed=1",
            "routing=min pattern=UN load=0.2 seed=2",
            "routing=ofar pattern=UN load=0.1 seed=1",
            "routing=ofar pattern=UN load=0.1 seed=2",
            "routing=ofar pattern=UN load=0.2 seed=1",
            "routing=ofar pattern=UN load=0.2 seed=2",
        ]

    def test_byte_identity_with_driver_specs(self):
        """A campaign point IS the driver's RunSpec: same fingerprint."""
        campaign = CampaignSpec.from_mapping(mapping(
            combination={"routing": ["min", "ofar"], "pattern": ["UN"],
                         "load": [0.1, 0.2]},
        ))
        fps = [p.spec.fingerprint() for p in campaign.expand()]
        direct = [
            TINY.spec(routing, "UN", load).fingerprint()
            for routing in ("min", "ofar") for load in (0.1, 0.2)
        ]
        assert fps == direct

    def test_replication_seeds_derive_from_base(self):
        campaign = CampaignSpec.from_mapping(
            mapping(config={"seed": 10}, replications=3)
        )
        points = campaign.expand()
        assert [p.spec.config.seed for p in points] == [10, 11, 12]
        assert [dict(p.coords)["seed"] for p in points] == [10, 11, 12]
        assert [p.replication for p in points] == [0, 1, 2]

    def test_explicit_seeds(self):
        campaign = CampaignSpec.from_mapping(mapping(seeds=[5, 17]))
        assert [p.spec.config.seed for p in campaign.expand()] == [5, 17]

    def test_adv_h_pattern_resolves_per_point(self):
        data = mapping()
        data["combination"]["pattern"] = ["ADV+h"]
        campaign = CampaignSpec.from_mapping(data)  # tiny scale: h=2
        point = campaign.expand()[0]
        assert point.spec.pattern_spec == "ADV+2"
        assert dict(point.coords)["pattern"] == "ADV+2"

    def test_config_field_as_axis(self):
        data = mapping()
        data["combination"]["pb_threshold"] = [2, 4]
        campaign = CampaignSpec.from_mapping(data)
        points = campaign.expand()
        assert [p.spec.config.pb_threshold for p in points] == [2, 4]

    def test_h_axis_overrides_scale(self):
        data = mapping()
        data["combination"]["h"] = [2, 3]
        campaign = CampaignSpec.from_mapping(data)
        assert [p.spec.config.h for p in campaign.expand()] == [2, 3]

    def test_windows_override(self):
        campaign = CampaignSpec.from_mapping(
            mapping(windows={"warmup": 123, "measure": 456})
        )
        spec = campaign.expand()[0].spec
        assert (spec.warmup, spec.measure) == (123, 456)

    def test_transient_points(self):
        data = mapping(kind="transient", scale="tiny")
        data["combination"] = {
            "transition": [{"before": "UN", "after": "ADV+h", "load": 0.1}],
            "routing": ["pb", "ofar"],
        }
        campaign = CampaignSpec.from_mapping(data)
        points = campaign.expand()
        assert len(points) == 2
        assert points[0].spec is None
        t = points[0].transient
        assert (t.before, t.after, t.load) == ("UN", "ADV+2", 0.1)
        assert t.warmup == TINY.transient_warmup
        assert dict(points[0].coords)["transition"] == "UN->ADV+2@0.1"


# ----------------------------------------------------------------------
# Aggregation math
# ----------------------------------------------------------------------

class TestMeanCI:
    def test_three_values(self):
        m, hw = mean_ci([0.1, 0.2, 0.3])
        assert m == pytest.approx(0.2)
        assert hw == pytest.approx(4.303 * 0.1 / math.sqrt(3), rel=1e-3)

    def test_single_value_has_nan_halfwidth(self):
        m, hw = mean_ci([0.5])
        assert m == 0.5
        assert math.isnan(hw)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_nan_propagates(self):
        m, hw = mean_ci([0.1, float("nan")])
        assert math.isnan(m)

    def test_t_table(self):
        assert t_critical(1) == pytest.approx(12.706)
        assert t_critical(2) == pytest.approx(4.303)
        assert t_critical(100) == pytest.approx(1.960)
        with pytest.raises(ValueError):
            t_critical(0)


# ----------------------------------------------------------------------
# Checked-in campaign files
# ----------------------------------------------------------------------

try:
    import yaml  # noqa: F401
    _HAVE_YAML = True
except ImportError:  # pragma: no cover - PyYAML present in dev envs
    _HAVE_YAML = False

requires_yaml = pytest.mark.skipif(not _HAVE_YAML, reason="PyYAML not installed")


@requires_yaml
class TestCheckedInCampaigns:
    def test_tiny_expands_to_eight_points(self):
        campaign = load_campaign(CAMPAIGNS / "tiny.yaml")
        points = campaign.expand()
        assert len(points) == 8  # 2 routings x 2 loads x 2 seeds (CI pins this)
        assert campaign.scale.name == "tiny"
        validate_post(campaign)

    def test_fig3_grid(self):
        campaign = load_campaign(CAMPAIGNS / "fig3.yaml")
        assert campaign.seeds == (1, 2, 3)
        assert len(campaign.expand()) == 4 * 7 * 3  # routings x loads x seeds
        validate_post(campaign)

    def test_fig4_grid(self):
        campaign = load_campaign(CAMPAIGNS / "fig4.yaml")
        assert len(campaign.expand()) == 4 * 7 * 3
        validate_post(campaign)

    def test_fig6_grid(self):
        campaign = load_campaign(CAMPAIGNS / "fig6.yaml")
        assert campaign.kind == "transient"
        assert len(campaign.expand()) == 3 * 3  # transitions x routings
        validate_post(campaign)

    def test_fig6_variant_differs_only_in_policy(self):
        base = load_campaign(CAMPAIGNS / "fig6.yaml")
        variant = load_campaign(CAMPAIGNS / "fig6_global_first.yaml")
        assert variant.combination == base.combination
        assert variant.config["ofar_transit_misroute"] == "global-first"

    def test_scale_override(self):
        campaign = load_campaign(CAMPAIGNS / "fig3.yaml", scale="tiny")
        assert campaign.scale.name == "tiny"
        # The load grid re-derives from the overridden scale's sweep.
        assert campaign.combination["load"] == TINY.loads(saturating=0.56, points=7)


# ----------------------------------------------------------------------
# End-to-end: run + emit + resume
# ----------------------------------------------------------------------

def _fast_campaign(tmp_path, **overrides):
    data = mapping(
        name="e2e",
        combination={"routing": ["min", "ofar"], "pattern": ["UN"],
                     "load": [0.1]},
        windows={"warmup": 100, "measure": 150},
        replications=2,
        post=["table", "aggregate"],
    )
    data.update(overrides)
    path = tmp_path / "e2e.json"
    path.write_text(json.dumps(data))
    return load_campaign(path)


class TestRunCampaign:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        campaign = _fast_campaign(tmp_path)
        store = ResultStore(tmp_path / "store")
        first = run_campaign(campaign, Orchestrator(workers=0, store=store))
        assert first.counts["done"] == 4
        assert first.counts["cached"] == 0
        second = run_campaign(campaign, Orchestrator(workers=0, store=store))
        assert second.counts["cached"] == 4
        assert second.counts["done"] == 0
        assert second.outcomes == first.outcomes  # bit-identical via cache

    def test_inline_matches_orchestrated(self, tmp_path):
        campaign = _fast_campaign(tmp_path)
        inline = run_campaign(campaign)
        orchestrated = run_campaign(campaign, Orchestrator(workers=0))
        assert inline.outcomes == orchestrated.outcomes

    def test_emitters(self, tmp_path):
        campaign = _fast_campaign(tmp_path)
        run = run_campaign(campaign)
        tables = dict(emit(run))
        assert set(tables) == {"table", "aggregate"}
        assert len(tables["table"].rows) == 4
        assert "seed" in tables["table"].rows[0]  # multi-seed keeps the column
        agg = tables["aggregate"].rows
        assert len(agg) == 2  # one row per grid point, seeds collapsed
        assert all(row["n"] == 2 for row in agg)
        assert all(row["thr_ci"] is not None for row in agg)

    def test_single_seed_table_omits_seed_column(self, tmp_path):
        campaign = _fast_campaign(tmp_path, replications=1,
                                  combination={"routing": ["min"],
                                               "pattern": ["UN"],
                                               "load": [0.1]})
        tables = dict(emit(run_campaign(campaign)))
        assert "seed" not in tables["table"].rows[0]


class TestCampaignCLI:
    @requires_yaml
    def test_validate(self, capsys):
        from repro.cli import main

        main(["campaign", "validate", str(CAMPAIGNS / "fig3.yaml")])
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "points     : 84" in out

    @requires_yaml
    def test_expand(self, capsys):
        from repro.cli import main

        main(["campaign", "expand", str(CAMPAIGNS / "tiny.yaml")])
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 8
        assert "routing=min pattern=UN load=0.1 seed=1" in lines[0]

    def test_run_with_out_dir(self, capsys, tmp_path):
        from repro.cli import main

        _fast_campaign(tmp_path)  # writes e2e.json
        out_dir = tmp_path / "csv"
        main(["campaign", "run", str(tmp_path / "e2e.json"),
              "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert "[campaign e2e] 4 points: 4 run, 0 cached, 0 failed" in out
        assert (out_dir / "e2e_table.csv").exists()
        assert (out_dir / "e2e_aggregate.csv").exists()

    @requires_yaml
    def test_scale_override_flag(self, capsys):
        from repro.cli import main

        main(["campaign", "validate", str(CAMPAIGNS / "fig3.yaml"),
              "--scale", "tiny"])
        assert "tiny" in capsys.readouterr().out

    def test_bad_campaign_exits_cleanly(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad"}))
        with pytest.raises(SystemExit, match="campaign error"):
            main(["campaign", "validate", str(path)])

    def test_validate_refuses_a_zero_iteration_allocator(self, tmp_path):
        """An ``allocator_iterations: 0`` point used to validate, run and
        write a throughput-0 row into the table."""
        from repro.cli import main

        path = tmp_path / "iters.json"
        path.write_text(json.dumps(mapping(combination={
            "routing": ["ofar"], "allocator_iterations": [0, 3],
            "pattern": ["UN"], "load": [0.1]})))
        with pytest.raises(SystemExit, match="bad point config: allocator_iterations"):
            main(["campaign", "validate", str(path)])
