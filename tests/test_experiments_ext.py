"""Smoke tests for the ablation/extension campaigns and the library
studies (tiny scale)."""

from repro.experiments import TINY
from repro.experiments import congestion, mapping_study, starvation

from tests.figures import figure, figure_campaign


def _variants(campaign) -> dict:
    """Variant name -> the config of its first point."""
    configs: dict = {}
    for p in campaign.expand():
        configs.setdefault(dict(p.coords)["variant"], p.config)
    return configs


class TestAblations:
    def test_threshold_policies_list(self):
        policies = _variants(figure_campaign("ablation_thresholds"))
        assert policies["var-0.9"].thresholds == TINY.config("ofar").thresholds  # paper default
        assert policies["var-0.5"].thresholds.relative_factor == 0.5
        static = policies["static-40"].thresholds
        assert (static.th_min, static.relative_factor, static.th_nonmin) == (1.0, None, 0.4)

    def test_run_thresholds(self):
        table = figure("ablation_thresholds", load=[0.2])["table"]
        assert {"variant", "pattern", "load", "throughput", "mis_local"} <= set(table.columns)
        assert len(table.rows) == 5 * 2  # policies x {UN, ADV+h}

    def test_run_allocator_iterations(self):
        table = figure("ablation_iterations", load=[0.3])["table"]
        assert {r["allocator_iterations"] for r in table.rows} == {1, 2, 3, 4}

    def test_run_ring_exits(self):
        table = figure("ablation_ring_exits", load=[0.3])["table"]
        assert {r["max_ring_exits"] for r in table.rows} == {0, 1, 4, 16}
        assert "ring_frac" in table.columns

    def test_run_mechanism_family(self):
        family = _variants(figure_campaign("ablation_family"))
        assert list(family) == ["min", "val", "ugal", "par", "pb", "ofar-l", "ofar"]
        assert [cfg.routing for cfg in family.values()] == list(family)
        assert family["par"].local_vcs == 4 and family["pb"].local_vcs == 3
        table = figure("ablation_family", load=[0.2, 0.3], variant=[
            {"name": "par", "routing": "par", "local_vcs": 4},
            {"name": "ofar", "routing": "ofar"},
        ])["pivot"]
        assert [r["variant"] for r in table.rows] == ["par", "ofar"]
        assert {"0.2_thr", "0.2_lat", "0.3_thr", "0.3_lat"} <= set(table.columns)


class TestCongestion:
    def test_columns(self):
        table = figure("congestion", load=[0.3])["pivot"]
        assert {"variant", "False_thr", "True_thr", "False_ring", "True_ring"} <= set(table.columns)
        assert [r["variant"] for r in table.rows] == ["full-vcs", "reduced-vcs"]

    def test_timeline_columns(self):
        table = congestion.run_timeline(TINY, load=0.5)
        assert {
            "cycle", "none_ring", "none_stalls", "none_backlog",
            "cc_ring", "cc_stalls", "cc_backlog",
        } <= set(table.columns)
        assert len(table.rows) >= 2  # one row per sampling window
        cycles = [r["cycle"] for r in table.rows]
        assert cycles == sorted(cycles)


class TestMapping:
    def test_cases_covered(self):
        table = mapping_study.run(TINY, load=0.3)
        pairs = {(r["routing"], r["mapping"]) for r in table.rows}
        assert ("min", "sequential") in pairs
        assert ("ofar", "random") in pairs


class TestRouterDesign:
    def test_designs_equal_buffering(self):
        for name, scale in (("router_design", "tiny"), ("router_design_paper", "paper")):
            designs = _variants(figure_campaign(name, scale))
            base = designs["classic-3vc"]
            assert len(designs) == 4
            for design, cfg in designs.items():
                for kind in ("local", "global", "injection"):
                    total = getattr(cfg, f"{kind}_vcs") * getattr(cfg, f"{kind}_buffer")
                    assert total == (getattr(base, f"{kind}_vcs")
                                     * getattr(base, f"{kind}_buffer")), (name, design, kind)

    def test_run(self):
        table = figure("router_design", load=[0.2])["table"]
        designs = {r["variant"] for r in table.rows}
        assert designs == {"classic-3vc", "lean-1R", "lean-2R", "lean-3R"}


class TestStarvation:
    def test_run_policy_fields(self):
        row = starvation.run_policy(TINY, "local-first", 0.25)
        assert set(row) == {"policy", "load", "throughput", "jain",
                            "worst_share", "latency"}
        assert 0 <= row["jain"] <= 1

    def test_run_both_policies(self):
        table = starvation.run(TINY, loads=[0.25])
        assert {r["policy"] for r in table.rows} == {"local-first", "global-first"}
