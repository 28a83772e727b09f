"""Smoke tests for the ablation/extension campaigns (tiny scale)."""

from repro.campaign import TINY
from repro.cli import main
from repro.telemetry import read_jsonl

from tests.figures import CAMPAIGNS, figure, figure_campaign


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

    def test_timeline_columns(self, tmp_path):
        """The collapse over time: ``--telemetry`` writes each point's
        per-window ring occupancy, bubble stalls and injection backlog."""
        store = tmp_path / "store"
        main(["campaign", "run", str(CAMPAIGNS / "congestion.yaml"), "--scale", "tiny",
              "--telemetry", "50", "--store", str(store)])
        for point in figure_campaign("congestion").expand():
            fp = point.spec.fingerprint()
            series = read_jsonl(store / "telemetry" / fp[:2] / f"{fp}.jsonl")
            assert len(series.samples) >= 2  # one sample per window
            cycles = [s.cycle for s in series.samples]
            assert cycles == sorted(cycles)
            for s in series.samples:
                assert min(s.ring_packets, s.bubble_stalls, s.injection_backlog) >= 0


class TestMapping:
    def test_cases_covered(self):
        table = figure("mapping", load=[0.3])["table"]
        pairs = {(r["routing"], r["pattern"]) for r in table.rows}
        assert ("min", "STENCIL:sequential") in pairs
        assert ("ofar", "STENCIL:random") in pairs


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
        row, = figure("starvation", load=[0.25],
                      ofar_transit_misroute=["local-first"])["table"].rows
        assert {"ofar_transit_misroute", "load", "throughput", "jain",
                "worst_src", "latency"} <= set(row)
        assert 0 <= row["jain"] <= 1

    def test_run_both_policies(self):
        table = figure("starvation", load=[0.25])["table"]
        assert {r["ofar_transit_misroute"] for r in table.rows} == {
            "local-first", "global-first"}
