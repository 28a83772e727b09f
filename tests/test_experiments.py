"""Smoke tests for the per-figure campaigns (tiny scale).

Every figure is ``campaigns/<fig>.yaml``; these run each one through
``run_campaign`` + its ``post:`` emitters with the grid cut down, and
pin the table shapes the benchmarks assert on.
"""

import pytest

from repro.experiments import TINY, get_scale
from repro.telemetry import TelemetryConfig
from repro.engine.runner import run_transient

from tests.figures import figure, figure_campaign


def _axis(campaign, axis):
    """Distinct coordinate values of one axis, in expansion order."""
    return list(dict.fromkeys(dict(p.coords)[axis] for p in campaign.expand()))


class TestScales:
    def test_get_scale(self):
        assert get_scale("tiny").h == 2
        assert get_scale("paper").h == 6
        assert get_scale("paper").paper_params

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_scale("galactic")

    def test_loads_reach_past_saturation(self):
        loads = TINY.loads(saturating=0.5, points=5)
        assert loads[-1] > 0.5
        assert all(b > a for a, b in zip(loads, loads[1:]))

    def test_config_factory(self):
        cfg = TINY.config("ofar")
        assert cfg.h == 2
        assert cfg.routing == "ofar"


class TestFig2:
    def test_table_columns(self):
        table = figure("fig2", pattern=["ADV+1", "ADV+2"], load=[0.4])["offsets"]
        assert len(table.rows) == 2
        assert {"offset", "worst_case", "concentration", "l2_bound", "predicted",
                "throughput"} <= set(table.columns)
        assert table.rows[1]["worst_case"] == "*"  # offset 2 = h at h=2
        assert all(row["predicted"] <= 0.4 for row in table.rows)  # capped at load

    def test_default_offsets(self):
        assert _axis(figure_campaign("fig2", "tiny"), "pattern") == [
            f"ADV+{n}" for n in range(1, 7)
        ]
        assert _axis(figure_campaign("fig2", "medium"), "pattern")[-1] == "ADV+9"


class TestFig3:
    def test_runs_and_summarizes(self):
        tables = figure("fig3", load=[0.1, 0.3])
        assert len(tables["series_table"].rows) == 2
        names = [row["series"] for row in tables["summary"].rows]
        assert names == ["min", "pb", "ofar", "ofar-l"]


class TestFig4And5:
    def test_fig4(self):
        tables = figure("fig4", load=[0.2])
        assert [r["series"] for r in tables["summary"].rows] == ["val", "pb", "ofar", "ofar-l"]
        assert len(tables["series_table"].rows) == 1

    def test_fig5(self):
        summ = figure("fig5", load=[0.2])["bound_summary"]
        assert {"series", "saturation_thr", "above_local_bound"} <= set(summ.columns)
        # 0.2 offered cannot clear the 1/h = 0.5 bound of an h=2 network.
        assert {row["above_local_bound"] for row in summ.rows} == {"no"}
        assert "0.500" in summ.title


class TestFig6:
    def test_transitions_list(self):
        transitions = _axis(figure_campaign("fig6", "medium"), "transition")
        assert "UN->ADV+2@0.14" in transitions
        assert "ADV+2->ADV+3@0.12" in transitions

    def test_run_one_and_summary(self):
        t = figure_campaign("fig6", routing=["ofar"]).expand()[0].transient
        res = run_transient(t.config, t.before, t.after, 0.1,
                            warmup=t.warmup, post=t.post, bucket=t.bucket)
        assert res.series
        summ = res.summarize(tail=200)
        assert summ["pre_latency"] > 0
        assert summ["spike_latency"] >= 0

    def test_settle_crosscheck(self):
        kw = dict(warmup=TINY.transient_warmup, post=TINY.transient_post, bucket=10)
        plain = run_transient(TINY.config("ofar"), "UN", "ADV+2", 0.1, **kw)
        with pytest.raises(ValueError, match="TelemetryConfig"):
            plain.settle_crosscheck()
        res = run_transient(TINY.config("ofar"), "UN", "ADV+2", 0.1,
                            telemetry=TelemetryConfig(interval=100), **kw)
        both = res.settle_crosscheck(tail=200)
        assert set(both) == {"settle_latency", "settle_util"}
        # The telemetered run is the same simulation (never perturbs).
        assert res.series == plain.series


class TestFig7:
    def test_patterns_deduped(self):
        # ADV+2 and ADV+h are one pattern at h=2: emitted once.
        assert _axis(figure_campaign("fig7", "tiny"), "pattern").count("ADV+2") == 1
        assert "ADV+3" in _axis(figure_campaign("fig7", "medium"), "pattern")

    def test_normalization(self):
        table = figure("fig7", pattern=["UN", "ADV+h"])["burst_table"]
        assert [row["pattern"] for row in table.rows] == ["UN", "ADV+2"]
        for row in table.rows:
            assert row["pb_norm"] == 1.0
            assert row["ofar_norm"] > 0
            assert row["pb_cycles"] > 0
        assert "mean OFAR time vs PB" in table.title


class TestFig8:
    def test_variants_present(self):
        table = figure("fig8", pattern=["UN"], load=[0.2])["pivot"]
        row, = table.rows
        assert {"physical_thr", "physical_lat", "physical_ring",
                "embedded_thr", "embedded_lat", "embedded_ring"} == set(row)
        # §VII: the implementations perform equivalently.
        assert abs(row["physical_thr"] - row["embedded_thr"]) < 0.05


class TestFig9:
    def test_reduced_config(self):
        by_variant = {
            dict(p.coords)["variant"]: p.config for p in figure_campaign("fig9").expand()
        }
        cfg = by_variant["reduced"]
        assert (cfg.local_vcs, cfg.global_vcs) == (2, 1)
        assert cfg.escape == by_variant["full"].escape == "embedded"
        assert by_variant["full"].local_vcs == 3

    def test_run(self):
        table = figure("fig9", pattern=["UN"], load=[0.2])["pivot"]
        assert {"reduced_thr", "full_thr", "reduced_ring", "full_ring"} <= set(table.columns)
