"""The figure campaigns are the figures: golden grids and the schema they need.

``campaigns/<name>.yaml`` is the only definition a figure has.  The
golden table below was recorded from the per-figure driver modules at
the last commit that had them (0523a43): per figure and scale, the
ordered spec fingerprints the driver resolved, and for the two
in-process figures (Fig. 6, Fig. 7) the ``tiny`` rows it emitted.  A
campaign that stops expanding to those points, in that order, has
changed the figure.  The ``router_design`` and ``ablation_iterations``
``tiny`` rows pin the allocator paths no other campaign runs (several
read ports, iteration counts other than 3).

The rest pins what the files lean on: the ``variant`` axis, the
``adv_offsets`` pattern shorthand, ``kind: burst``, the emitters'
error paths, every run flag on transient and burst campaigns — and the
bugs the two-definitions era hid (dict-valued axes crashing
``aggregate`` after the run, unbuildable points found mid-run).
"""

import csv
import hashlib

import pytest

from repro.analysis.store import ResultStore
from repro.campaign import (
    TINY,
    CampaignError,
    CampaignSpec,
    emit,
    load_campaign,
    run_campaign,
    validate_post,
)
from repro.campaign.scale import SCALES
from repro.cli import build_parser, main
from repro.engine.orchestrator import Orchestrator, PointResult
from repro.engine.runspec import RunSpec

from tests.figures import CAMPAIGNS, figure, figure_campaign

#: (points, sha256("\n".join(fingerprints))[:16]) of the drivers' grids.
GOLDEN_FINGERPRINTS = {
    "fig2": {"tiny": (6, "7e3ce8330afe5ba6"), "medium": (9, "59ead6f54000e09e")},
    "fig3": {"tiny": (28, "fcff220c9c7bb02d"), "medium": (28, "c04aa9897aebcbfd")},
    "fig4": {"tiny": (28, "9ef61d4ccbd6b60d"), "medium": (28, "39ea5bf2aab355f3")},
    "fig5": {"tiny": (28, "9ef61d4ccbd6b60d"), "medium": (28, "5c91c12c30a8cc21")},
    # Recorded when transient and burst points became RunSpecs (their
    # drivers had no fingerprints; the tiny rows below pin their output).
    "fig6": {"tiny": (9, "c20b7e0a52fd78b1"), "medium": (9, "c0ff788d55639eac")},
    "fig7": {"tiny": (20, "d3269430abf51056"), "medium": (24, "8250f1b7ae168224")},
    "fig8": {"tiny": (20, "419b69f8ad863b18"), "medium": (20, "ad003008df816e32")},
    "fig9": {"tiny": (20, "2d38db28fcc9d553"), "medium": (30, "3a628264cdd31966")},
    "ablation_thresholds": {"tiny": (20, "5a60a6c8477c2279"), "medium": (20, "09fc690e317901d0")},
    "ablation_iterations": {"tiny": (8, "f857c65031848984"), "medium": (8, "23c1e2656875276b")},
    "ablation_ring_exits": {"tiny": (4, "d4222768224940d4"), "medium": (4, "c914c6b48a108baa")},
    "ablation_family": {"tiny": (14, "9ca296697032117e"), "medium": (14, "f4a678384c191922")},
    "router_design": {"tiny": (16, "58e4dc3c0d1250c4"), "medium": (16, "db06b1879e0e7ff2")},
    "congestion": {"tiny": (8, "9e9511577f915d34"), "medium": (8, "b1ece22868d8dcff")},
    # The two extension studies that used to hand-build their simulators
    # (recorded when they became campaign files).
    "mapping": {"tiny": (6, "d490ad9aab94b8d1"), "medium": (6, "be93e6b7d302dabe")},
    "starvation": {"tiny": (4, "a986ad3671dbe767"), "medium": (4, "f91e8012c0224bea")},
}

FIG6_COLUMNS = ("transition", "load", "routing", "pre_latency", "spike_latency",
                "settled_latency", "settle_cycles")
FIG6_TINY_ROWS = [
    ("UN->ADV+2", 0.14, "pb", 43.6, 71.4, 60.9, 0),
    ("UN->ADV+2", 0.14, "ofar", 46.3, 72.5, 60.4, 0),
    ("UN->ADV+2", 0.14, "ofar-l", 44.7, 67.0, 57.5, 0),
    ("ADV+2->UN", 0.14, "pb", 62.2, 50.7, 42.4, 0),
    ("ADV+2->UN", 0.14, "ofar", 59.7, 54.8, 44.3, 0),
    ("ADV+2->UN", 0.14, "ofar-l", 58.6, 50.8, 43.1, 0),
    ("ADV+2->ADV+2", 0.12, "pb", 58.9, 70.5, 59.0, 0),
    ("ADV+2->ADV+2", 0.12, "ofar", 59.0, 71.0, 58.0, 0),
    ("ADV+2->ADV+2", 0.12, "ofar-l", 56.0, 68.0, 55.5, 0),
]

FIG7_COLUMNS = ("pattern", "pb_cycles", "val_norm", "pb_norm", "ofar_norm", "ofar-l_norm")
FIG7_TINY_ROWS = [
    ("UN", 129, 1.605, 1.0, 1.109, 1.078),
    ("ADV+2", 281, 0.972, 1.0, 0.573, 0.737),
    ("MIX1", 149, 1.47, 1.0, 0.987, 0.933),
    ("MIX2", 185, 1.119, 1.0, 0.773, 0.827),
    ("MIX3", 215, 1.112, 1.0, 0.749, 0.842),
]

# The only checked-in runs of the multi-read-port allocator and of
# allocator_iterations != 3 (recorded at 1daf3d2).
POINT_COLUMNS = ("throughput", "latency", "net_latency", "hops", "p50", "p99",
                 "ring_frac", "mis_local", "mis_global", "jain", "worst_src", "packets")
ROUTER_DESIGN_COLUMNS = ("routing", "variant", "pattern", "load", *POINT_COLUMNS)
ROUTER_DESIGN_TINY_ROWS = [
    ("ofar", "classic-3vc", "UN", 0.25, 0.2544, 50.8, 49.8, 2.91, 48, 104, 0.0, 0.296, 0.191, 0.9146, 0.4716, 916),
    ("ofar", "classic-3vc", "UN", 0.45, 0.4475, 71.4, 68.5, 3.44, 72, 152, 0.0, 0.513, 0.384, 0.9433, 0.581, 1611),
    ("ofar", "classic-3vc", "ADV+2", 0.25, 0.2553, 70.7, 69.7, 4.19, 72, 136, 0.0, 0.633, 0.605, 0.9196, 0.5484, 919),
    ("ofar", "classic-3vc", "ADV+2", 0.45, 0.4289, 118.2, 115.2, 4.43, 112, 264, 0.0298, 0.736, 0.735, 0.9475, 0.4197, 1544),
    ("ofar", "lean-1R", "UN", 0.25, 0.2558, 50.5, 49.4, 2.9, 48, 104, 0.0, 0.282, 0.194, 0.9159, 0.4691, 921),
    ("ofar", "lean-1R", "UN", 0.45, 0.4506, 72.9, 70.0, 3.3, 72, 164, 0.0, 0.449, 0.345, 0.951, 0.4883, 1622),
    ("ofar", "lean-1R", "ADV+2", 0.25, 0.2564, 71.0, 70.0, 4.19, 72, 132, 0.0, 0.652, 0.615, 0.9173, 0.468, 923),
    ("ofar", "lean-1R", "ADV+2", 0.45, 0.3964, 150.7, 147.7, 4.54, 144, 344, 0.0687, 0.759, 0.748, 0.9585, 0.5046, 1427),
    ("ofar", "lean-2R", "UN", 0.25, 0.2556, 49.5, 48.4, 2.88, 48, 104, 0.0, 0.278, 0.179, 0.9157, 0.4696, 920),
    ("ofar", "lean-2R", "UN", 0.45, 0.4469, 67.5, 64.7, 3.54, 68, 136, 0.0, 0.564, 0.421, 0.9481, 0.537, 1609),
    ("ofar", "lean-2R", "ADV+2", 0.25, 0.2558, 68.9, 67.8, 4.2, 68, 128, 0.0, 0.65, 0.608, 0.9219, 0.5472, 921),
    ("ofar", "lean-2R", "ADV+2", 0.45, 0.4369, 101.4, 98.4, 4.47, 100, 208, 0.0064, 0.816, 0.734, 0.9491, 0.412, 1573),
    ("ofar", "lean-3R", "UN", 0.25, 0.2542, 50.0, 48.9, 2.91, 48, 104, 0.0, 0.295, 0.186, 0.9161, 0.4721, 915),
    ("ofar", "lean-3R", "UN", 0.45, 0.4503, 67.5, 64.6, 3.55, 68, 140, 0.0, 0.588, 0.413, 0.9516, 0.533, 1621),
    ("ofar", "lean-3R", "ADV+2", 0.25, 0.2542, 69.5, 68.4, 4.23, 68, 128, 0.0, 0.66, 0.615, 0.9203, 0.5508, 915),
    ("ofar", "lean-3R", "ADV+2", 0.45, 0.4419, 99.2, 96.1, 4.48, 96, 220, 0.0057, 0.833, 0.729, 0.9515, 0.4525, 1591),
]
ITERATIONS_COLUMNS = ("routing", "allocator_iterations", "pattern", "load", *POINT_COLUMNS)
ITERATIONS_TINY_ROWS = [
    ("ofar", 1, "UN", 0.45, 0.4514, 73.2, 70.3, 3.45, 72, 156, 0.0006, 0.524, 0.391, 0.9511, 0.4874, 1625),
    ("ofar", 1, "ADV+2", 0.45, 0.4256, 125.7, 122.8, 4.52, 120, 316, 0.0418, 0.787, 0.734, 0.9457, 0.517, 1532),
    ("ofar", 2, "UN", 0.45, 0.4503, 71.5, 68.7, 3.43, 72, 156, 0.0, 0.51, 0.39, 0.9471, 0.533, 1621),
    ("ofar", 2, "ADV+2", 0.45, 0.4203, 122.0, 119.0, 4.48, 116, 288, 0.0311, 0.759, 0.735, 0.9529, 0.4759, 1513),
    ("ofar", 3, "UN", 0.45, 0.4475, 71.4, 68.5, 3.44, 72, 152, 0.0, 0.513, 0.384, 0.9433, 0.581, 1611),
    ("ofar", 3, "ADV+2", 0.45, 0.4289, 118.2, 115.2, 4.43, 112, 264, 0.0298, 0.736, 0.735, 0.9475, 0.4197, 1544),
    ("ofar", 4, "UN", 0.45, 0.4475, 71.4, 68.5, 3.44, 72, 152, 0.0, 0.513, 0.384, 0.9433, 0.581, 1611),
    ("ofar", 4, "ADV+2", 0.45, 0.4289, 118.2, 115.2, 4.43, 112, 264, 0.0298, 0.736, 0.735, 0.9475, 0.4197, 1544),
]

# The extension studies, recorded when they became campaign files.
MAPPING_COLUMNS = ("routing", "pattern", "load", *POINT_COLUMNS)
MAPPING_TINY_ROWS = [
    ("min", "STENCIL:sequential", 0.5, 0.4369, 86.9, 79.3, 1.49, 76, 312, 0.0, 0.0, 0.0, 0.9635, 0.6408, 1573),
    ("min", "STENCIL:random", 0.5, 0.4614, 83.7, 79.4, 2.27, 72, 272, 0.0, 0.0, 0.0, 0.9553, 0.4335, 1661),
    ("pb", "STENCIL:sequential", 0.5, 0.4886, 49.1, 45.6, 1.77, 48, 124, 0.0, 0.0, 0.0, 0.9524, 0.4912, 1759),
    ("pb", "STENCIL:random", 0.5, 0.4744, 90.8, 87.3, 2.91, 88, 220, 0.0, 0.0, 0.0, 0.9603, 0.4637, 1708),
    ("ofar", "STENCIL:sequential", 0.5, 0.4908, 48.5, 45.0, 2.21, 48, 136, 0.0, 0.355, 0.268, 0.9514, 0.5297, 1767),
    ("ofar", "STENCIL:random", 0.5, 0.4908, 74.1, 70.7, 3.31, 72, 156, 0.0, 0.484, 0.385, 0.9608, 0.4482, 1767),
]
STARVATION_COLUMNS = ("routing", "pattern", "load", "ofar_transit_misroute", *POINT_COLUMNS)
STARVATION_TINY_ROWS = [
    ("ofar", "ADV+2", 0.3, "local-first", 0.3033, 76.4, 75.1, 4.29, 76, 144, 0.0, 0.721, 0.647, 0.9331, 0.4615, 1092),
    ("ofar", "ADV+2", 0.3, "global-first", 0.2975, 95.6, 94.4, 3.88, 84, 264, 0.0131, 0.479, 0.602, 0.9436, 0.4706, 1071),
    ("ofar", "ADV+2", 0.45, "local-first", 0.4289, 118.2, 115.2, 4.43, 112, 264, 0.0298, 0.736, 0.735, 0.9475, 0.4197, 1544),
    ("ofar", "ADV+2", 0.45, "global-first", 0.4203, 137.7, 134.2, 4.28, 116, 392, 0.121, 0.55, 0.714, 0.9442, 0.4759, 1513),
]

#: figure -> (emitted table, pinned columns, its tiny rows).
TINY_ROWS = {
    "fig6": ("table", FIG6_COLUMNS, FIG6_TINY_ROWS),
    "fig7": ("burst_table", FIG7_COLUMNS, FIG7_TINY_ROWS),
    "router_design": ("table", ROUTER_DESIGN_COLUMNS, ROUTER_DESIGN_TINY_ROWS),
    "ablation_iterations": ("table", ITERATIONS_COLUMNS, ITERATIONS_TINY_ROWS),
    "mapping": ("table", MAPPING_COLUMNS, MAPPING_TINY_ROWS),
    "starvation": ("table", STARVATION_COLUMNS, STARVATION_TINY_ROWS),
}


def mapping(**overrides):
    """A minimal valid steady campaign mapping."""
    data = {
        "name": "t",
        "scale": "tiny",
        "combination": {"routing": ["ofar"], "pattern": ["UN"], "load": [0.1]},
    }
    data.update(overrides)
    return data


# ----------------------------------------------------------------------
# Same points as the drivers
# ----------------------------------------------------------------------

class TestGoldenGrids:
    @pytest.mark.parametrize("scale", ["tiny", "medium"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
    def test_fingerprints_match_the_drivers(self, name, scale):
        # The drivers ran the base seed only; fig3-5 replicate it.
        campaign = load_campaign(CAMPAIGNS / f"{name}.yaml", scale=scale)
        fps = [p.spec.fingerprint() for p in campaign.expand() if p.replication == 0]
        digest = hashlib.sha256("\n".join(fps).encode()).hexdigest()[:16]
        assert (len(fps), digest) == GOLDEN_FINGERPRINTS[name][scale]

    @pytest.mark.parametrize("name", sorted(TINY_ROWS))
    def test_tiny_rows_match(self, name):
        table, columns, expected = TINY_ROWS[name]
        rows = figure(name)[table].rows
        assert [tuple(r[c] for c in columns) for r in rows] == expected
        assert all(tuple(r) == columns for r in rows)

    @pytest.mark.parametrize("scale", ["tiny", "medium"])
    @pytest.mark.parametrize(
        "path",
        # base.yaml is the shared foundation the others inherit: no grid.
        sorted(p for p in CAMPAIGNS.glob("*.yaml") if p.stem != "base"),
        ids=lambda p: p.stem,
    )
    def test_every_checked_in_campaign_expands(self, path, scale):
        campaign = load_campaign(path, scale=scale)
        validate_post(campaign)
        points = campaign.expand()
        assert points
        coords = [p.coords for p in points]
        assert len(set(coords)) == len(coords)
        for point in points:
            if point.spec is not None:
                assert len(point.spec.fingerprint()) == 64


# ----------------------------------------------------------------------
# variant axis
# ----------------------------------------------------------------------

class TestVariantAxis:
    VARIANTS = [
        {"name": "lean", "local_vcs": 2, "global_vcs": 1, "escape": "embedded"},
        {"name": "stock"},
    ]

    def test_name_is_the_coordinate_and_overrides_reach_the_config(self):
        campaign = CampaignSpec.from_mapping(mapping(combination={
            "routing": ["ofar"], "variant": self.VARIANTS,
            "pattern": ["UN"], "load": [0.1],
        }))
        lean, stock = campaign.expand()
        assert lean.coords == (("routing", "ofar"), ("variant", "lean"),
                               ("pattern", "UN"), ("load", 0.1), ("seed", 1))
        assert (lean.config.local_vcs, lean.config.global_vcs) == (2, 1)
        assert lean.config.escape == "embedded"
        assert stock.spec == RunSpec(TINY.config("ofar"), "UN", 0.1, TINY.warmup, TINY.measure)

    def test_variant_overrides_campaign_config(self):
        campaign = CampaignSpec.from_mapping(mapping(
            config={"local_vcs": 4, "max_ring_exits": 9},
            combination={"routing": ["ofar"], "variant": self.VARIANTS,
                         "pattern": ["UN"], "load": [0.1]},
        ))
        lean, stock = campaign.expand()
        assert (lean.config.local_vcs, stock.config.local_vcs) == (2, 4)
        assert lean.config.max_ring_exits == stock.config.max_ring_exits == 9

    def test_routing_inside_a_bundle_replaces_the_routing_axis(self):
        campaign = CampaignSpec.from_mapping(mapping(combination={
            "variant": [{"name": "a", "routing": "min"},
                        {"name": "b", "routing": "par", "local_vcs": 4}],
            "pattern": ["UN"], "load": [0.1],
        }))
        a, b = campaign.expand()
        assert (a.config.routing, b.config.routing) == ("min", "par")
        assert "routing" not in dict(a.coords)
        assert b.spec == RunSpec(
            TINY.config("par", local_vcs=4), "UN", 0.1, TINY.warmup, TINY.measure)

    def test_thresholds_bundle_becomes_a_threshold_config(self):
        campaign = CampaignSpec.from_mapping(mapping(combination={
            "routing": ["ofar"], "pattern": ["UN"], "load": [0.1],
            "variant": [{"name": "half", "thresholds": {"relative_factor": 0.5}}],
        }))
        point, = campaign.expand()
        assert point.config.thresholds.relative_factor == 0.5

    @pytest.mark.parametrize("variants, match", [
        ([{"name": "a"}, {"name": "a", "local_vcs": 2}], "duplicate variant names"),
        ([{"local_vcs": 2}], "name"),
        (["lean"], "name"),
        ([{"name": "a", "warp_drive": 1}], "unknown config overrides"),
        ([{"name": "a", "seed": 3}], "unknown config overrides"),
        ([{"name": "a", "routing": "min"}], "already varies as an axis"),
        ([{"name": "a", "thresholds": {"bogus": 1}}], "bad point config"),
    ])
    def test_malformed_variants_rejected(self, variants, match):
        with pytest.raises(CampaignError, match=match):
            CampaignSpec.from_mapping(mapping(combination={
                "routing": ["ofar"], "variant": variants,
                "pattern": ["UN"], "load": [0.1],
            })).expand()

    def test_some_variants_without_routing_still_need_the_axis(self):
        with pytest.raises(CampaignError, match="need a 'routing' axis"):
            CampaignSpec.from_mapping(mapping(combination={
                "variant": [{"name": "a", "routing": "min"}, {"name": "b"}],
                "pattern": ["UN"], "load": [0.1],
            }))


# ----------------------------------------------------------------------
# Bug: mapping/list axis values crashed the emitters after the run
# ----------------------------------------------------------------------

class TestScalarAxisValues:
    def test_dict_valued_axis_is_refused_before_anything_runs(self):
        """At the parent this expanded, ran every point, and then
        ``aggregate`` raised ``TypeError: unhashable type: 'dict'``."""
        with pytest.raises(CampaignError, match="'variant'"):
            CampaignSpec.from_mapping(mapping(
                combination={
                    "routing": ["ofar"], "pattern": ["UN"], "load": [0.1],
                    "thresholds": [{"relative_factor": 0.5}, {"relative_factor": 0.9}],
                },
                post=["aggregate"],
            ))

    def test_list_valued_axis_is_refused(self):
        with pytest.raises(CampaignError, match="scalars"):
            CampaignSpec.from_mapping(mapping(combination={
                "routing": ["ofar"], "pattern": [["UN", "ADV+1"], "UN"], "load": [0.1],
            }))

    def test_variant_grid_aggregates(self):
        campaign = CampaignSpec.from_mapping(mapping(
            combination={
                "routing": ["ofar"], "pattern": ["UN"], "load": [0.1],
                "variant": [{"name": "half", "thresholds": {"relative_factor": 0.5}},
                            {"name": "paper", "thresholds": {"relative_factor": 0.9}}],
            },
            replications=2, windows={"warmup": 50, "measure": 50}, post=["aggregate"],
        ))
        (_, table), = emit(run_campaign(campaign))
        assert [(r["variant"], r["n"]) for r in table.rows] == [("half", 2), ("paper", 2)]


# ----------------------------------------------------------------------
# adv_offsets + bug: unbuildable points were found mid-run
# ----------------------------------------------------------------------

class TestAdvOffsets:
    @pytest.mark.parametrize("h, last", [(1, 2), (2, 6), (3, 9), (6, 18)])
    def test_shorthand_is_h_relative(self, h, last):
        campaign = CampaignSpec.from_mapping(mapping(
            config={"h": h},
            combination={"routing": ["val"], "pattern": {"adv_offsets": 3}, "load": [0.5]},
        ))
        assert campaign.combination["pattern"] == [f"ADV+{n}" for n in range(1, last + 1)]

    @pytest.mark.parametrize("spec", [
        {"adv_offsets": 0}, {"adv_offsets": True}, {"adv_offsets": "3"},
        {"adv_offsets": 3, "step": 2}, {"offsets": 3},
    ])
    def test_bad_shorthand_rejected(self, spec):
        with pytest.raises(CampaignError, match="adv_offsets"):
            CampaignSpec.from_mapping(mapping(
                combination={"routing": ["val"], "pattern": spec, "load": [0.5]},
            ))

    def test_offset_outside_the_network_fails_at_expand(self):
        """The old explicit ``ADV+1..ADV+9`` fig2 list at ``--scale tiny``
        ran eight points and then tracebacked out of ``make_pattern``."""
        campaign = figure_campaign("fig2", "tiny", pattern=[f"ADV+{n}" for n in range(1, 10)])
        with pytest.raises(CampaignError, match=r"pattern=ADV\+9.*h=2"):
            campaign.expand()

    def test_bad_offset_in_a_transition_and_a_burst(self):
        with pytest.raises(CampaignError, match=r"ADV\+40"):
            figure_campaign("fig6", transition=[
                {"before": "UN", "after": "ADV+40", "load": 0.1}]).expand()
        with pytest.raises(CampaignError, match=r"ADV\+0"):
            figure_campaign("fig7", pattern=["ADV+0"]).expand()

    @pytest.mark.parametrize("pattern, match", [
        ("UNX", "unknown traffic pattern spec 'UNX'"),
        ("STENCIL:diagonal", "unknown traffic pattern spec 'STENCIL:diagonal'"),
    ])
    def test_unknown_pattern_fails_at_expand(self, pattern, match):
        """An unknown name used to validate, then fail when its point
        was built, after the points before it had run."""
        campaign = CampaignSpec.from_mapping(mapping(combination={
            "routing": ["ofar"], "pattern": ["UN", pattern], "load": [0.1]}))
        with pytest.raises(CampaignError, match=match):
            campaign.expand()

    def test_campaign_validate_reports_it_cleanly(self, tmp_path):
        import json

        path = tmp_path / "c.json"
        path.write_text(json.dumps(mapping(combination={
            "routing": ["val"], "pattern": ["ADV+9"], "load": [0.5]})))
        with pytest.raises(SystemExit, match=r"campaign error: .*ADV\+9"):
            main(["campaign", "validate", str(path)])


# ----------------------------------------------------------------------
# kind: burst
# ----------------------------------------------------------------------

class TestBurstKind:
    def test_points_carry_the_scale_backlog(self):
        points = figure_campaign("fig7", "small").expand()
        assert len(points) == 5 * 4  # ADV+2 == ADV+h at h=2
        first = points[0].spec
        assert (first.pattern_spec, first.config.routing) == ("UN", "val")
        assert (first.load, first.warmup, first.transient) == (0.0, 0, None)
        assert {p.spec.burst for p in points} == {20}
        assert [c[0] for c in points[0].coords] == ["pattern", "routing", "seed"]

    def test_load_axis_rejected(self):
        with pytest.raises(CampaignError, match="not a burst-campaign axis"):
            figure_campaign("fig7", load=[0.1])

    def test_needs_a_pattern_axis(self):
        with pytest.raises(CampaignError, match="'pattern'"):
            CampaignSpec.from_mapping(
                mapping(kind="burst", combination={"routing": ["pb"]}))

    def test_burst_table_needs_pb_and_table_redirects(self):
        no_pb = run_campaign(figure_campaign("fig7", pattern=["UN"], routing=["ofar"]))
        with pytest.raises(CampaignError, match="add 'pb'"):
            emit(no_pb)
        with pytest.raises(CampaignError, match="burst_table"):
            emit(run_campaign(CampaignSpec.from_mapping(mapping(
                kind="burst", combination={"routing": ["pb"], "pattern": ["UN"]},
                post=["table"]))))


class TestEmitterPreconditions:
    def test_pivot_needs_a_varying_axis(self):
        campaign = CampaignSpec.from_mapping(mapping(
            windows={"warmup": 50, "measure": 50}, post=["pivot"]))
        with pytest.raises(CampaignError, match="multi-valued axis"):
            emit(run_campaign(campaign))

    def test_offsets_needs_adv_patterns(self):
        campaign = CampaignSpec.from_mapping(mapping(
            windows={"warmup": 50, "measure": 50}, post=["offsets"]))
        with pytest.raises(CampaignError, match="ADV\\+N"):
            emit(run_campaign(campaign))

    @pytest.mark.parametrize("kind, emitter", [
        ("steady", "burst_table"), ("burst", "pivot"), ("burst", "offsets"),
        ("burst", "bound_summary"),
    ])
    def test_kind_mismatch_is_a_campaign_error(self, kind, emitter):
        combination = {"routing": ["pb"], "pattern": ["UN"]}
        if kind == "steady":
            combination["load"] = [0.1]
        campaign = CampaignSpec.from_mapping(mapping(
            kind=kind, combination=combination,
            windows={"warmup": 50, "measure": 50}, post=[emitter]))
        with pytest.raises(CampaignError, match="campaign emitter"):
            emit(run_campaign(campaign))


# ----------------------------------------------------------------------
# Transient and burst points take every run flag
# ----------------------------------------------------------------------

class TestInProcessKindsRefuseRunFlags:
    """Every run flag runs a transient or burst campaign and emits the
    in-process rows.  The class and test names are those of the refusal
    tests these cases replace (the two kinds used to run outside the
    point executor and refuse every flag), kept so test IDs stay stable."""

    @pytest.mark.parametrize("name", ["fig6", "fig7"])
    @pytest.mark.parametrize("flags", [
        ["--workers", "2"], ["--store", "STORE"], ["--resume"],
        ["--timeout", "600"], ["--snapshot-every", "100"], ["--telemetry"],
        ["--fabric"],
    ], ids=lambda flags: flags[0])
    def test_cli_refuses(self, name, flags, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # the default store lands here
        flags = [str(tmp_path / "store") if f == "STORE" else f for f in flags]
        argv = ["campaign", "run", str(CAMPAIGNS / f"{name}.yaml"), "--scale", "tiny",
                *flags, "--out", str(tmp_path / "out")]
        main(argv)
        table, columns, expected = TINY_ROWS[name]
        with open(tmp_path / "out" / f"{name}_{table}.csv") as f:
            rows = [tuple(row[c] for c in columns) for row in csv.DictReader(f)]
        assert rows == [tuple(str(v) for v in row) for row in expected]
        if flags == ["--resume"]:
            capsys.readouterr()
            main(argv)
            n = len(figure_campaign(name).expand())
            assert f"{n} points: 0 run, {n} cached, 0 failed" in capsys.readouterr().out

    def test_library_call_refuses_a_store_backed_orchestrator(self, tmp_path):
        """A store-backed run keeps every full result as a sidecar: the
        second run resolves all of them from the store."""
        campaign = figure_campaign("fig6")
        store = ResultStore(tmp_path)
        first = run_campaign(campaign, Orchestrator(workers=0, store=store))
        again = run_campaign(campaign, Orchestrator(workers=0, store=store))
        assert again.counts["cached"] == again.counts["total"] == 9
        assert [r.to_jsonable() for r in again.results] == \
               [r.to_jsonable() for r in first.results]
        assert len(list((tmp_path / "transients").rglob("*.json"))) == 9

    def test_study_entry_points_take_scale_only(self):
        """The studies are campaign files and ``repro interference``;
        every ``--scale`` flag takes exactly the presets' names."""
        parser = build_parser()
        for argv in (["interference"], ["campaign", "run", "f.yaml"]):
            for name in SCALES:
                assert parser.parse_args([*argv, "--scale", name]).scale == name
            with pytest.raises(SystemExit):
                parser.parse_args([*argv, "--scale", "galactic"])


class TestInterferenceStore:
    def test_store_and_use_cache_are_arguments(self, tmp_path, monkeypatch):
        """The study's points go through the orchestrator it is given,
        and their full results come back from that orchestrator's store
        — a throw-away one when it has none."""
        from repro.workloads import interference

        ran, read = [], []

        def fake_run(self, specs):
            ran.append((self.store, [spec.workload is not None for spec in specs]))
            return [PointResult(spec, "done", point="point") for spec in specs]

        def fake_execute_cached(spec, store):
            read.append(store)
            return "result"

        monkeypatch.setattr(Orchestrator, "run", fake_run)
        monkeypatch.setattr(interference, "execute_cached", fake_execute_cached)
        monkeypatch.setattr(interference, "job_slowdowns", lambda shared, isolated: {})
        store = ResultStore(tmp_path)
        outcome, = interference.run(
            TINY, ("ofar",), orchestrator=Orchestrator(workers=0, store=store))
        # One orchestrator run: the shared spec + two isolated baselines.
        assert ran == [(store, [True] * 3)] and read == [store] * 3
        assert outcome.shared == "result"
        ran.clear()
        read.clear()
        interference.run(TINY, ("min", "ofar"))
        (throwaway, kinds), = ran
        assert kinds == [True] * 6 and read == [throwaway] * 6
        assert not throwaway.root.exists()  # gone with the run

    def test_run_flags_reach_the_points(self):
        """Every run flag applies: a point that cannot finish within
        --timeout fails the command (it used to run in-process and
        ignore --workers/--timeout/--retries)."""
        with pytest.raises(SystemExit, match="timed out"):
            main(["interference", "--scale", "tiny", "--routings", "ofar",
                  "--workers", "2", "--timeout", "0.01", "--retries", "0"])
