"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

CAMPAIGNS = Path(__file__).resolve().parent.parent / "campaigns"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.routing == "ofar"
        assert args.pattern == "UN"
        assert args.h == 2

    def test_invalid_routing(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--routing", "warp"])

    def test_figure_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "run", "campaigns/fig5.yaml", "--scale", "galactic"]
            )

    def test_figure_and_offsets_commands_are_gone(self):
        # A figure is a campaign file; there is no second entry point.
        for command in ("figure", "offsets"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "fig5"])


class TestCommands:
    def test_info(self, capsys):
        main(["info", "--h", "3"])
        out = capsys.readouterr().out
        assert "groups            : 19" in out
        assert "0.3333" in out  # 1/h funnel bound

    def test_sweep(self, capsys):
        main([
            "sweep", "--routing", "min", "--pattern", "UN", "--h", "2",
            "--loads", "0.2", "--warmup", "100", "--measure", "100",
        ])
        out = capsys.readouterr().out
        assert "min on UN" in out
        assert "throughput" in out

    def test_burst(self, capsys):
        main(["burst", "--pattern", "UN", "--packets", "2", "--h", "2"])
        out = capsys.readouterr().out
        assert "consumed by cycle" in out

    def test_transient(self, capsys):
        main([
            "transient", "--h", "2", "--before", "UN", "--after", "ADV+1",
            "--load", "0.1", "--warmup", "300", "--measure", "300",
            "--bucket", "100",
        ])
        out = capsys.readouterr().out
        assert "UN -> ADV+1" in out

    def test_telemetry(self, capsys, tmp_path):
        out_path = tmp_path / "series.jsonl"
        csv_path = tmp_path / "series.csv"
        main([
            "telemetry", "--h", "2", "--before", "UN", "--after", "ADV+1",
            "--load", "0.1", "--warmup", "200", "--measure", "300",
            "--bucket", "100", "--interval", "50",
            "--out", str(out_path), "--csv", str(csv_path), "--heatmap",
        ])
        out = capsys.readouterr().out
        assert "UN -> ADV+1" in out
        assert "local-link p99 util" in out
        assert "utilization by router over time" in out
        assert "group→group" in out
        from repro.telemetry.export import read_jsonl

        series = read_jsonl(out_path)
        assert series.samples and series.config.interval == 50
        assert csv_path.read_text().startswith("cycle,window,")

    def test_unknown_figure(self):
        with pytest.raises(SystemExit, match="campaign error: campaign file not found"):
            main(["campaign", "run", str(CAMPAIGNS / "fig99.yaml"), "--scale", "tiny"])

    def test_figure_fig2_tiny(self, capsys):
        # The checked-in offset list used to die on ADV+9 at h=2; the
        # h-relative shorthand serves every scale.
        main(["campaign", "run", str(CAMPAIGNS / "fig2.yaml"), "--scale", "tiny"])
        out = capsys.readouterr().out
        assert "[campaign fig2] 6 points: 6 run, 0 cached, 0 failed" in out
        header = next(line for line in out.splitlines() if line.startswith("offset"))
        assert {"worst_case", "concentration", "l2_bound", "predicted",
                "throughput"} <= set(header.split())

    def test_fabric_status_reports_no_fleet_activity(self, capsys, tmp_path):
        import json

        camp = tmp_path / "c.json"
        camp.write_text(json.dumps({
            "name": "t",
            "scale": "tiny",
            "combination": {
                "routing": ["min"], "pattern": ["UN"], "load": [0.1],
            },
        }))
        main(["fabric", "status", str(camp), "--store", str(tmp_path / "store")])
        out = capsys.readouterr().out
        assert "no fleet activity: 0 workers, 0 leases" in out
        assert "1 pending" in out

    def test_fabric_serve_and_watch_parse(self):
        args = build_parser().parse_args(
            ["fabric", "serve", "--port", "9001", "--store", "s"]
        )
        assert args.port == 9001
        args = build_parser().parse_args(
            ["fabric", "watch", "c.yaml", "--coordinator", "http://h:1"]
        )
        assert args.coordinator == "http://h:1"
        assert args.interval == 2.0
