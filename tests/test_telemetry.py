"""Tests for the in-run telemetry subsystem.

The two contracts under test (see repro/telemetry/sampler.py):
zero cost when off, and observation never perturbs — plus window
semantics, the ring-buffer bound, JSONL/CSV round-trips, and the
orchestrator integration.
"""

import json
import math

import pytest

from repro.engine.config import SimulationConfig
from repro.engine.execute import execute_outcome
from repro.engine.runner import _pattern_rng, run_spec, run_transient
from repro.engine.runspec import RunSpec
from repro.engine.simulator import Simulator
from repro.telemetry import (
    BufferStats,
    ClassStats,
    TelemetryConfig,
    TelemetrySampler,
    TelemetrySeries,
)
from repro.telemetry.export import from_jsonl, read_jsonl, to_csv, write_jsonl
from repro.traffic.generators import BernoulliTraffic
from repro.traffic.patterns import make_pattern


def loaded_sim(routing="min", pattern="UN", load=0.2, h=2, seed=3):
    cfg = SimulationConfig.small(h=h, routing=routing, seed=seed)
    sim = Simulator(cfg)
    topo = sim.network.topo
    p = make_pattern(topo, _pattern_rng(cfg, 4), pattern)
    sim.generator = BernoulliTraffic(p, load, cfg.packet_size, topo.num_nodes, 31)
    return sim


def spec(routing="ofar", **kw):
    base = dict(
        config=SimulationConfig.small(h=2, routing=routing, seed=3),
        pattern_spec="ADV+2",
        load=0.25,
        warmup=200,
        measure=300,
    )
    base.update(kw)
    return RunSpec(**base)


class TestConfig:
    def test_defaults_and_validation(self):
        cfg = TelemetryConfig()
        assert cfg.interval == 100 and cfg.capacity == 4096 and not cfg.per_link
        with pytest.raises(ValueError):
            TelemetryConfig(interval=0)
        with pytest.raises(ValueError):
            TelemetryConfig(capacity=0)

    def test_json_round_trip(self):
        cfg = TelemetryConfig(interval=50, capacity=7, per_link=True)
        assert TelemetryConfig.from_jsonable(cfg.to_jsonable()) == cfg

    def test_unknown_keys_rejected(self):
        data = TelemetryConfig().to_jsonable()
        data["surprise"] = 1
        with pytest.raises(ValueError):
            TelemetryConfig.from_jsonable(data)


class TestStats:
    def test_class_stats_of_empty(self):
        s = ClassStats.of([])
        assert s.count == 0 and s.mean == 0.0 and s.p99 == 0.0

    def test_class_stats_of_values(self):
        s = ClassStats.of([0.4, 0.1, 0.3, 0.2])
        assert s.count == 4 and s.mean == 0.25 and s.maximum == 0.4
        assert ClassStats.from_jsonable(s.to_jsonable()) == s

    def test_buffer_stats_histogram(self):
        s = BufferStats.of([0.0, 0.05, 0.95, 1.0])
        assert s.count == 4 and s.maximum == 1.0
        assert sum(s.hist) == 4
        assert s.hist[0] == 2  # the two near-empty buffers
        assert s.hist[-1] == 2  # full fills clamp into the last bin
        assert BufferStats.from_jsonable(s.to_jsonable()) == s


class TestLifecycle:
    def test_zero_cost_off_default(self):
        sim = loaded_sim()
        assert sim.telemetry is None  # the only engine-side state
        sim.run(50)
        assert sim.telemetry is None

    def test_attach_detach_restores_engine_state(self):
        sim = loaded_sim()
        orig_hook = sim.network.on_eject
        sampler = TelemetrySampler(sim, TelemetryConfig(interval=10))
        sampler.attach()
        assert sim.telemetry is sampler
        assert sim.network.on_eject != orig_hook
        sampler.detach()
        assert sim.telemetry is None
        assert sim.network.on_eject == orig_hook

    def test_one_lifecycle_per_sampler(self):
        sim = loaded_sim()
        sampler = TelemetrySampler(sim)
        sampler.attach()
        with pytest.raises(RuntimeError, match="already attached"):
            sampler.attach()
        sampler.finish()
        with pytest.raises(RuntimeError):
            sampler.attach()

    def test_one_sampler_per_simulator(self):
        sim = loaded_sim()
        TelemetrySampler(sim).attach()
        with pytest.raises(RuntimeError, match="already has a telemetry sampler"):
            TelemetrySampler(sim).attach()

    def test_context_manager(self):
        sim = loaded_sim()
        with TelemetrySampler(sim, TelemetryConfig(interval=10)) as sampler:
            sim.run(30)
        assert sim.telemetry is None
        assert len(sampler.finish().samples) == 3


class TestWindowSemantics:
    def test_sample_cycles_and_window_width(self):
        sim = loaded_sim()
        sim.run(25)  # attach mid-run: windows count from the attach cycle
        c0 = sim.cycle
        sampler = TelemetrySampler(sim, TelemetryConfig(interval=10))
        sampler.attach()
        sim.run(30)
        series = sampler.finish()
        assert [s.cycle for s in series.samples] == [c0 + 9, c0 + 19, c0 + 29]
        assert all(s.window == 10 for s in series.samples)
        assert series.start_cycle == c0

    def test_final_partial_window(self):
        sim = loaded_sim()
        sampler = TelemetrySampler(sim, TelemetryConfig(interval=10))
        sampler.attach()
        sim.run(25)
        series = sampler.finish()
        assert [s.window for s in series.samples] == [10, 10, 5]
        assert series.samples[-1].cycle == sim.cycle - 1

    def test_no_partial_when_windows_align(self):
        sim = loaded_sim()
        sampler = TelemetrySampler(sim, TelemetryConfig(interval=10))
        sampler.attach()
        sim.run(20)
        series = sampler.finish()
        assert [s.window for s in series.samples] == [10, 10]

    def test_deltas_sum_to_run_totals(self):
        sim = loaded_sim(load=0.3)
        sampler = TelemetrySampler(sim, TelemetryConfig(interval=25))
        sampler.attach()
        sim.run(200)
        series = sampler.finish()
        net = sim.network
        assert sum(s.created for s in series.samples) == sim.created_packets
        assert sum(s.injected for s in series.samples) == net.injected_packets
        assert sum(s.ejected for s in series.samples) == net.ejected_packets

    def test_ring_buffer_drops_oldest(self):
        sim = loaded_sim()
        sampler = TelemetrySampler(sim, TelemetryConfig(interval=10, capacity=3))
        sampler.attach()
        sim.run(80)  # 8 full windows into a 3-sample buffer
        series = sampler.finish()
        assert len(series.samples) == 3
        assert series.dropped == 5
        assert [s.cycle for s in series.samples] == [59, 69, 79]  # newest kept


class TestSampleContent:
    def test_classes_and_latency_digest(self):
        sim = loaded_sim(routing="ofar", pattern="ADV+2", load=0.3)
        sampler = TelemetrySampler(sim, TelemetryConfig(interval=50))
        sampler.attach()
        sim.run(400)
        series = sampler.finish()
        last = series.samples[-1]
        assert set(last.link_util) == {"local", "global", "ring"}
        assert "injection" in last.buffer_fill
        assert 0.0 <= last.link_util["local"].p99 <= 1.0
        assert last.ejected > 0
        assert last.latency_mean > 0
        assert last.latency_p50 <= last.latency_p99
        assert last.injection_backlog >= last.injection_backlog_max >= 0

    def test_nan_rates_when_nothing_ejected(self):
        sim = loaded_sim(load=0.0)  # no traffic at all
        sampler = TelemetrySampler(sim, TelemetryConfig(interval=10))
        sampler.attach()
        sim.run(10)
        s = sampler.finish().samples[0]
        assert math.isnan(s.latency_mean) and math.isnan(s.misroute_rate_local)

    def test_per_link_detail(self):
        sim = loaded_sim(routing="min", pattern="ADV+1", load=0.3)
        sampler = TelemetrySampler(sim, TelemetryConfig(interval=50, per_link=True))
        sampler.attach()
        sim.run(200)
        series = sampler.finish()
        s = series.samples[-1]
        topo = sim.network.topo
        assert len(s.router_util["local"]) == topo.num_routers
        assert len(s.group_util) == topo.num_groups
        assert all(len(row) == topo.num_groups for row in s.group_util)
        # A router's class mean never exceeds the class max over channels.
        assert max(s.router_util["local"]) <= s.link_util["local"].maximum + 1e-12

    def test_series_accessors(self):
        sim = loaded_sim(load=0.2)
        sampler = TelemetrySampler(sim, TelemetryConfig(interval=20))
        sampler.attach()
        sim.run(60)
        series = sampler.finish()
        p99 = series.link_p99("local")
        assert [c for c, _ in p99] == [s.cycle for s in series.samples]
        backlog = series.series(lambda s: float(s.injection_backlog))
        assert len(backlog) == len(series.samples)


class TestDeterminism:
    """The perturbation-free contract, at test scale.  The full-grid
    version is ``scripts/determinism_fingerprint.py --telemetry``."""

    def test_loadpoint_byte_identical_with_sampler(self):
        s = spec()
        plain = run_spec(s)
        observed = execute_outcome(
            s, telemetry=TelemetryConfig(interval=50, per_link=True)
        )
        assert observed.series is not None and observed.series.samples
        assert observed.point.to_json() == plain.to_json()  # byte-for-byte

    def test_spec_field_and_override(self):
        tcfg = TelemetryConfig(interval=50)
        s = spec(telemetry=tcfg)
        outcome = execute_outcome(s)
        assert outcome.series is not None and outcome.series.config == tcfg
        assert outcome.point.to_json() == run_spec(s).to_json()

    def test_no_config_means_plain_run(self):
        outcome = execute_outcome(spec())
        assert outcome.series is None
        assert outcome.point == run_spec(spec())


class TestExport:
    def make_series(self, **kw):
        sim = loaded_sim(routing="ofar", pattern="ADV+2", load=0.25)
        cfg = TelemetryConfig(**{"interval": 40, **kw})
        sampler = TelemetrySampler(sim, cfg)
        sampler.attach()
        sim.run(200)
        return sampler.finish()

    def test_jsonl_round_trip_exact(self):
        series = self.make_series(per_link=True)
        text = series.to_jsonl()
        back = from_jsonl(text)
        assert back.config == series.config
        assert back.start_cycle == series.start_cycle
        assert back.dropped == series.dropped
        assert [s.to_jsonable() for s in back.samples] == [
            s.to_jsonable() for s in series.samples
        ]
        assert back.to_jsonl() == text  # fixpoint

    def test_jsonl_nan_as_null(self):
        sim = loaded_sim(load=0.0)
        sampler = TelemetrySampler(sim, TelemetryConfig(interval=10))
        sampler.attach()
        sim.run(10)
        series = sampler.finish()
        text = series.to_jsonl()
        assert "NaN" not in text
        back = TelemetrySeries.from_jsonl(text)
        assert math.isnan(back.samples[0].latency_mean)

    def test_jsonl_header_validation(self):
        with pytest.raises(ValueError, match="empty"):
            from_jsonl("")
        with pytest.raises(ValueError, match="bad header"):
            from_jsonl('{"kind": "something-else"}\n')
        header = json.dumps({
            "format": 999, "kind": "telemetry-series",
            "config": TelemetryConfig().to_jsonable(),
            "start_cycle": 0, "dropped": 0, "samples": 0,
        })
        with pytest.raises(ValueError, match="format"):
            from_jsonl(header + "\n")

    def test_jsonl_truncation_detected(self):
        series = self.make_series()
        lines = series.to_jsonl().splitlines()
        truncated = "\n".join(lines[:-1]) + "\n"  # drop the last sample
        with pytest.raises(ValueError, match="truncated"):
            from_jsonl(truncated)

    def test_csv_shape_and_nan_cells(self):
        series = self.make_series()
        text = to_csv(series)
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert lines[0].startswith("cycle,window,")
        assert "local_util_p99" in header and "injection_fill_mean" in header
        assert len(lines) == 1 + len(series.samples)
        assert all(len(ln.split(",")) == len(header) for ln in lines[1:])
        # NaN renders as an empty cell, not "nan".
        assert "nan" not in text.lower()

    def test_write_and_read_files(self, tmp_path):
        series = self.make_series(per_link=True)
        path = tmp_path / "sub" / "series.jsonl"
        write_jsonl(series, path)  # creates parents
        back = read_jsonl(path)
        assert back.to_jsonl() == series.to_jsonl()
        assert not list(path.parent.glob("*.tmp"))  # atomic: no temp debris
        csv_path = tmp_path / "series.csv"
        series.write_csv(csv_path)
        assert csv_path.read_text() == series.to_csv()


class TestTransientTelemetry:
    def test_covers_switch_and_settles(self):
        cfg = SimulationConfig.small(h=2, routing="ofar", seed=13)
        result = run_transient(
            cfg, "UN", "ADV+2", 0.2, warmup=300, post=300,
            drain_margin=300, bucket=50,
            telemetry=TelemetryConfig(interval=50),
        )
        series = result.telemetry
        assert series is not None and series.start_cycle == 0
        cycles = [s.cycle for s in series.samples]
        # Samples on both sides of the switch: the spike is in-series.
        assert cycles[0] < result.switch_cycle < cycles[-1]

    def test_without_config_no_series(self):
        cfg = SimulationConfig.small(h=2, routing="min", seed=13)
        result = run_transient(
            cfg, "UN", "UN", 0.1, warmup=100, post=100,
            drain_margin=100, bucket=50,
        )
        assert result.telemetry is None


class TestOrchestratorTelemetry:
    def make(self, tmp_path, **kw):
        from repro.analysis.store import ResultStore
        from repro.engine.orchestrator import Orchestrator

        store = ResultStore(tmp_path / "store")
        return store, Orchestrator(workers=0, store=store, **kw)

    def test_series_persisted_per_fingerprint(self, tmp_path):
        store, orch = self.make(
            tmp_path, telemetry=TelemetryConfig(interval=50)
        )
        s = spec()
        (point,) = orch.run_points([s])
        fp = s.fingerprint()
        path = store.root / "telemetry" / fp[:2] / f"{fp}.jsonl"
        assert path.exists()
        series = read_jsonl(path)
        assert series.samples
        assert point.to_json() == run_spec(s).to_json()

    def test_cache_hit_skips_series(self, tmp_path):
        store, orch = self.make(tmp_path, telemetry=TelemetryConfig(interval=50))
        s = spec()
        orch.run_points([s])
        fp = s.fingerprint()
        path = store.root / "telemetry" / fp[:2] / f"{fp}.jsonl"
        path.unlink()
        orch.run_points([s])  # cached: executes nothing
        assert not path.exists()

    def test_telemetry_field_not_in_fingerprint(self, tmp_path):
        store, orch = self.make(tmp_path)
        plain = spec()
        with_t = spec(telemetry=TelemetryConfig(interval=50))
        assert with_t.fingerprint() == plain.fingerprint()
        orch.run_points([plain])
        # The telemetered spec is a cache *hit* — same identity.
        (point,) = orch.run_points([with_t])
        assert point == run_spec(plain)
