"""Snapshot codec round trips: restore(save(sim)) resumes bit-identically.

The contract under test (repro.snapshot): capturing a simulator at an
arbitrary mid-run cycle, round-tripping the state through JSON, and
overlaying it onto a freshly built simulator yields a simulator that is
*behaviorally indistinguishable* from the original — same state digest
at the capture cycle, same digests in lockstep afterwards, and
byte-identical end results (LoadPoint reprs, transient series,
workload interference matrices, telemetry samples).
"""

import dataclasses
import json

import pytest

from repro.engine.config import SimulationConfig
from repro.engine.runner import (
    build_steady_sim,
    run_spec,
    run_transient,
    run_transient_forked,
)
from repro.engine.runspec import RunSpec
from repro.snapshot import Snapshot, SnapshotError, first_divergence


def point_doc(pt) -> dict:
    """Exact (unrounded) LoadPoint fields, as the fingerprint script."""
    return {k: repr(v) for k, v in dataclasses.asdict(pt).items()}


def json_roundtrip(snap: Snapshot) -> Snapshot:
    return Snapshot.from_jsonable(json.loads(json.dumps(snap.to_jsonable())))


def steady_spec(**overrides) -> RunSpec:
    cfg = SimulationConfig.small(
        h=2, routing=overrides.pop("routing", "ofar"),
        seed=overrides.pop("seed", 7), **overrides,
    )
    return RunSpec(cfg, "ADV+1", 0.3, warmup=200, measure=200)


def interrupted_point(spec: RunSpec, at: int):
    """LoadPoint computed across a save/restore boundary ``at`` cycles
    into the measurement window (with a JSON round trip in between)."""
    sim = build_steady_sim(spec)
    sim.warm_up(spec.warmup)
    sim.run(at)
    snap = json_roundtrip(Snapshot.capture(sim, spec=spec))
    resumed = snap.fork()
    resumed.run(spec.measure - at)
    return resumed.metrics.load_point(spec.load, resumed.cycle)


class TestSteadyRoundTrip:
    def test_loadpoint_byte_identical_across_boundary(self):
        spec = steady_spec()
        assert point_doc(interrupted_point(spec, 77)) == point_doc(run_spec(spec))

    def test_boundary_position_is_irrelevant(self):
        spec = steady_spec(routing="ugal", seed=11)
        ref = point_doc(run_spec(spec))
        for at in (1, 100, 199):
            assert point_doc(interrupted_point(spec, at)) == ref

    @pytest.mark.parametrize("routing", ["min", "val", "pb", "par", "ofar-l"])
    def test_every_routing_round_trips(self, routing):
        overrides = {"local_vcs": 4} if routing == "par" else {}
        spec = steady_spec(routing=routing, **overrides)
        assert point_doc(interrupted_point(spec, 63)) == point_doc(run_spec(spec))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"escape": "embedded"},
            {"escape_rings": 2},
            {"input_read_ports": 2},
            {"congestion_control": True},
        ],
        ids=["embedded", "rings2", "readports2", "congestion"],
    )
    def test_engine_variants_round_trip(self, overrides):
        spec = steady_spec(seed=5, **overrides)
        assert point_doc(interrupted_point(spec, 50)) == point_doc(run_spec(spec))

    def test_digest_identical_after_restore_and_in_lockstep(self):
        spec = steady_spec()
        sim = build_steady_sim(spec)
        sim.run(137)
        snap = json_roundtrip(Snapshot.capture(sim, spec=spec))
        restored = snap.fork()
        assert restored.cycle == sim.cycle
        assert restored.state_digest() == sim.state_digest()
        for _ in range(40):
            sim.step()
            restored.step()
            assert restored.state_digest() == sim.state_digest()

    def test_forks_are_independent(self):
        spec = steady_spec()
        sim = build_steady_sim(spec)
        sim.run(150)
        snap = Snapshot.capture(sim, spec=spec)
        a, b = snap.fork(), snap.fork()
        a.run(50)  # advancing one fork must not touch the other
        assert b.cycle == 150
        assert b.state_digest() == snap.digest() == Snapshot.capture(b).digest()
        b.run(50)
        assert a.state_digest() == b.state_digest()


class TestSleepingRoutersAndEventWheel:
    """Satellite: wheel + active set survive a mid-run round trip while
    routers are asleep with queued wake events."""

    def _warm_sleepy_sim(self):
        # read_ports=1 (the only sleep-eligible mode): step until the
        # engine has actually put a loaded router to sleep with a wake
        # event queued — sleep states are transient, so hunt for one.
        spec = RunSpec(
            SimulationConfig.small(h=2, routing="ofar", seed=21),
            "UN", 0.2, warmup=100, measure=100,
        )
        sim = build_steady_sim(spec)
        net = sim.network
        sim.run(50)
        for _ in range(2_000):
            sleeping = [rt.rid for rt in net.routers
                        if not rt.scheduled and rt.pending]
            wakes = [ev for ev in net._events.iter_events() if ev[0] == 3]
            if sleeping and wakes:
                return spec, sim
            sim.step()
        raise AssertionError(
            "no cycle with sleeping routers + queued wake events found"
        )

    def test_round_trip_with_sleepers_and_wakes(self):
        spec, sim = self._warm_sleepy_sim()
        net = sim.network

        snap = json_roundtrip(Snapshot.capture(sim, spec=spec))
        restored = snap.fork()
        rnet = restored.network

        assert sorted(rnet._active_routers) == sorted(net._active_routers)
        for rt, rrt in zip(net.routers, rnet.routers):
            assert rrt.scheduled == rt.scheduled
            assert list(rrt.pending) == list(rt.pending)
        # Same wheel shape: (cycle, tag) multiset and per-bucket order.
        def shape(network):
            return [
                (cyc, [ev[0] for ev in network._events._buckets[cyc]])
                for cyc in sorted(network._events._buckets)
            ]
        assert shape(rnet) == shape(net)
        assert restored.state_digest() == sim.state_digest()
        # The sleepers wake and drain identically.
        sim.run(300)
        restored.run(300)
        assert restored.state_digest() == sim.state_digest()
        assert rnet.ejected_packets == net.ejected_packets

    def test_conservation_holds_after_restore(self):
        spec, sim = self._warm_sleepy_sim()
        restored = Snapshot.capture(sim, spec=spec).fork()
        restored.network.check_conservation()


class TestTransientFork:
    def test_forked_series_identical_to_individual_warmups(self):
        cfg = SimulationConfig.small(h=2, routing="ofar", seed=13)
        variants = ["ADV+2", "ADV+1", "MIX1"]
        kw = dict(warmup=300, post=300, drain_margin=400, bucket=20)
        plain = [run_transient(cfg, "UN", v, 0.3, **kw) for v in variants]
        forked = run_transient_forked(cfg, "UN", variants, 0.3, **kw)
        for p, f in zip(plain, forked):
            assert f.switch_cycle == p.switch_cycle
            assert [(c, repr(v)) for c, v in f.series] == [
                (c, repr(v)) for c, v in p.series
            ]

    def test_empty_variant_list_rejected(self):
        cfg = SimulationConfig.small(h=2, routing="ofar", seed=13)
        with pytest.raises(ValueError):
            run_transient_forked(cfg, "UN", [], 0.3)


class TestWorkloadRoundTrip:
    def _spec(self):
        from repro.workloads.spec import JobSpec, WorkloadSpec

        workload = WorkloadSpec(
            jobs=(
                JobSpec(name="steady", nodes=24, pattern="UN", load=0.15),
                JobSpec(name="bully", nodes=24, pattern="ADV+2", load=0.3,
                        start=150, stop=450),
                JobSpec(name="burst", nodes=8, traffic="burst",
                        packets_per_node=2),
            ),
            placement="round-robin-groups",
        )
        cfg = SimulationConfig.small(h=2, routing="ofar", seed=17)
        return RunSpec.for_workload(cfg, workload, warmup=300, measure=300)

    def _scenario_spec(self):
        from repro.cluster.spec import (
            ArrivalSpec, FaultScheduleSpec, JobMix, ScenarioSpec,
        )

        scenario = ScenarioSpec(
            arrivals=ArrivalSpec(kind="poisson", rate=0.01, jobs=4),
            mix=JobMix(sizes=((4, 1.0), (8, 1.0)), durations=((300, 1.0),),
                       loads=((0.25, 1.0),)),
            scheduler="easy",
            placement="random-nodes",
            faults=FaultScheduleSpec(rate=0.004, count=1, repair=200, seed=3),
            horizon=700,
            seed=9,
            blast_window=100,
        )
        cfg = SimulationConfig.small(h=2, routing="ofar", seed=19)
        return RunSpec.for_scenario(cfg, scenario)

    @pytest.mark.parametrize("which", ["workload", "scenario"])
    def test_full_result_identical(self, which):
        """Capture mid-measurement with the kind's summarization state
        riding in extras, fork from the embedded spec, finish on the
        fork: the full Workload/ScenarioResult must not change."""
        from repro.engine.execute import execute_outcome, kind_of

        spec = self._spec() if which == "workload" else self._scenario_spec()
        ref = execute_outcome(spec).result

        kind = kind_of(spec)
        sim, plan = kind.build(spec)
        sim.warm_up(spec.warmup)
        extras = kind.begin(sim, plan)
        kind.advance(sim, plan, extras, spec.warmup + 123)
        snap = json_roundtrip(Snapshot.capture(sim, spec=spec, extras=extras))
        resumed = snap.fork()
        kind.advance(resumed, plan, snap.extras, spec.warmup + spec.measure)
        _, res = kind.summarize(resumed, spec, plan, snap.extras)

        assert json.dumps(res.to_jsonable(), sort_keys=True) == json.dumps(
            ref.to_jsonable(), sort_keys=True
        )


class TestTelemetryRoundTrip:
    def test_sampler_state_and_series_survive(self):
        from repro.engine.execute import execute_outcome
        from repro.telemetry.config import TelemetryConfig
        from repro.telemetry.sampler import TelemetrySampler

        spec = steady_spec()
        tcfg = TelemetryConfig(interval=50, per_link=True)
        ref = execute_outcome(spec, telemetry=tcfg)
        pt_ref, series_ref = ref.point, ref.series

        sim = build_steady_sim(spec)
        sim.warm_up(spec.warmup)
        TelemetrySampler(sim, tcfg).attach()
        sim.run(88)
        snap = json_roundtrip(Snapshot.capture(sim, spec=spec))
        resumed = snap.fork()
        assert resumed.telemetry is not None
        resumed.run(spec.measure - 88)
        pt = resumed.metrics.load_point(spec.load, resumed.cycle)
        series = resumed.telemetry.finish()

        assert point_doc(pt) == point_doc(pt_ref)
        assert [s.to_jsonable() for s in series.samples] == [
            s.to_jsonable() for s in series_ref.samples
        ]

    def test_telemetry_is_excluded_from_digest(self):
        from repro.telemetry.config import TelemetryConfig
        from repro.telemetry.sampler import TelemetrySampler

        spec = steady_spec()
        plain = build_steady_sim(spec)
        watched = build_steady_sim(spec)
        TelemetrySampler(watched, TelemetryConfig(interval=25)).attach()
        plain.run(120)
        watched.run(120)
        assert plain.state_digest() == watched.state_digest()


class TestBurstRoundTrip:
    def test_drain_across_boundary(self):
        import random

        from repro.engine.runner import _pattern_rng
        from repro.engine.simulator import Simulator
        from repro.traffic.generators import BurstTraffic
        from repro.traffic.patterns import make_pattern

        cfg = SimulationConfig.small(h=2, routing="ofar", seed=11)

        def build():
            sim = Simulator(cfg)
            topo = sim.network.topo
            sim.generator = BurstTraffic(
                make_pattern(topo, _pattern_rng(cfg, 0xC2), "ADV+2"),
                4, topo.num_nodes,
            )
            return sim

        ref = build()
        end_ref = ref.run_until_drained(200_000)

        sim = build()
        sim.run(40)
        snap = json_roundtrip(Snapshot.capture(sim))
        resumed = snap.fork(build=build)
        end = resumed.run_until_drained(200_000)
        assert end == end_ref
        assert resumed.network.ejected_packets == ref.network.ejected_packets
        assert repr(resumed.metrics.latency_sum) == repr(ref.metrics.latency_sum)
        # independent of the snapshot: rng module must stay untouched
        random.random()


class TestGuards:
    def test_restore_rejects_dirty_target(self):
        spec = steady_spec()
        sim = build_steady_sim(spec)
        sim.run(10)
        snap = Snapshot.capture(sim, spec=spec)
        dirty = build_steady_sim(spec)
        dirty.run(5)
        with pytest.raises(SnapshotError, match="freshly built"):
            snap.restore_into(dirty)

    def test_restore_rejects_config_mismatch(self):
        spec = steady_spec()
        sim = build_steady_sim(spec)
        sim.run(10)
        snap = Snapshot.capture(sim, spec=spec)
        other = build_steady_sim(steady_spec(seed=8))
        with pytest.raises(SnapshotError, match="config mismatch"):
            snap.restore_into(other)

    def test_unknown_format_rejected(self):
        with pytest.raises(SnapshotError, match="format"):
            Snapshot({"format": 999})

    def test_fork_without_spec_needs_builder(self):
        spec = steady_spec()
        sim = build_steady_sim(spec)
        sim.run(10)
        snap = Snapshot.capture(sim)  # no spec embedded
        with pytest.raises(SnapshotError, match="embedded RunSpec"):
            snap.fork()

    def test_save_load_round_trip(self, tmp_path):
        spec = steady_spec()
        sim = build_steady_sim(spec)
        sim.run(42)
        snap = Snapshot.capture(sim, spec=spec)
        path = tmp_path / "snap" / "state.json"
        snap.save(str(path))
        loaded = Snapshot.load(str(path))
        assert loaded.digest() == snap.digest()
        assert loaded.cycle == 42
        assert loaded.spec() == spec


class TestDebugTools:
    def test_first_divergence_none_for_identical_runs(self):
        spec = steady_spec()
        a, b = build_steady_sim(spec), build_steady_sim(spec)
        assert first_divergence(a, b, max_cycles=60) is None

    def test_first_divergence_localizes_a_seed_difference(self):
        spec_a = steady_spec(seed=7)
        spec_b = steady_spec(seed=8)
        a, b = build_steady_sim(spec_a), build_steady_sim(spec_b)
        hit = first_divergence(a, b, max_cycles=200)
        assert hit is not None
        assert hit["digest_a"] != hit["digest_b"]
        assert hit["diff"], "divergence must come with a leaf diff"

    def test_first_divergence_rejects_misaligned_starts(self):
        spec = steady_spec()
        a, b = build_steady_sim(spec), build_steady_sim(spec)
        a.run(3)
        with pytest.raises(ValueError):
            first_divergence(a, b, max_cycles=10)
