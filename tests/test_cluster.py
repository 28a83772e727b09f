"""Tests for the cluster scenario subsystem (repro.cluster).

Covers the three layers the subsystem stacks: the pluggable schedulers
(FCFS head-of-line blocking, EASY backfill's shadow-reservation rule,
runtime registration), the deterministic compilation of a scenario spec
into a pinned workload, and the network execution path — bit-identical
reruns across backends, blast-radius attribution, checkpoint resume,
store sidecar caching, and the campaign `kind: scenario` integration.
"""

import json

import pytest

from repro.analysis.store import ResultStore
from repro.campaign import CampaignError, CampaignSpec, emit, run_campaign
from repro.cluster.runner import (
    SIDECAR_KIND,
    ScenarioResult,
    realize_faults,
    run_scenario,
)
from repro.cluster.schedule import (
    SCHEDULERS,
    EasyScheduler,
    FCFSScheduler,
    Machine,
    ScheduledJob,
    compile_scenario,
    register_scheduler,
)
from repro.cluster.spec import (
    ArrivalSpec,
    FaultEvent,
    FaultScheduleSpec,
    JobMix,
    ScenarioSpec,
)
from repro.engine.config import SimulationConfig
from repro.engine.execute import execute_cached, execute_outcome, execute_point
from repro.engine.runspec import RunSpec
from repro.topology.dragonfly import Dragonfly


@pytest.fixture
def topo():
    return Dragonfly(2)  # 9 groups x 4 routers x 2 nodes = 72 nodes


def job(name, size, duration=1_000, arrival=0):
    return ScheduledJob(name=name, size=size, duration=duration,
                        pattern="UN", load=0.1, arrival=arrival)


def start_job(machine, j, now=0):
    assert machine.try_place(j)
    j.start, j.finish = now, now + j.duration
    return j


# ----------------------------------------------------------------------
# Schedulers
# ----------------------------------------------------------------------
class TestSchedulers:
    def test_fcfs_head_of_line_blocks_everyone(self, topo):
        machine = Machine(topo, "contiguous", 0)
        running = [start_job(machine, job("big", 70))]
        queue = [job("head", 10), job("tiny", 2)]
        started = FCFSScheduler().schedule(5, queue, machine, running)
        # head does not fit (2 nodes free), so tiny must wait too
        assert started == []
        assert [j.name for j in queue] == ["head", "tiny"]

    def test_easy_backfills_behind_the_shadow(self, topo):
        machine = Machine(topo, "contiguous", 0)
        running = [start_job(machine, job("big", 70, duration=1_000))]
        queue = [job("head", 10), job("tiny", 2, duration=100)]
        started = EasyScheduler().schedule(5, queue, machine, running)
        # tiny fits now and finishes by the shadow (big's release at
        # 1000), so it jumps the blocked head
        assert [j.name for j in started] == ["tiny"]
        assert [j.name for j in queue] == ["head"]
        assert started[0].start == 5 and started[0].finish == 105

    def test_easy_never_delays_the_head(self, topo):
        machine = Machine(topo, "contiguous", 0)
        running = [start_job(machine, job("big", 70, duration=1_000))]
        # head needs 71 nodes: at big's release 72 are available, so
        # only 1 node is spare at the shadow — a long 2-node job would
        # push the head past its reservation and must stay queued
        queue = [job("head", 71), job("long", 2, duration=5_000)]
        started = EasyScheduler().schedule(5, queue, machine, running)
        assert started == []
        assert [j.name for j in queue] == ["head", "long"]

    def test_easy_long_job_fits_the_spare_count(self, topo):
        machine = Machine(topo, "contiguous", 0)
        running = [start_job(machine, job("big", 70, duration=1_000))]
        # head needs 10: 62 nodes spare at the shadow, so even a job
        # outlasting the shadow may start when it fits that count
        queue = [job("head", 10), job("long", 2, duration=5_000)]
        started = EasyScheduler().schedule(5, queue, machine, running)
        assert [j.name for j in started] == ["long"]

    def test_registry_is_pluggable(self):
        class SJFScheduler(FCFSScheduler):
            name = "test-sjf"

            def schedule(self, now, queue, machine, running):
                queue.sort(key=lambda j: (j.size, j.name))
                return super().schedule(now, queue, machine, running)

        register_scheduler("test-sjf", SJFScheduler)
        try:
            spec = ScenarioSpec(scheduler="test-sjf", horizon=500)
            assert spec.scheduler == "test-sjf"
        finally:
            del SCHEDULERS["test-sjf"]
        with pytest.raises(ValueError, match="scheduler"):
            ScenarioSpec(scheduler="test-sjf")


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
SCENARIO = ScenarioSpec(
    arrivals=ArrivalSpec(kind="poisson", rate=0.02, jobs=5),
    mix=JobMix(sizes=((4, 1.0), (8, 1.0)), durations=((300, 1.0),),
               patterns=(("UN", 1.0),), loads=((0.25, 1.0),)),
    scheduler="easy",
    placement="random-nodes",
    faults=FaultScheduleSpec(rate=0.004, count=2, repair=300, seed=3),
    horizon=1_200,
    seed=9,
    blast_window=150,
)


def scenario_spec(routing="ofar", backend="object", scenario=SCENARIO):
    cfg = SimulationConfig.small(h=2, routing=routing, seed=19)
    return RunSpec.for_scenario(cfg, scenario, backend=backend)


def doc(result) -> str:
    """Canonical JSON of a ScenarioResult: byte-comparable where plain
    dict equality is not (empty blast windows are NaN, and NaN != NaN)."""
    return json.dumps(result.to_jsonable(), sort_keys=True)


class TestCompile:
    def test_deterministic(self, topo):
        a = compile_scenario(SCENARIO, topo)
        b = compile_scenario(SCENARIO, topo)
        assert a.workload == b.workload
        assert a.workload.to_jsonable() == b.workload.to_jsonable()
        assert a.utilization == b.utilization
        assert a.makespan == b.makespan

    def test_started_jobs_are_fully_pinned(self, topo):
        compiled = compile_scenario(SCENARIO, topo)
        assert compiled.started, "scenario must start at least one job"
        for js in compiled.workload.jobs:
            assert js.node_list is not None
            assert js.start is not None and js.stop > js.start

    def test_trace_arrivals_land_on_exact_cycles(self, topo):
        scenario = ScenarioSpec(
            arrivals=ArrivalSpec(kind="trace", interarrivals=(10, 20, 5)),
            mix=JobMix(sizes=((4, 1.0),), durations=((100, 1.0),)),
            horizon=1_000,
        )
        compiled = compile_scenario(scenario, topo)
        assert [j.arrival for j in compiled.jobs] == [10, 30, 35]

    def test_oversized_mix_rejected(self, topo):
        scenario = ScenarioSpec(mix=JobMix(sizes=((100, 1.0),)), horizon=500)
        with pytest.raises(ValueError, match="exceeds the machine"):
            compile_scenario(scenario, topo)

    def test_fault_realization_validates_and_sorts(self, topo):
        faults = FaultScheduleSpec(
            events=(FaultEvent(700, "restore", 1, 3),
                    FaultEvent(100, "fail", 1, 3)),
            rate=0.004, count=2, repair=300, seed=3,
        )
        events = realize_faults(faults, topo, 1_200)
        assert events == sorted(events)
        assert (100, "fail", 1, 3) in events
        for _, _, router, port in events:
            assert 0 <= router < topo.num_routers
            assert topo.node_ports <= port <= topo.ports_per_router
        with pytest.raises(ValueError, match="not a router link port"):
            realize_faults(
                FaultScheduleSpec(events=(FaultEvent(10, "fail", 0, 0),)),
                topo, 1_200,
            )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class TestRunScenario:
    def test_rerun_is_bit_identical(self):
        spec = scenario_spec()
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert doc(a) == doc(b)

    def test_array_backend_matches_object(self):
        pytest.importorskip("numpy")
        base = run_scenario(scenario_spec(backend="object"))
        arr = run_scenario(scenario_spec(backend="array"))
        assert doc(base) == doc(arr)

    def test_result_round_trips_through_json(self):
        result = run_scenario(scenario_spec())
        again = ScenarioResult.from_jsonable(result.to_jsonable())
        assert doc(again) == doc(result)

    def test_blast_rows_cover_concurrent_jobs_only(self, topo):
        result = run_scenario(scenario_spec())
        compiled = compile_scenario(SCENARIO, topo)
        fail_cycles = {c for c, a, _, _ in
                       realize_faults(SCENARIO.faults, topo, SCENARIO.horizon)
                       if a == "fail"}
        assert result.blast, "seeded faults must hit running jobs"
        for row in result.blast:
            assert row.cycle in fail_cycles
            j = next(x for x in compiled.started if x.name == row.job)
            assert j.start <= row.cycle < min(j.finish, SCENARIO.horizon)

    def test_scheduling_columns_identical_across_routings(self):
        """The schedule is compiled before the network runs, so only
        network metrics may differ between routings."""
        a = run_scenario(scenario_spec(routing="min"))
        b = run_scenario(scenario_spec(routing="ofar"))
        assert a.makespan == b.makespan
        assert a.fairness == b.fairness
        assert a.utilization == b.utilization
        assert [(r.name, r.wait, r.slowdown) for r in a.jobs] == \
               [(r.name, r.wait, r.slowdown) for r in b.jobs]

    def test_telemetry_does_not_perturb(self):
        from repro.telemetry.config import TelemetryConfig

        spec = scenario_spec()
        plain = run_scenario(spec)
        watched = execute_outcome(spec, telemetry=TelemetryConfig(interval=50))
        assert doc(watched.result) == doc(plain)
        assert watched.series is not None and watched.series.samples
        assert any(s.job_flow for s in watched.series.samples)


class TestCheckpointAndCache:
    def test_checkpointed_run_matches_plain(self, tmp_path):
        spec = scenario_spec()
        baseline = run_scenario(spec)
        store = ResultStore(tmp_path)
        total = execute_point(spec, store_root=store.root, snapshot_every=150)
        assert total == baseline.total
        payload = store.get_sidecar(SIDECAR_KIND, spec)
        assert json.dumps(payload, sort_keys=True) == doc(baseline)

    def test_sidecar_cache_hit_skips_the_network(self, tmp_path, monkeypatch):
        spec = scenario_spec()
        store = ResultStore(tmp_path)
        first = execute_cached(spec, store)
        monkeypatch.setattr(
            "repro.engine.execute.execute_outcome",
            lambda *_a, **_k: pytest.fail("cache hit must not re-run the scenario"),
        )
        second = execute_cached(spec, store)
        assert doc(second) == doc(first)

    def test_corrupt_sidecar_recomputes(self, tmp_path):
        spec = scenario_spec()
        store = ResultStore(tmp_path)
        baseline = execute_cached(spec, store)
        store.put_sidecar(SIDECAR_KIND, spec, {"format": 999})
        again = execute_cached(spec, store)
        assert doc(again) == doc(baseline)
        # and the overwrite healed the sidecar
        assert json.dumps(store.get_sidecar(SIDECAR_KIND, spec),
                          sort_keys=True) == doc(baseline)


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------
def scenario_mapping(**overrides):
    data = {
        "name": "churn",
        "kind": "scenario",
        "scale": "tiny",
        "combination": {"routing": ["min", "ofar"]},
        "scenario": {
            "arrivals": {"kind": "poisson", "rate": 0.02, "jobs": 4},
            "mix": {"sizes": [[4, 1.0]], "durations": [[300, 1.0]],
                    "loads": [[0.25, 1.0]]},
            "scheduler": "easy",
            "placement": "random-nodes",
            "faults": {"rate": 0.004, "count": 1, "repair": 200, "seed": 3},
            "horizon": 900,
            "seed": 9,
            "blast_window": 100,
        },
        "post": ["scenario_table", "blast_radius"],
    }
    data.update(overrides)
    return data


class TestScenarioCampaign:
    def test_runs_and_shares_the_schedule(self):
        campaign = CampaignSpec.from_mapping(scenario_mapping())
        run = run_campaign(campaign)
        assert len(run.outcomes) == 2
        assert run.scenario_results is not None
        a, b = run.scenario_results
        assert a.makespan == b.makespan
        assert a.fairness == b.fairness
        tables = dict(emit(run))
        assert "scenario_table" in tables and "blast_radius" in tables
        assert tables["scenario_table"].rows

    def test_orchestrated_matches_in_process(self, tmp_path):
        from repro.engine.orchestrator import Orchestrator

        campaign = CampaignSpec.from_mapping(scenario_mapping())
        plain = run_campaign(campaign)
        store = ResultStore(tmp_path)
        orch = run_campaign(campaign, Orchestrator(workers=0, store=store))
        assert [doc(r) for r in plain.scenario_results] == \
               [doc(r) for r in orch.scenario_results]
        # resume: everything cached
        again = run_campaign(campaign, Orchestrator(workers=0, store=store))
        assert again.counts["cached"] == again.counts["total"]

    def test_pattern_axis_rejected(self):
        with pytest.raises(CampaignError, match="job mix"):
            CampaignSpec.from_mapping(scenario_mapping(
                combination={"routing": ["min"], "pattern": ["UN"]}
            ))

    def test_windows_rejected(self):
        with pytest.raises(CampaignError, match="windows"):
            CampaignSpec.from_mapping(scenario_mapping(
                windows={"warmup": 10, "measure": 10}
            ))

    def test_scenario_section_needs_scenario_kind(self):
        data = scenario_mapping()
        data["kind"] = "steady"
        data["combination"] = {"routing": ["min"], "pattern": ["UN"],
                               "load": [0.1]}
        with pytest.raises(CampaignError, match="scenario"):
            CampaignSpec.from_mapping(data)

    def test_scenario_kind_needs_scenario_section(self):
        data = scenario_mapping()
        del data["scenario"]
        with pytest.raises(CampaignError, match="scenario"):
            CampaignSpec.from_mapping(data)
