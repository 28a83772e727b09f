"""Property-style suite: every frozen spec type round-trips losslessly.

One generator of "interesting" instances per spec type (RunSpec — with
workload and telemetry sidecar variants — WorkloadSpec, JobSpec,
TelemetryConfig, SimulationConfig), one set of properties checked over
all of them: ``from_jsonable(to_jsonable(x)) == x``, the JSON text form
agrees, a second round trip is a fixed point, and the fingerprint (for
RunSpec) is invariant under the trip.  This is the contract the result
store, the snapshot codec and the orchestrator's process boundary all
lean on.
"""

import dataclasses
import json

import pytest

from repro.cluster.spec import (
    ArrivalSpec,
    FaultEvent,
    FaultScheduleSpec,
    JobMix,
    ScenarioSpec,
)
from repro.engine.config import SimulationConfig
from repro.engine.runspec import RunSpec, TransientSpec
from repro.telemetry.config import TelemetryConfig
from repro.workloads.spec import JobSpec, WorkloadSpec

# ----------------------------------------------------------------------
# Instance generators
# ----------------------------------------------------------------------
JOB_SPECS = [
    JobSpec(name="plain", nodes=8),
    JobSpec(name="adv", nodes=16, pattern="ADV+2", load=0.35),
    JobSpec(name="late", nodes=4, pattern="SHIFT+3", load=0.05,
            start=1_000, stop=9_999),
    JobSpec(name="burst", nodes=6, traffic="burst", packets_per_node=7),
    # explicit placement pins (bypass the placement policy entirely)
    JobSpec(name="pinned", node_list=(3, 1, 41, 7), pattern="PERM"),
    JobSpec(name="pinned-burst", node_list=(0, 70), traffic="burst",
            packets_per_node=2, start=5),
    JobSpec(name="stencil", nodes=9, pattern="STENCIL", load=1.0),
]

WORKLOAD_SPECS = [
    WorkloadSpec(jobs=(JOB_SPECS[0],)),
    WorkloadSpec(jobs=tuple(JOB_SPECS), placement="round-robin-groups"),
    WorkloadSpec(jobs=(JOB_SPECS[1], JOB_SPECS[4]), placement="random-nodes",
                 placement_seed=99),
    WorkloadSpec(jobs=(JOB_SPECS[2], JOB_SPECS[3]), placement="group-exclusive"),
]

TELEMETRY_CONFIGS = [
    TelemetryConfig(),
    TelemetryConfig(interval=1, capacity=1),
    TelemetryConfig(interval=250, capacity=64, per_link=True),
]

CONFIGS = [
    SimulationConfig.small(h=2, routing="ofar", seed=7),
    SimulationConfig.small(h=3, routing="pb", seed=1),
    SimulationConfig.small(h=2, routing="ofar", escape="embedded",
                           escape_rings=2, seed=5),
    SimulationConfig.small(h=2, routing="par", local_vcs=4,
                           input_read_ports=2, congestion_control=True),
]

ARRIVAL_SPECS = [
    ArrivalSpec(),
    ArrivalSpec(kind="poisson", rate=0.02, jobs=3),
    ArrivalSpec(kind="closed", rate=0.005, jobs=6),
    ArrivalSpec(kind="trace", interarrivals=(0, 150, 7, 2_000)),
]

JOB_MIXES = [
    JobMix(),
    JobMix(sizes=((4, 2.0), (8, 1.0), (16, 0.5)),
           durations=((500, 1.0), (2_000, 3.0)),
           patterns=(("UN", 3.0), ("ADV+2", 1.0), ("STENCIL", 0.25)),
           loads=((0.1, 1.0), (0.45, 2.0))),
]

FAULT_SCHEDULES = [
    FaultScheduleSpec(),
    FaultScheduleSpec(events=(FaultEvent(100, "fail", 3, 2),
                              FaultEvent(700, "restore", 3, 2))),
    FaultScheduleSpec(rate=0.001, count=4, repair=250, seed=17),
    FaultScheduleSpec(events=(FaultEvent(50, "fail", 0, 1),),
                      rate=0.002, count=1, seed=5),
]

SCENARIO_SPECS = [
    ScenarioSpec(),
    ScenarioSpec(arrivals=ARRIVAL_SPECS[1], mix=JOB_MIXES[1],
                 scheduler="easy", placement="random-nodes",
                 placement_seed=42, faults=FAULT_SCHEDULES[2],
                 horizon=5_000, seed=11, blast_window=200),
    ScenarioSpec(arrivals=ARRIVAL_SPECS[3], scheduler="fcfs",
                 placement="round-robin-groups",
                 faults=FAULT_SCHEDULES[1], horizon=3_000, seed=2),
    ScenarioSpec(arrivals=ARRIVAL_SPECS[2], scheduler="easy",
                 faults=FAULT_SCHEDULES[3], horizon=1_000),
]

RUN_SPECS = [
    RunSpec(CONFIGS[0], "UN", 0.1),
    RunSpec(CONFIGS[1], "ADV+1", 0.55, warmup=123, measure=4_567),
    RunSpec(CONFIGS[2], "MIX2", 0.0, warmup=0, measure=1),
    # telemetry sidecar riding along (excluded from identity)
    RunSpec(CONFIGS[0], "ADV+2", 0.3, telemetry=TELEMETRY_CONFIGS[2]),
    # workload specs, including one with explicit node_list pins
    RunSpec.for_workload(CONFIGS[0], WORKLOAD_SPECS[1], warmup=300, measure=300),
    RunSpec.for_workload(CONFIGS[3], WORKLOAD_SPECS[2], warmup=10, measure=20,
                         telemetry=TELEMETRY_CONFIGS[1]),
    # cluster scenarios: churn + faults + scheduling over a horizon
    RunSpec.for_scenario(CONFIGS[0], SCENARIO_SPECS[1]),
    RunSpec.for_scenario(CONFIGS[1], SCENARIO_SPECS[2],
                         telemetry=TELEMETRY_CONFIGS[0]),
    # pattern switch (Fig. 6) and burst consumption (Fig. 7)
    RunSpec.for_transient(CONFIGS[0], TransientSpec("UN", "ADV+1", 300, 400, 10), 0.2),
    RunSpec.for_burst(CONFIGS[1], "MIX2", 7, max_cycles=5_000),
]


def _identity(spec: RunSpec) -> RunSpec:
    """The spec minus its observation sidecar (what the JSON form keeps)."""
    from dataclasses import replace

    return replace(spec, telemetry=None)


# ----------------------------------------------------------------------
# The properties
# ----------------------------------------------------------------------
class TestJobSpecRoundTrip:
    @pytest.mark.parametrize("job", JOB_SPECS, ids=lambda j: j.name)
    def test_lossless(self, job):
        assert JobSpec.from_jsonable(job.to_jsonable()) == job

    @pytest.mark.parametrize("job", JOB_SPECS, ids=lambda j: j.name)
    def test_jsonable_is_json_safe_and_stable(self, job):
        blob = json.dumps(job.to_jsonable(), sort_keys=True)
        again = JobSpec.from_jsonable(json.loads(blob))
        assert json.dumps(again.to_jsonable(), sort_keys=True) == blob

    def test_node_list_pins_survive_as_tuple(self):
        job = JobSpec.from_jsonable(
            JobSpec(name="p", node_list=(9, 2, 5)).to_jsonable()
        )
        assert job.node_list == (9, 2, 5)
        assert isinstance(job.node_list, tuple)

    def test_unknown_keys_rejected(self):
        data = JOB_SPECS[0].to_jsonable()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown JobSpec keys"):
            JobSpec.from_jsonable(data)


class TestWorkloadSpecRoundTrip:
    @pytest.mark.parametrize(
        "workload", WORKLOAD_SPECS, ids=[w.placement for w in WORKLOAD_SPECS]
    )
    def test_lossless(self, workload):
        assert WorkloadSpec.from_jsonable(workload.to_jsonable()) == workload

    @pytest.mark.parametrize(
        "workload", WORKLOAD_SPECS, ids=[w.placement for w in WORKLOAD_SPECS]
    )
    def test_text_form_fixed_point(self, workload):
        text = workload.to_json()
        again = WorkloadSpec.from_json(text)
        assert again == workload
        assert again.to_json() == text

    def test_unknown_keys_rejected(self):
        data = WORKLOAD_SPECS[0].to_jsonable()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown WorkloadSpec keys"):
            WorkloadSpec.from_jsonable(data)


class TestTelemetryConfigRoundTrip:
    @pytest.mark.parametrize("tcfg", TELEMETRY_CONFIGS,
                             ids=lambda t: f"i{t.interval}")
    def test_lossless(self, tcfg):
        assert TelemetryConfig.from_jsonable(tcfg.to_jsonable()) == tcfg


class TestArrivalSpecRoundTrip:
    @pytest.mark.parametrize("arr", ARRIVAL_SPECS, ids=lambda a: a.kind)
    def test_lossless(self, arr):
        assert ArrivalSpec.from_jsonable(arr.to_jsonable()) == arr

    def test_trace_gaps_survive_as_tuple(self):
        again = ArrivalSpec.from_jsonable(ARRIVAL_SPECS[3].to_jsonable())
        assert again.interarrivals == (0, 150, 7, 2_000)
        assert isinstance(again.interarrivals, tuple)

    def test_unknown_keys_rejected(self):
        data = ARRIVAL_SPECS[0].to_jsonable()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown ArrivalSpec keys"):
            ArrivalSpec.from_jsonable(data)


class TestFaultScheduleRoundTrip:
    @pytest.mark.parametrize("faults", FAULT_SCHEDULES,
                             ids=["empty", "timed", "random", "mixed"])
    def test_lossless(self, faults):
        assert FaultScheduleSpec.from_jsonable(faults.to_jsonable()) == faults

    def test_events_survive_as_fault_event_tuple(self):
        again = FaultScheduleSpec.from_jsonable(FAULT_SCHEDULES[1].to_jsonable())
        assert again.events == (FaultEvent(100, "fail", 3, 2),
                                FaultEvent(700, "restore", 3, 2))
        assert all(isinstance(e, FaultEvent) for e in again.events)

    def test_unknown_keys_rejected(self):
        data = FAULT_SCHEDULES[0].to_jsonable()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown FaultScheduleSpec keys"):
            FaultScheduleSpec.from_jsonable(data)
        event = FaultEvent(1, "fail", 0, 0).to_jsonable()
        event["surprise"] = 1
        with pytest.raises(ValueError, match="unknown FaultEvent keys"):
            FaultEvent.from_jsonable(event)


class TestScenarioSpecRoundTrip:
    @pytest.mark.parametrize(
        "scenario", SCENARIO_SPECS,
        ids=[f"{s.scheduler}-{s.arrivals.kind}" for s in SCENARIO_SPECS],
    )
    def test_lossless(self, scenario):
        assert ScenarioSpec.from_jsonable(scenario.to_jsonable()) == scenario

    @pytest.mark.parametrize(
        "scenario", SCENARIO_SPECS,
        ids=[f"{s.scheduler}-{s.arrivals.kind}" for s in SCENARIO_SPECS],
    )
    def test_text_form_fixed_point(self, scenario):
        text = scenario.to_json()
        again = ScenarioSpec.from_json(text)
        assert again == scenario
        assert again.to_json() == text

    @pytest.mark.parametrize(
        "scenario", SCENARIO_SPECS,
        ids=[f"{s.scheduler}-{s.arrivals.kind}" for s in SCENARIO_SPECS],
    )
    def test_fingerprint_invariant_under_round_trip(self, scenario):
        trip = ScenarioSpec.from_json(scenario.to_json())
        assert trip.fingerprint() == scenario.fingerprint()

    def test_unknown_keys_rejected(self):
        data = SCENARIO_SPECS[0].to_jsonable()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown ScenarioSpec keys"):
            ScenarioSpec.from_jsonable(data)

    def test_bad_scheduler_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            ScenarioSpec(scheduler="lottery")


class TestSimulationConfigRoundTrip:
    @pytest.mark.parametrize(
        "cfg", CONFIGS, ids=[f"{c.routing}-h{c.h}" for c in CONFIGS]
    )
    def test_lossless(self, cfg):
        assert SimulationConfig.from_json(cfg.to_json()) == cfg


class TestRunSpecRoundTrip:
    @pytest.mark.parametrize("spec", RUN_SPECS, ids=lambda s: s.label())
    def test_lossless_modulo_observation(self, spec):
        # telemetry is an observation sidecar, deliberately not identity
        assert RunSpec.from_jsonable(spec.to_jsonable()) == _identity(spec)

    @pytest.mark.parametrize("spec", RUN_SPECS, ids=lambda s: s.label())
    def test_second_trip_is_fixed_point(self, spec):
        once = RunSpec.from_jsonable(spec.to_jsonable())
        twice = RunSpec.from_jsonable(once.to_jsonable())
        assert twice == once
        assert twice.to_jsonable() == once.to_jsonable()

    @pytest.mark.parametrize("spec", RUN_SPECS, ids=lambda s: s.label())
    def test_fingerprint_invariant_under_round_trip(self, spec):
        assert RunSpec.from_json(spec.to_json()).fingerprint() == spec.fingerprint()

    def test_telemetry_excluded_from_fingerprint_and_json(self):
        bare = RUN_SPECS[0]
        watched = RunSpec(bare.config, bare.pattern_spec, bare.load,
                          bare.warmup, bare.measure,
                          telemetry=TelemetryConfig(interval=5))
        assert watched.fingerprint() == bare.fingerprint()
        assert watched.to_jsonable() == bare.to_jsonable()

    def test_scenario_participates_in_fingerprint(self):
        a = RunSpec.for_scenario(CONFIGS[0], SCENARIO_SPECS[1])
        tweaked = ScenarioSpec.from_jsonable(
            {**SCENARIO_SPECS[1].to_jsonable(), "seed": 999}
        )
        b = RunSpec.for_scenario(CONFIGS[0], tweaked)
        assert a.fingerprint() != b.fingerprint()
        # and the scenario itself survives the RunSpec round trip
        again = RunSpec.from_json(a.to_json())
        assert again.scenario == SCENARIO_SPECS[1]

    def test_workload_participates_in_fingerprint(self):
        a = RUN_SPECS[4]
        other = WorkloadSpec(jobs=(JOB_SPECS[0],))
        b = RunSpec.for_workload(a.config, other, a.warmup, a.measure)
        assert a.fingerprint() != b.fingerprint()

    def test_transient_and_burst_participate_in_fingerprint(self):
        transient, burst = RUN_SPECS[-2:]
        keys = [set(s.to_jsonable()) - set(RUN_SPECS[0].to_jsonable()) for s in RUN_SPECS]
        assert keys[-2:] == [{"transient"}, {"burst"}]
        assert not any("transient" in k or "burst" in k for k in keys[:-2])
        switched = dataclasses.replace(
            transient, transient=dataclasses.replace(transient.transient, after="UN"))
        assert switched.fingerprint() != transient.fingerprint()
        assert dataclasses.replace(burst, burst=8).fingerprint() != burst.fingerprint()

    @pytest.mark.parametrize("make", [
        lambda: TransientSpec("UN", "UN", 0, 10),
        lambda: TransientSpec("UN", "UN", 10, 0),
        lambda: TransientSpec("UN", "UN", 10, 10, bucket=0),
        lambda: RunSpec.for_burst(CONFIGS[0], "UN", 0),
        lambda: RunSpec(CONFIGS[0], "UN", 0.1, 0, 50, burst=3),  # burst at a load
        lambda: RunSpec(CONFIGS[0], "transient", 0.1, 0, 10,  # measure < switch + post
                        transient=TransientSpec("UN", "UN", 10, 10)),
        lambda: RunSpec(CONFIGS[0], "UN", 0.0, 0, 50, burst=3, max_windows=2),
    ])
    def test_transient_and_burst_canonical_form(self, make):
        with pytest.raises(ValueError):
            make()

    def test_unknown_keys_rejected(self):
        data = RUN_SPECS[0].to_jsonable()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown RunSpec keys"):
            RunSpec.from_jsonable(data)
