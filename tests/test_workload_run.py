"""Tests for running workloads: attribution, determinism, integration.

The description layer is covered by ``test_workloads.py``; here the
composite actually drives the engine.  The two determinism-under-
composition guarantees the subsystem rests on:

- a single job spanning the whole machine through ``CompositeTraffic``
  produces a **bit-identical** LoadPoint to running that job's derived
  generator directly (composition adds nothing);
- per-job metrics are a **partition** of the global ones — counts sum
  exactly, throughputs sum after node-count weighting.
"""

import dataclasses
import math

import pytest

from repro.analysis.store import ResultStore
from repro.engine.config import SimulationConfig
from repro.engine.execute import execute_cached, execute_outcome
from repro.engine.runner import run_spec
from repro.engine.runspec import RunSpec
from repro.engine.simulator import Simulator
from repro.topology.dragonfly import Dragonfly
from repro.workloads.composite import build_job_generator
from repro.workloads.runner import (
    SIDECAR_KIND,
    WorkloadResult,
    isolated_spec,
    jain_across_jobs,
    job_slowdowns,
    run_workload,
)
from repro.workloads.spec import JobSpec, WorkloadSpec


def cfg(seed=9, routing="ofar"):
    return SimulationConfig.small(h=2, routing=routing, seed=seed)


def two_job_spec(seed=9, warmup=100, measure=200, routing="ofar"):
    workload = WorkloadSpec(
        jobs=(
            JobSpec(name="a", nodes=36, pattern="UN", load=0.2),
            JobSpec(name="b", nodes=36, pattern="ADV+2", load=0.3),
        ),
        placement="round-robin-groups",
    )
    return RunSpec.for_workload(cfg(seed, routing), workload,
                                warmup=warmup, measure=measure)


class TestRunSpecWorkload:
    def test_fingerprint_round_trip(self):
        s = two_job_spec()
        back = RunSpec.from_json(s.to_json())
        assert back == s
        assert back.fingerprint() == s.fingerprint()

    def test_workload_key_omitted_when_none(self):
        """Single-tenant fingerprints must not change: the JSON form of
        a plain spec has no "workload" key at all."""
        plain = RunSpec(cfg(), "UN", 0.2, 100, 100)
        assert "workload" not in plain.to_jsonable()

    def test_sentinel_fields_enforced(self):
        w = two_job_spec().workload
        with pytest.raises(ValueError):
            RunSpec(cfg(), "UN", 0.2, 100, 100, workload=w)
        with pytest.raises(ValueError):
            RunSpec(cfg(), "workload", 0.1, 100, 100, workload=w)

    def test_label_counts_jobs(self):
        assert "workload[2 jobs]" in two_job_spec().label()

    def test_distinct_workloads_distinct_fingerprints(self):
        a = two_job_spec()
        jobs = a.workload.jobs
        b = dataclasses.replace(
            a, workload=WorkloadSpec(
                jobs=(jobs[0], dataclasses.replace(jobs[1], load=0.4)),
                placement=a.workload.placement,
            )
        )
        assert a.fingerprint() != b.fingerprint()


class TestDeterminismUnderComposition:
    def test_single_job_bit_identical_to_direct_run(self):
        """Wrapping one whole-machine job in CompositeTraffic changes
        nothing: the global LoadPoint is bit-for-bit the direct run's."""
        config = cfg(seed=21)
        topo = Dragonfly(config.h)
        job = JobSpec(name="only", nodes=topo.num_nodes, pattern="UN",
                      load=0.2)
        spec = RunSpec.for_workload(
            config, WorkloadSpec(jobs=(job,)), warmup=100, measure=200
        )
        result = run_workload(spec)

        sim = Simulator(config, record_per_source=True)
        sim.generator = build_job_generator(
            sim.network.topo, job, tuple(range(topo.num_nodes)),
            config.packet_size, config.seed,
        )
        sim.warm_up(100)
        sim.run(200)
        direct = sim.metrics.load_point(job.load, sim.cycle)

        assert result.total == direct  # exact dataclass equality

    def test_single_job_point_matches_total(self):
        """With one job owning every node, the per-job LoadPoint agrees
        with the global one on every shared field (the per-source
        fairness pair is global-only and stays NaN per job)."""
        spec = RunSpec.for_workload(
            cfg(seed=21),
            WorkloadSpec(jobs=(JobSpec(name="only", nodes=72, pattern="UN",
                                       load=0.2),)),
            warmup=100, measure=200,
        )
        result = run_workload(spec)
        total = dataclasses.asdict(result.total)
        only = dataclasses.asdict(result.jobs[0].point)
        for name, value in only.items():
            if name in ("jain_index", "worst_source_share"):
                assert math.isnan(value)
            else:
                assert value == total[name], name

    def test_per_job_metrics_partition_global(self):
        result = run_workload(two_job_spec())
        total = result.total
        assert sum(jr.point.ejected_packets for jr in result.jobs) == \
            total.ejected_packets
        # Throughput is per job node; weighting by node count recovers
        # the global per-node figure exactly (same integer phit sums).
        weighted = sum(
            jr.point.throughput * jr.num_nodes for jr in result.jobs
        )
        assert weighted == pytest.approx(total.throughput * 72, rel=1e-12)

    def test_repeat_runs_bit_identical(self):
        a = run_workload(two_job_spec())
        b = run_workload(two_job_spec())
        assert a.to_jsonable() == b.to_jsonable()


class TestAttribution:
    def test_interference_matrix_shape(self):
        result = run_workload(two_job_spec())
        m = result.interference
        assert len(m) == 2 and all(len(row) == 2 for row in m)
        assert m[0][1] == m[1][0]  # symmetric
        assert all(x >= 0.0 for row in m for x in row)
        assert m[0][1] > 0.0  # round-robin placement: they must meet

    def test_group_exclusive_uniform_jobs_never_meet(self):
        """Two single-group jobs with intra-job uniform traffic share no
        channel, so their interference energy is exactly zero."""
        spec = RunSpec.for_workload(
            cfg(seed=5),
            WorkloadSpec(
                jobs=(JobSpec(name="a", nodes=8, pattern="UN", load=0.3),
                      JobSpec(name="b", nodes=8, pattern="UN", load=0.3)),
                placement="group-exclusive",
            ),
            warmup=100, measure=200,
        )
        result = run_workload(spec)
        assert result.interference[0][1] == 0.0
        assert result.interference[0][0] > 0.0  # each still loads links

    def test_jain_across_jobs(self):
        assert jain_across_jobs([0.2, 0.2, 0.2]) == pytest.approx(1.0)
        assert jain_across_jobs([0.4, 0.0]) == pytest.approx(0.5)
        assert jain_across_jobs([]) == 1.0
        assert jain_across_jobs([float("nan"), 0.3]) == pytest.approx(1.0)

    def test_result_json_round_trip(self):
        result = run_workload(two_job_spec())
        back = WorkloadResult.from_jsonable(result.to_jsonable())
        assert back.to_jsonable() == result.to_jsonable()
        assert back.job("a").point.as_row() == result.job("a").point.as_row()


class TestIsolationAndSlowdown:
    def test_isolated_spec_pins_exact_nodes(self):
        spec = two_job_spec()
        iso = isolated_spec(spec, "b")
        assert len(iso.workload.jobs) == 1
        pinned = iso.workload.jobs[0]
        assert pinned.name == "b"
        assert pinned.nodes == 0 and len(pinned.node_list) == 36
        # Round-robin with a placed ahead: b owns the upper half of each
        # group's 8-node range; isolation must not re-place it elsewhere.
        expected = tuple(sorted(g * 8 + k for g in range(9) for k in (4, 5, 6, 7)))
        assert pinned.node_list == expected

    def test_slowdown_at_least_one_under_contention(self):
        spec = two_job_spec()
        shared = run_workload(spec)
        isolated = {
            name: run_workload(isolated_spec(spec, name))
            for name in ("a", "b")
        }
        slow = job_slowdowns(shared, isolated)
        assert set(slow) == {"a", "b"}
        # Removing the neighbour can only help: latency-based slowdown
        # stays >= ~1 (small tolerance for windowing noise).
        assert slow["a"] > 0.95 and slow["b"] > 0.95


class TestRunLayerIntegration:
    def test_run_spec_dispatches_to_workload(self):
        spec = two_job_spec()
        assert run_spec(spec) == run_workload(spec).total

    def test_sidecar_cache_hit_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = two_job_spec()
        fresh = execute_cached(spec, store)
        assert store.get_sidecar(SIDECAR_KIND, spec) is not None
        assert store.get(spec) == fresh.total  # main store entry too
        hit = execute_cached(spec, store)
        assert hit.to_jsonable() == fresh.to_jsonable()
        assert store.stats.hits >= 1

    def test_corrupt_sidecar_recomputed(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = two_job_spec()
        fresh = execute_cached(spec, store)
        store.sidecar_path(SIDECAR_KIND, spec.fingerprint()).write_text(
            "{ not json"
        )
        again = execute_cached(spec, store)
        assert again.to_jsonable() == fresh.to_jsonable()

    def test_sidecar_kind_validated(self, tmp_path):
        store = ResultStore(tmp_path)
        for kind in ("", "objects", "a/b"):
            with pytest.raises(ValueError):
                store.sidecar_path(kind, "ab" * 32)

    def test_telemetry_observes_without_perturbing(self):
        from repro.telemetry.config import TelemetryConfig

        spec = two_job_spec()
        plain = run_workload(spec)
        outcome = execute_outcome(spec, telemetry=TelemetryConfig(interval=50))
        result, series = outcome.result, outcome.series
        assert result.to_jsonable() == plain.to_jsonable()
        assert outcome.point == plain.total
        assert series is not None and series.samples
        flows = [s.job_flow for s in series.samples if s.job_flow]
        assert flows, "multi-job run must sample per-job flow"
        assert set(flows[-1]) <= {"0", "1"}
        assert all(f["0"]["ejected"] > 0 for f in flows if "0" in f)
