"""Mid-run checkpointing: crash recovery without a reproducibility tax.

Covers the point executor's ``snapshot_every`` mode
(repro.engine.execute over repro.snapshot.checkpoint) and the
orchestrator's integration of it: checkpointed runs produce bit-identical
results, a resume picks up from the last checkpoint instead of cycle 0,
corruption reads as a miss, and — the headline — a worker SIGKILLed
mid-point is retried and resumes from its own checkpoint, ending with
the identical final result.
"""

import dataclasses
import functools
import json
import os
import signal

import pytest

from repro.analysis.store import ResultStore
from repro.engine.config import SimulationConfig
from repro.engine.execute import execute_outcome, execute_point, kind_of
from repro.engine.orchestrator import Orchestrator
from repro.engine.runner import run_spec
from repro.engine.runspec import RunSpec, TransientSpec
from repro.snapshot.checkpoint import checkpoint_path, load_checkpoint


def checkpointed(spec, store_root, snapshot_every, **options):
    return execute_point(
        spec, store_root=store_root, snapshot_every=snapshot_every, **options
    )


def point_doc(pt) -> dict:
    return {k: repr(v) for k, v in dataclasses.asdict(pt).items()}


def steady_spec(seed=7, max_windows=None) -> RunSpec:
    cfg = SimulationConfig.small(h=2, routing="ofar", seed=seed)
    return RunSpec(cfg, "ADV+1", 0.3, warmup=200, measure=200,
                   max_windows=max_windows)


def workload_spec() -> RunSpec:
    from repro.workloads.spec import JobSpec, WorkloadSpec

    workload = WorkloadSpec(
        jobs=(
            JobSpec(name="steady", nodes=24, pattern="UN", load=0.15),
            JobSpec(name="bully", nodes=24, pattern="ADV+2", load=0.3,
                    start=150, stop=450),
            JobSpec(name="burst", nodes=8, traffic="burst", packets_per_node=2),
        ),
        placement="round-robin-groups",
    )
    cfg = SimulationConfig.small(h=2, routing="ofar", seed=17)
    return RunSpec.for_workload(cfg, workload, warmup=300, measure=300)


def scenario_spec() -> RunSpec:
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


def transient_spec() -> RunSpec:
    cfg = SimulationConfig.small(h=2, routing="ofar", seed=13)
    return RunSpec.for_transient(
        cfg, TransientSpec("UN", "ADV+2", switch=200, post=200), 0.3,
        drain_margin=300,
    )


def burst_spec() -> RunSpec:
    # Drains at cycle 149: checkpoints every 64 or 90 cycles land
    # mid-backlog.
    cfg = SimulationConfig.small(h=2, routing="ofar", seed=11)
    return RunSpec.for_burst(cfg, "ADV+2", 4)


class TestRunSpecCheckpointed:
    # max_windows: a windowed-convergence spec (``repro sweep
    # --saturating``) checkpoints like a fixed-window one.
    @pytest.mark.parametrize("max_windows", [None, 4], ids=["fixed", "max_windows"])
    def test_identical_to_plain_run(self, tmp_path, max_windows):
        spec = steady_spec(max_windows=max_windows)
        pt = checkpointed(spec, tmp_path, snapshot_every=64)
        assert point_doc(pt) == point_doc(run_spec(spec))

    def test_checkpoint_removed_on_success(self, tmp_path):
        spec = steady_spec()
        checkpointed(spec, tmp_path, snapshot_every=64)
        assert not checkpoint_path(tmp_path, spec.fingerprint()).exists()

    @pytest.mark.parametrize("max_windows,saves,cycle", [
        pytest.param(None, 2, 128, id="fixed"),
        # 7 saves land in the *second* window (cycles 400-600): the
        # resumed run needs the first window's throughput to converge.
        pytest.param(4, 7, 448, id="max_windows"),
    ])
    def test_resume_from_midrun_checkpoint(self, tmp_path, max_windows, saves, cycle):
        # Kill the first run right after a checkpoint lands, organically.
        spec = steady_spec(max_windows=max_windows)
        ref = point_doc(run_spec(spec))
        _CheckpointBomb(after=saves).arm()
        with pytest.raises(_Boom):
            checkpointed(spec, tmp_path, snapshot_every=64)
        snap = load_checkpoint(tmp_path, spec)
        assert snap is not None and snap.cycle == cycle
        if max_windows is not None:
            assert snap.extras["window"] == 1 and "previous" in snap.extras
        pt = checkpointed(spec, tmp_path, snapshot_every=64)
        assert point_doc(pt) == ref

    def test_corrupt_checkpoint_reads_as_miss(self, tmp_path):
        spec = steady_spec()
        path = checkpoint_path(tmp_path, spec.fingerprint())
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        pt = checkpointed(spec, tmp_path, snapshot_every=64)
        assert point_doc(pt) == point_doc(run_spec(spec))

    def test_foreign_spec_checkpoint_ignored(self, tmp_path):
        # A checkpoint for seed=9 parked under seed=7's slot must be a miss.
        other = steady_spec(seed=9)
        from repro.engine.runner import build_steady_sim
        from repro.snapshot import Snapshot

        sim = build_steady_sim(other)
        sim.run(30)
        spec = steady_spec(seed=7)
        Snapshot.capture(sim, spec=other).save(
            str(checkpoint_path(tmp_path, spec.fingerprint()))
        )
        assert load_checkpoint(tmp_path, spec) is None
        pt = checkpointed(spec, tmp_path, snapshot_every=64)
        assert point_doc(pt) == point_doc(run_spec(spec))

    def test_workload_spec_checkpointed(self, tmp_path):
        from repro.workloads.runner import (
            SIDECAR_KIND,
            WorkloadResult,
            run_workload,
        )

        spec = workload_spec()
        ref = run_workload(spec)
        pt = checkpointed(spec, tmp_path, snapshot_every=100)
        assert point_doc(pt) == point_doc(ref.total)
        payload = ResultStore(tmp_path).get_sidecar(SIDECAR_KIND, spec)
        assert payload is not None
        full = WorkloadResult.from_jsonable(payload)
        assert [[repr(x) for x in row] for row in full.interference] == [
            [repr(x) for x in row] for row in ref.interference
        ]

    def test_telemetry_series_survives_checkpointed_run(self, tmp_path):
        from repro.telemetry.config import TelemetryConfig

        spec = steady_spec()
        tcfg = TelemetryConfig(interval=50, per_link=True)
        ref = execute_outcome(spec, telemetry=tcfg)
        pt_ref, series_ref = ref.point, ref.series
        tdir = tmp_path / "telemetry"
        pt = checkpointed(
            spec, tmp_path, snapshot_every=64, telemetry=tcfg, telemetry_dir=tdir
        )
        assert point_doc(pt) == point_doc(pt_ref)
        from repro.telemetry.export import write_jsonl

        fp = spec.fingerprint()
        ref_path = tmp_path / "ref.jsonl"
        write_jsonl(series_ref, ref_path)
        assert (tdir / fp[:2] / f"{fp}.jsonl").read_text() == ref_path.read_text()

    def test_snapshot_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            checkpointed(steady_spec(), tmp_path, snapshot_every=0)

    @pytest.mark.parametrize("make_spec", [
        steady_spec,
        functools.partial(steady_spec, max_windows=4),
        workload_spec,
        scenario_spec,
        transient_spec,
        burst_spec,
    ], ids=["steady", "max_windows", "workload", "scenario", "transient", "burst"])
    def test_one_executor_both_modes(self, tmp_path, make_spec):
        """``snapshot_every`` only adds segment boundaries: the same
        function yields byte-identical LoadPoints and sidecars with it
        (many segments, checkpoints written and cleared) and without
        it (one segment per phase, no checkpoint file touched)."""
        spec = make_spec()
        plain_root, ckpt_root = tmp_path / "plain", tmp_path / "ckpt"
        plain = execute_point(spec, store_root=plain_root)
        assert not (plain_root / "snapshots").exists()
        ckpt = execute_point(spec, store_root=ckpt_root, snapshot_every=90)
        assert ckpt.to_json() == plain.to_json()
        kind = kind_of(spec).sidecar
        if kind is not None:
            docs = [
                json.dumps(ResultStore(root).get_sidecar(kind, spec), sort_keys=True)
                for root in (plain_root, ckpt_root)
            ]
            assert docs[0] == docs[1] and docs[0] != "null"


class _Boom(RuntimeError):
    pass


class _CheckpointBomb:
    """Patch Snapshot.save to raise after N saves (in-process crash)."""

    def __init__(self, after: int):
        self.after = after
        self.count = 0

    def arm(self) -> bool:
        from repro.snapshot import snapshot as snapmod

        original = snapmod.Snapshot.save
        bomb = self

        def exploding_save(snap_self, path):
            original(snap_self, path)
            bomb.count += 1
            if bomb.count >= bomb.after:
                snapmod.Snapshot.save = original
                raise _Boom("simulated crash after checkpoint write")

        snapmod.Snapshot.save = exploding_save
        return True


# ----------------------------------------------------------------------
# Orchestrator integration
# ----------------------------------------------------------------------
def _sigkill_once_worker(store_root, every, flag_path, resume_log, spec):
    """Module-level (picklable) worker: first attempt checkpoints then
    SIGKILLs itself right after the first checkpoint write lands; the
    retry records where it resumed from and finishes normally."""
    from repro.snapshot import snapshot as snapmod
    from repro.snapshot.checkpoint import load_checkpoint

    if not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("armed")
        original = snapmod.Snapshot.save

        def save_and_die(snap_self, path):
            original(snap_self, path)
            os.kill(os.getpid(), signal.SIGKILL)

        snapmod.Snapshot.save = save_and_die
    else:
        snap = load_checkpoint(store_root, spec)
        with open(resume_log, "w") as fh:
            fh.write(str(snap.cycle if snap is not None else -1))
    return checkpointed(spec, store_root, every)


def _always_fail_worker(spec):
    raise RuntimeError("boom")


class TestOrchestratorCheckpointing:
    def test_snapshot_every_requires_store(self):
        with pytest.raises(ValueError, match="store"):
            Orchestrator(workers=0, snapshot_every=100)

    def test_snapshot_every_validated(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_every"):
            Orchestrator(store=ResultStore(tmp_path), snapshot_every=0)

    def test_orchestrated_checkpointed_grid_matches_plain(self, tmp_path):
        specs = [steady_spec(seed=s) for s in (3, 4)]
        ref = [point_doc(run_spec(s)) for s in specs]
        orch = Orchestrator(
            workers=0, store=ResultStore(tmp_path), retries=0, snapshot_every=64
        )
        got = [point_doc(p) for p in orch.run_points(specs)]
        assert got == ref

    @pytest.mark.parametrize("make_spec", [steady_spec, transient_spec, burst_spec],
                             ids=["steady", "transient", "burst"])
    def test_sigkilled_worker_resumes_from_checkpoint(self, tmp_path, make_spec):
        spec = make_spec()
        fresh = execute_outcome(spec)
        ref = point_doc(fresh.point)
        store = ResultStore(tmp_path / "store")
        flag = str(tmp_path / "killed.flag")
        resume_log = str(tmp_path / "resume.log")
        worker = functools.partial(
            _sigkill_once_worker, str(store.root), 64, flag, resume_log
        )
        orch = Orchestrator(workers=1, store=store, retries=1, worker=worker)
        results = orch.run([spec])
        assert results[0].status == "done"
        assert results[0].attempts == 2, "first attempt must have died"
        assert point_doc(results[0].point) == ref
        # The retry really did resume mid-run (from the cycle-64 save),
        # not restart from cycle 0.
        assert os.path.exists(flag)
        with open(resume_log) as fh:
            assert int(fh.read()) == 64
        # and the completed point cleaned up its checkpoint slot
        assert not checkpoint_path(store.root, spec.fingerprint()).exists()
        kind = kind_of(spec)
        if kind.sidecar is not None:  # the full result, e.g. a BurstResult
            assert kind.decode(store.get_sidecar(kind.sidecar, spec)) == fresh.result

    def test_failed_point_checkpoint_cleared(self, tmp_path):
        # A point that exhausts its retry budget will never resume; its
        # mid-run checkpoint must not accumulate in the store forever.
        spec = steady_spec()
        store = ResultStore(tmp_path)
        path = checkpoint_path(store.root, spec.fingerprint())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{}")
        orch = Orchestrator(workers=0, store=store, retries=0,
                            snapshot_every=64, worker=_always_fail_worker)
        results = orch.run([spec])
        assert results[0].status == "failed"
        assert not path.exists()
