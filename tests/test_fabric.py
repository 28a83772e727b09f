"""Distributed sweep fabric: the lease protocol, WorkQueue, FabricWorker.

The contract under test is the store-is-the-coordinator design
(repro.fabric): N workers sharing nothing but a store directory drain
one grid with every point executed exactly once past its final
successful attempt, the drained store indistinguishable (spec + point)
from a single-host run, zero leases left behind — including the
headline recovery path, where a SIGKILLed worker's point is reclaimed
by a peer and resumed from its mid-run checkpoint with an identical
final result.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.store import ResultStore
from repro.engine.config import SimulationConfig
from repro.engine.runner import run_spec
from repro.engine.runspec import RunSpec
from repro.engine.progress import SweepProgress
from repro.fabric import (
    FAILURE_KIND,
    FabricWorker,
    LeaseManager,
    WorkQueue,
    drain,
    fleet_status,
    lease_path,
    read_lease,
    reap,
)
from repro.snapshot.checkpoint import checkpoint_path, load_checkpoint

SRC = str(Path(repro.__file__).resolve().parents[1])


def point_doc(pt) -> dict:
    return {k: repr(v) for k, v in dataclasses.asdict(pt).items()}


def spec(load=0.2, seed=3) -> RunSpec:
    return RunSpec(
        SimulationConfig.small(h=2, routing="min", seed=seed), "UN", load,
        warmup=100, measure=100,
    )


def grid(n=4) -> list[RunSpec]:
    return [spec(load=round(0.1 * (i + 1), 2)) for i in range(n)]


def lease_files(store_root) -> list[Path]:
    return sorted(Path(store_root, "leases").glob("*.json"))


# ----------------------------------------------------------------------
# Lease protocol
# ----------------------------------------------------------------------

class TestLeaseProtocol:
    def test_claim_is_exclusive(self, tmp_path):
        a, b = LeaseManager(tmp_path, "a"), LeaseManager(tmp_path, "b")
        lease = a.try_claim("ff00", label="pt")
        assert lease is not None
        assert (lease.worker, lease.attempt, lease.label) == ("a", 1, "pt")
        assert b.try_claim("ff00") is None
        assert b.try_claim("ff01") is not None  # other points unaffected

    def test_release_frees_the_point(self, tmp_path):
        a, b = LeaseManager(tmp_path, "a"), LeaseManager(tmp_path, "b")
        lease = a.try_claim("ff00")
        assert a.release(lease) is True
        assert not lease_path(tmp_path, "ff00").exists()
        assert b.try_claim("ff00") is not None

    def test_release_refuses_foreign_lease(self, tmp_path):
        a, b = LeaseManager(tmp_path, "a"), LeaseManager(tmp_path, "b")
        lease = a.try_claim("ff00")
        # b constructs a lease object for the same point; releasing it
        # must not remove a's claim.
        foreign = dataclasses.replace(lease, worker="b")
        assert b.release(foreign) is False
        assert read_lease(lease_path(tmp_path, "ff00")).worker == "a"

    def test_renew_refreshes_heartbeat(self, tmp_path):
        a = LeaseManager(tmp_path, "a")
        lease = a.try_claim("ff00")
        renewed = a.renew(lease)
        assert renewed is not None
        assert renewed.heartbeat >= lease.heartbeat
        assert renewed.attempt == lease.attempt

    def test_renew_bumps_attempt_in_place(self, tmp_path):
        a = LeaseManager(tmp_path, "a")
        lease = a.try_claim("ff00")
        bumped = a.renew(lease, attempt=2)
        assert bumped.attempt == 2
        assert read_lease(lease_path(tmp_path, "ff00")).attempt == 2

    def test_renew_after_loss_returns_none(self, tmp_path):
        a = LeaseManager(tmp_path, "a")
        lease = a.try_claim("ff00")
        os.unlink(lease_path(tmp_path, "ff00"))
        assert a.renew(lease) is None

    def test_corrupt_lease_reads_as_none(self, tmp_path):
        path = lease_path(tmp_path, "ff00")
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert read_lease(path) is None

    def test_stale_reclaim_carries_attempt_forward(self, tmp_path):
        a = LeaseManager(tmp_path, "a", ttl=0.05)
        lease = a.try_claim("ff00", label="pt")
        time.sleep(0.1)
        assert lease.stale(0.05)
        b = LeaseManager(tmp_path, "b", ttl=0.05)
        got = b.reclaim(lease)
        assert (got.worker, got.attempt, got.label) == ("b", 2, "pt")
        # The old holder lost: it must not renew over the new claim.
        assert a.renew(lease) is None

    def test_drop_removes_whoever_holds(self, tmp_path):
        a, b = LeaseManager(tmp_path, "a"), LeaseManager(tmp_path, "b")
        a.try_claim("ff00")
        assert b.drop("ff00") is True  # administrative: no ownership check
        assert not lease_path(tmp_path, "ff00").exists()
        assert b.drop("ff00") is False  # already gone

    def test_group_hint_round_trips(self, tmp_path):
        a = LeaseManager(tmp_path, "a")
        a.try_claim("ff00", group="aabbccdd1122")
        on_disk = read_lease(lease_path(tmp_path, "ff00"))
        assert on_disk.group == "aabbccdd1122"
        # Reclaim preserves the group unless overridden.
        stale = dataclasses.replace(on_disk, heartbeat=0.0)
        got = LeaseManager(tmp_path, "b").reclaim(stale)
        assert got.group == "aabbccdd1122"

    def test_worker_stats_via_backend(self, tmp_path):
        a = LeaseManager(tmp_path, "a")
        a.put_worker_stats("a", {"worker": "a", "done": 2})
        assert a.list_worker_stats() == [{"worker": "a", "done": 2}]
        assert a.prune_worker("a") is True
        assert a.list_worker_stats() == []


def _race_claim(store_root, start, results):
    mgr = LeaseManager(store_root, worker_id=f"w{os.getpid()}")
    start.wait()
    got = mgr.try_claim("deadbeef")
    results.put(None if got is None else got.worker)


class TestConcurrentClaim:
    def test_exactly_one_winner_across_processes(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        start, results = ctx.Event(), ctx.Queue()
        procs = [
            ctx.Process(target=_race_claim, args=(str(tmp_path), start, results))
            for _ in range(8)
        ]
        for p in procs:
            p.start()
        start.set()
        winners = [results.get(timeout=30) for _ in procs]
        for p in procs:
            p.join(timeout=30)
        claimed = [w for w in winners if w is not None]
        assert len(claimed) == 1
        on_disk = read_lease(lease_path(tmp_path, "deadbeef"))
        assert on_disk is not None and on_disk.worker == claimed[0]


# ----------------------------------------------------------------------
# WorkQueue
# ----------------------------------------------------------------------

class TestWorkQueue:
    def test_cached_points_are_resolved_up_front(self, tmp_path):
        specs = grid(3)
        store = ResultStore(tmp_path)
        store.put(specs[0], run_spec(specs[0]))
        queue = WorkQueue(specs, store, worker_id="w")
        assert queue.initial_done == 1
        claim = queue.claim()
        assert claim.spec is specs[1]  # first unresolved, in spec order

    def test_claim_skips_freshly_leased_points(self, tmp_path):
        specs = grid(3)
        store = ResultStore(tmp_path)
        peer = LeaseManager(tmp_path, "peer")
        peer.try_claim(specs[0].fingerprint())
        queue = WorkQueue(specs, store, worker_id="w")
        assert queue.claim().spec is specs[1]

    def test_nothing_claimable_returns_none(self, tmp_path):
        specs = grid(1)
        store = ResultStore(tmp_path)
        LeaseManager(tmp_path, "peer").try_claim(specs[0].fingerprint())
        queue = WorkQueue(specs, store, worker_id="w")
        assert queue.claim() is None
        assert not queue.drained()

    def test_record_failure_resolves_and_cleans(self, tmp_path):
        specs = grid(1)
        store = ResultStore(tmp_path)
        ckpt = checkpoint_path(store.root, specs[0].fingerprint())
        ckpt.parent.mkdir(parents=True)
        ckpt.write_text("{}")
        queue = WorkQueue(specs, store, worker_id="w")
        queue.record_failure(specs[0], attempts=3, worker="w", error="boom")
        assert queue.drained()
        assert not ckpt.exists(), "dead point's checkpoint must be swept"
        payload = store.get_sidecar(FAILURE_KIND, specs[0])
        assert payload["attempts"] == 3 and "boom" in payload["error"]
        status = queue.status()
        assert (status.failed, status.done) == (1, 0)

    def test_result_beats_failure_record(self, tmp_path):
        specs = grid(1)
        store = ResultStore(tmp_path)
        store.put(specs[0], run_spec(specs[0]))
        queue = WorkQueue(specs, store, worker_id="w")
        queue.record_failure(specs[0], attempts=3, worker="w", error="late")
        assert store.get_sidecar(FAILURE_KIND, specs[0]) is None

    def test_budget_exhausted_stale_lease_becomes_failure(self, tmp_path):
        specs = grid(2)
        store = ResultStore(tmp_path)
        dead = LeaseManager(tmp_path, "dead", ttl=0.05)
        dead.try_claim(specs[0].fingerprint(), attempt=2)
        time.sleep(0.12)
        queue = WorkQueue(specs, store, worker_id="w",
                          lease_ttl=0.05, max_attempts=2)
        claim = queue.claim()
        # The poisoned point resolved as failed in passing; the scan
        # handed back the next runnable point instead of wedging.
        assert claim.spec is specs[1]
        assert store.get_sidecar(FAILURE_KIND, specs[0]) is not None
        assert not lease_path(tmp_path, specs[0].fingerprint()).exists()

    def test_stale_lease_under_budget_is_reclaimed(self, tmp_path):
        specs = grid(1)
        store = ResultStore(tmp_path)
        dead = LeaseManager(tmp_path, "dead", ttl=0.05)
        dead.try_claim(specs[0].fingerprint())
        time.sleep(0.12)
        queue = WorkQueue(specs, store, worker_id="w",
                          lease_ttl=0.05, max_attempts=3)
        claim = queue.claim()
        assert claim is not None
        assert (claim.lease.worker, claim.lease.attempt) == ("w", 2)


# ----------------------------------------------------------------------
# FabricWorker + drain
# ----------------------------------------------------------------------

class TestFabricWorker:
    def test_single_worker_drain_matches_run_spec(self, tmp_path):
        specs = grid(2)
        ref = [point_doc(run_spec(s)) for s in specs]
        store = ResultStore(tmp_path)
        results, summary = drain(specs, store, worker_id="solo", poll=0.05)
        assert [r.status for r in results] == ["done", "done"]
        assert [point_doc(r.point) for r in results] == ref
        assert (summary.executed, summary.failed) == (2, 0)
        assert summary.status.drained
        assert lease_files(tmp_path) == []

    def test_cached_points_reported_cached(self, tmp_path):
        specs = grid(2)
        store = ResultStore(tmp_path)
        store.put(specs[0], run_spec(specs[0]))
        results, summary = drain(specs, store, worker_id="w", poll=0.05)
        assert [r.status for r in results] == ["cached", "done"]
        assert summary.executed == 1

    def test_lost_renewal_counted_logged_once_and_reported(
        self, tmp_path, capsys
    ):
        specs = grid(1)
        store = ResultStore(tmp_path)
        queue = WorkQueue(specs, store, worker_id="w", lease_ttl=0.3)

        def execute(s):
            # A peer judged us dead and took the lease; the next
            # heartbeat renewal (ttl/3 = 0.1s) finds it gone.
            os.unlink(lease_path(tmp_path, s.fingerprint()))
            time.sleep(0.45)
            return run_spec(s)

        worker = FabricWorker(queue, execute=execute, poll=0.05)
        summary = worker.run()
        assert summary.executed == 1  # the point still completed
        assert summary.renew_failures == 1
        assert "1 lease renewal(s) lost" in summary.render()
        err = capsys.readouterr().err
        assert err.count("lease renewal failed") == 1

    def test_two_workers_split_grid_store_identical(self, tmp_path):
        specs = grid(4)
        single = ResultStore(tmp_path / "single")
        for s in specs:
            single.put(s, run_spec(s))
        shared = ResultStore(tmp_path / "shared")
        summaries = {}

        def work(wid):
            queue = WorkQueue(specs, shared, worker_id=wid, lease_ttl=10.0)
            summaries[wid] = FabricWorker(queue, poll=0.05).run()

        threads = [threading.Thread(target=work, args=(w,)) for w in ("w1", "w2")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        # Exactly once per point: fresh leases are exclusive and nothing
        # went stale, so the split covers the grid with no overlap.
        assert summaries["w1"].executed + summaries["w2"].executed == 4
        assert summaries["w1"].completed.isdisjoint(summaries["w2"].completed)
        for s in specs:
            entry = json.loads(shared.path_for(s.fingerprint()).read_text())
            ref = json.loads(single.path_for(s.fingerprint()).read_text())
            assert entry["spec"] == ref["spec"]
            assert entry["point"] == ref["point"]
        assert lease_files(shared.root) == []

    def test_poisoned_point_fails_without_wedging(self, tmp_path):
        specs = grid(2)
        boom = specs[0].fingerprint()
        calls = []

        def execute(s):
            calls.append(s.fingerprint())
            if s.fingerprint() == boom:
                raise RuntimeError("boom")
            return run_spec(s)

        store = ResultStore(tmp_path)
        results, summary = drain(
            specs, store, worker_id="w", max_attempts=2,
            execute=execute, poll=0.05,
        )
        assert results[0].status == "failed"
        assert results[0].attempts == 2
        assert "boom" in results[0].error
        assert results[1].status == "done"
        assert calls.count(boom) == 2, "in-place retry burns the budget"
        assert (summary.executed, summary.failed) == (1, 1)
        assert lease_files(tmp_path) == []
        with pytest.raises(RuntimeError, match="boom"):
            results[0].require()

    def test_flaky_point_retried_in_place(self, tmp_path):
        specs = grid(1)
        attempts = []

        def execute(s):
            attempts.append(s)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return run_spec(s)

        store = ResultStore(tmp_path)
        results, summary = drain(
            specs, store, worker_id="w", max_attempts=3,
            execute=execute, poll=0.05,
        )
        assert results[0].status == "done"
        assert len(attempts) == 2
        assert store.get_sidecar(FAILURE_KIND, specs[0]) is None

    def test_progress_carries_fleet_fields(self, tmp_path):
        specs = grid(2)
        events = []
        drain(specs, ResultStore(tmp_path), worker_id="w",
              observer=events.append, poll=0.05)
        assert len(events) == 2
        last = events[-1]
        assert isinstance(last, SweepProgress)
        assert last.worker == "w"
        assert last.fleet_workers >= 1
        assert (last.total, last.resolved) == (2, 2)
        assert "worker(s)" in last.render()

    def test_max_points_stops_early(self, tmp_path):
        specs = grid(3)
        store = ResultStore(tmp_path)
        queue = WorkQueue(specs, store, worker_id="w")
        summary = FabricWorker(queue, poll=0.05, max_points=1).run()
        assert summary.executed == 1
        assert not summary.status.drained
        assert lease_files(tmp_path) == []


# ----------------------------------------------------------------------
# SIGKILL recovery: reclaim + checkpoint resume, bit-identical result
# ----------------------------------------------------------------------

_VICTIM = textwrap.dedent("""
    import json, os, signal, sys
    sys.path.insert(0, sys.argv[3])
    from repro.analysis.store import ResultStore
    from repro.engine.runspec import RunSpec
    from repro.fabric import FabricWorker, WorkQueue
    from repro.snapshot import snapshot as snapmod

    spec = RunSpec.from_jsonable(json.loads(open(sys.argv[2]).read()))
    original = snapmod.Snapshot.save

    def save_and_die(self, path):
        original(self, path)
        os.kill(os.getpid(), signal.SIGKILL)

    snapmod.Snapshot.save = save_and_die
    store = ResultStore(sys.argv[1])
    queue = WorkQueue([spec], store, worker_id="victim", lease_ttl=30.0)
    FabricWorker(queue, snapshot_every=64, poll=0.05).run()
""")


class TestSigkillRecovery:
    def test_peer_resumes_killed_point_from_checkpoint(self, tmp_path):
        s = spec(load=0.3, seed=7)
        ref = point_doc(run_spec(s))
        store = ResultStore(tmp_path / "store")
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(s.to_jsonable()))
        script = tmp_path / "victim.py"
        script.write_text(_VICTIM)
        proc = subprocess.run(
            [sys.executable, str(script), str(store.root), str(spec_file), SRC],
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        # The victim died holding its lease, one checkpoint in.
        lease = read_lease(lease_path(store.root, s.fingerprint()))
        assert lease is not None and lease.worker == "victim"
        snap = load_checkpoint(store.root, s)
        assert snap is not None and snap.cycle == 64
        # A rescuer with a short ttl sees the lease as stale, reclaims
        # it (attempt 2), and resumes from the victim's checkpoint.
        time.sleep(0.15)
        queue = WorkQueue([s], store, worker_id="rescuer", lease_ttl=0.1)
        summary = FabricWorker(queue, snapshot_every=64, poll=0.05).run()
        assert (summary.executed, summary.reclaimed, summary.failed) == (1, 1, 0)
        assert point_doc(store.get(s)) == ref, "resume must be bit-identical"
        assert lease_files(store.root) == []
        assert not checkpoint_path(store.root, s.fingerprint()).exists()


# ----------------------------------------------------------------------
# SIGTERM graceful preemption: checkpoint + immediate lease release
# ----------------------------------------------------------------------

_PREEMPTEE = textwrap.dedent("""
    import json, os, signal, sys
    sys.path.insert(0, sys.argv[3])
    from repro.analysis.store import ResultStore
    from repro.engine.runspec import RunSpec
    from repro.fabric import FabricWorker, WorkQueue
    from repro.snapshot import snapshot as snapmod

    spec = RunSpec.from_jsonable(json.loads(open(sys.argv[2]).read()))
    original = snapmod.Snapshot.save

    def save_then_sigterm(self, path):
        original(self, path)
        snapmod.Snapshot.save = original  # the preemption flush saves too
        os.kill(os.getpid(), signal.SIGTERM)

    snapmod.Snapshot.save = save_then_sigterm
    store = ResultStore(sys.argv[1])
    queue = WorkQueue([spec], store, worker_id="preemptee", lease_ttl=30.0)
    worker = FabricWorker(queue, snapshot_every=64, poll=0.05)
    summary = worker.run()
    print(json.dumps({"executed": summary.executed,
                      "released": worker.released}))
""")


class TestSigtermPreemption:
    def test_real_signal_checkpoints_and_releases_the_lease(self, tmp_path):
        """A real SIGTERM mid-point: the worker's handler requests
        graceful preemption, the point checkpoints and hands its lease
        back immediately (no TTL wait), and the worker exits cleanly —
        then a rescuer resumes from the checkpoint bit-identically."""
        s = spec(load=0.3, seed=7)
        ref = point_doc(run_spec(s))
        store = ResultStore(tmp_path / "store")
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(s.to_jsonable()))
        script = tmp_path / "preemptee.py"
        script.write_text(_PREEMPTEE)
        proc = subprocess.run(
            [sys.executable, str(script), str(store.root), str(spec_file), SRC],
            timeout=120, capture_output=True, text=True,
        )
        # Graceful: normal exit (not killed by the signal), nothing run
        # to completion, one point handed back.
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out == {"executed": 0, "released": 1}
        # The lease was released immediately — not left to expire.
        assert read_lease(lease_path(store.root, s.fingerprint())) is None
        snap = load_checkpoint(store.root, s)
        assert snap is not None and snap.cycle >= 64
        # A rescuer picks the point up cold and finishes from the
        # checkpoint; attempt count was untouched, so nothing reclaims.
        queue = WorkQueue([s], store, worker_id="rescuer", lease_ttl=30.0)
        summary = FabricWorker(queue, snapshot_every=64, poll=0.05).run()
        assert (summary.executed, summary.reclaimed, summary.failed) == (1, 0, 0)
        assert point_doc(store.get(s)) == ref, "resume must be bit-identical"
        assert lease_files(store.root) == []
        assert not checkpoint_path(store.root, s.fingerprint()).exists()


# ----------------------------------------------------------------------
# Fleet observability + reap
# ----------------------------------------------------------------------

class TestFleetStatus:
    def test_scan_counts(self, tmp_path):
        specs = grid(3)
        store = ResultStore(tmp_path)
        store.put(specs[0], run_spec(specs[0]))
        LeaseManager(tmp_path, "peer").try_claim(specs[1].fingerprint())
        status = fleet_status(specs, store, lease_ttl=60.0)
        assert (status.total, status.done, status.leased) == (3, 1, 1)
        assert status.pending == 2
        assert not status.drained
        # No worker stats files yet: fleet rate (and ETA) are unknown.
        assert status.fleet_rate != status.fleet_rate

    def test_foreign_leases_ignored(self, tmp_path):
        specs = grid(1)
        store = ResultStore(tmp_path)
        LeaseManager(tmp_path, "peer").try_claim("ff" * 32)  # another grid's point
        status = fleet_status(specs, store, lease_ttl=60.0)
        assert status.leased == 0


class TestReap:
    def test_reap_drops_stale_and_fails_exhausted(self, tmp_path):
        specs = grid(2)
        store = ResultStore(tmp_path)
        dead = LeaseManager(tmp_path, "dead", ttl=0.05)
        dead.try_claim(specs[0].fingerprint(), attempt=1)
        dead.try_claim(specs[1].fingerprint(), attempt=3)
        time.sleep(0.12)
        report = reap(specs, store, lease_ttl=0.05, max_attempts=3)
        assert [le.fingerprint for le in report.dropped_leases] == [
            specs[0].fingerprint()
        ]
        assert report.failed_points == [specs[1].fingerprint()]
        assert lease_files(tmp_path) == []
        assert store.get_sidecar(FAILURE_KIND, specs[0]) is None
        assert store.get_sidecar(FAILURE_KIND, specs[1]) is not None

    def test_reap_leaves_fresh_leases_alone(self, tmp_path):
        specs = grid(1)
        store = ResultStore(tmp_path)
        LeaseManager(tmp_path, "live").try_claim(specs[0].fingerprint())
        report = reap(specs, store, lease_ttl=60.0)
        assert report.dropped_leases == [] and report.failed_points == []
        assert len(lease_files(tmp_path)) == 1


# ----------------------------------------------------------------------
# SweepProgress fleet fields
# ----------------------------------------------------------------------

class TestSweepProgressFleet:
    def _progress(self, **kw):
        base = dict(total=10, done=4, cached=0, failed=0, elapsed=2.0,
                    last_label="pt", last_status="done", last_wall_time=0.5)
        base.update(kw)
        return SweepProgress(**base)

    def test_fleet_rate_drives_eta(self):
        p = self._progress(worker="w1", fleet_workers=3, fleet_rate=4.0)
        assert p.eta_seconds == pytest.approx(6 / 4.0)
        assert "3 worker(s)" in p.render()
        assert "4.00 pt/s fleet" in p.render()

    def test_single_host_defaults_unchanged(self):
        p = self._progress()
        assert (p.worker, p.fleet_workers) == ("", 1)
        assert p.eta_seconds == pytest.approx(6 / p.rate)
        assert "worker(s)" not in p.render()
