"""FabricWorker: the claim -> run -> write -> release loop.

One :class:`FabricWorker` is one peer in a fleet.  It executes points
through the one point executor
(:func:`repro.engine.execute.execute_point`) — the function a
single-host sweep runs, including ``--snapshot-every`` mid-run
checkpointing — so a fabric-drained campaign's store entries are
byte-identical (spec + point) to a single-host orchestrator run.
Spot-style preemption falls out: a SIGKILLed worker's lease expires,
another worker reclaims it, and the executor resumes the point from
its last checkpoint with a bit-identical final result.

While a point runs, a daemon heartbeat thread renews the lease every
``ttl/3`` seconds (touching nothing in the simulation — observation
never perturbs applies to coordination too).  A point that *raises* is
retried in place with the lease's attempt count bumped, until the
fleet-wide budget is exhausted and the point is recorded as a
``failures`` sidecar — a poisoned point costs its budget, never the
drain.

Progress reporting reuses :class:`~repro.engine.progress.SweepProgress`
with the fleet fields filled in: after every point this worker resolves
it re-scans the shared state and emits done/cached/failed counts for
the *whole fleet*, the live worker count, and the fleet-rate ETA.
"""

from __future__ import annotations

import functools
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

from repro.analysis.store import ResultStore
from repro.engine.execute import execute_point
from repro.engine.orchestrator import (
    STATUS_CACHED,
    STATUS_DONE,
    STATUS_FAILED,
    PointResult,
)
from repro.engine.runspec import RunSpec
from repro.engine.progress import ProgressObserver, SweepProgress
from repro.fabric.lease import FAILURE_KIND, FabricBackendError, Lease
from repro.snapshot.checkpoint import Preempted
from repro.fabric.queue import (
    Claim,
    QueueStatus,
    WorkerStats,
    WorkQueue,
)


class _Heartbeat(threading.Thread):
    """Renews one lease (and the worker stats file) while a point runs."""

    def __init__(
        self,
        queue: WorkQueue,
        lease: Lease,
        interval: float,
        touch,
        on_lost=None,
    ) -> None:
        super().__init__(daemon=True, name=f"lease-hb-{lease.fingerprint[:8]}")
        self.queue = queue
        self.lease = lease  # latest renewal (read after stop())
        self.interval = interval
        self.touch = touch
        self.on_lost = on_lost
        self.lost = threading.Event()
        # NB: not "_stop" — Thread itself uses that name internally.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                renewed = self.queue.leases.renew(self.lease)
            except FabricBackendError:
                # Coordinator unreachable past the client's retry window.
                # The lease may still be ours when it comes back — keep
                # computing and keep trying; staleness is the fleet's
                # problem to judge, not ours to preempt.
                continue
            if renewed is None:
                # Reclaimed from under us (we looked dead).  Keep
                # computing — the result write is idempotent — but stop
                # touching the new holder's lease.
                self.lost.set()
                if self.on_lost is not None:
                    self.on_lost(self.lease)
                return
            self.lease = renewed
            try:
                self.touch()
            except FabricBackendError:
                pass  # stats are best-effort observability

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


@dataclass
class FabricSummary:
    """What one worker's :meth:`FabricWorker.run` did, plus the fleet's
    final state."""

    worker: str
    executed: int  # points this worker completed (results written)
    failed: int  # failures this worker recorded
    reclaimed: int  # stale leases this worker took over
    wall: float  # seconds in the drain loop
    status: QueueStatus  # final fleet scan (drained unless max_points hit)
    completed: set[str] = field(default_factory=set)  # fps this worker ran
    renew_failures: int = 0  # heartbeat renewals lost (lease reclaimed)
    backend_error: str = ""  # why the drain stopped early, if it did

    def render(self) -> str:
        s = self.status
        line = (
            f"[fabric {self.worker}] executed {self.executed} "
            f"(+{self.reclaimed} reclaimed), failed {self.failed} "
            f"in {self.wall:.1f}s | fleet: {s.done}/{s.total} done, "
            f"{s.failed} failed, {s.leased} leased"
        )
        if self.renew_failures:
            line += f" | {self.renew_failures} lease renewal(s) lost"
        if self.backend_error:
            line += f" | stopped early: {self.backend_error}"
        return line


class FabricWorker:
    """One cooperating worker process draining a :class:`WorkQueue`.

    Parameters mirror the orchestrator where they overlap:

    snapshot_every:
        Checkpoint each in-flight point to the store every N cycles; a
        reclaimed point resumes from its last checkpoint on whichever
        worker picks it up.
    telemetry / telemetry_dir:
        As on :class:`~repro.engine.orchestrator.Orchestrator`; series
        land under ``<store>/telemetry`` by default.
    poll:
        Seconds between queue re-scans when nothing is claimable but
        other workers still hold live leases.
    max_points:
        Stop after resolving this many points (tests and canaries);
        None drains until the queue reports done.
    observer:
        :class:`SweepProgress` callback, fleet fields populated.
    execute:
        Test hook: replaces the per-point execution callable
        ``(RunSpec) -> LoadPoint`` (the fault-injection seam, exactly
        like the orchestrator's ``worker=``).
    """

    def __init__(
        self,
        queue: WorkQueue,
        *,
        snapshot_every: int | None = None,
        telemetry=None,
        telemetry_dir=None,
        poll: float = 1.0,
        max_points: int | None = None,
        observer: ProgressObserver | None = None,
        execute=None,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if poll <= 0:
            raise ValueError("poll must be positive")
        self.queue = queue
        self.store: ResultStore = queue.store
        self.poll = poll
        self.max_points = max_points
        self.observer = observer
        self.snapshot_every = snapshot_every
        if telemetry_dir is None:
            telemetry_dir = self.store.root / "telemetry"
        # Graceful (spot-style) preemption: SIGTERM sets this event; a
        # checkpointed in-flight point saves its state and releases its
        # lease immediately instead of waiting for lease expiry.
        self.preempted = threading.Event()
        # Executed in-process (never pickled), so binding the event's
        # bound method is fine.
        self._execute = execute or functools.partial(
            execute_point,
            telemetry=telemetry,
            store_root=str(self.store.root),
            telemetry_dir=str(telemetry_dir),
            snapshot_every=snapshot_every,
            should_stop=self.preempted.is_set,
        )
        self.executed = 0
        self.failed = 0
        self.reclaimed = 0
        self.released = 0  # points handed back on preemption
        self.renew_failures = 0  # heartbeat renewals that found the lease gone
        self.completed: set[str] = set()
        self._started = time.monotonic()
        self._hb_interval = max(0.05, queue.lease_ttl / 3.0)
        self._renew_warned = False
        self._last_label = ""

    @property
    def worker_id(self) -> str:
        return self.queue.worker_id

    # ------------------------------------------------------------------
    def run(self) -> FabricSummary:
        """Drain until the queue is done (or ``max_points`` resolved).

        Installs a SIGTERM handler for the duration of the drain (main
        thread only; restored on exit): SIGTERM requests graceful
        preemption — the in-flight checkpointed point saves its state
        and releases its lease, and the worker stops claiming.  Without
        ``snapshot_every`` the current point runs to completion first.
        """
        self._started = time.monotonic()
        previous_handler = None
        try:
            previous_handler = signal.signal(
                signal.SIGTERM, lambda signum, frame: self.preempted.set()
            )
        except ValueError:
            pass  # not the main thread: preemption via self.preempted only
        backend_error = ""
        try:
            self._touch_stats()
            while not self.preempted.is_set():
                if (
                    self.max_points is not None
                    and self.executed + self.failed >= self.max_points
                ):
                    break
                claim = self.queue.claim()
                if claim is None:
                    if self.queue.drained():
                        break
                    # Unresolved points are leased to live peers: wait
                    # for them (or for their leases to go stale).
                    self._touch_stats()
                    time.sleep(self.poll)
                    continue
                if claim.lease.attempt > 1:
                    self.reclaimed += 1
                self._last_label = claim.spec.label()
                self._run_claim(claim)
                if claim.lease.group:
                    # Warm state for this group now lives on this host:
                    # prefer its remaining points on the next scan.
                    self.queue.prefer_groups.add(claim.lease.group)
        except FabricBackendError as exc:
            # Coordinator gone past the retry window: fall out cleanly
            # (partial summary, no stack trace).  Leases we held expire
            # on the coordinator's disk and are reclaimed when the
            # fleet reconnects.
            backend_error = str(exc) or type(exc).__name__
            print(
                f"[fabric {self.worker_id}] backend unreachable, "
                f"stopping: {backend_error}",
                file=sys.stderr,
            )
        finally:
            if previous_handler is not None:
                signal.signal(signal.SIGTERM, previous_handler)
            try:
                self._touch_stats(active=False)
            except FabricBackendError:
                pass
        try:
            status = self.queue.status()
        except FabricBackendError:
            status = QueueStatus(
                total=len(self.queue.specs), done=0, failed=0,
                leased=0, stale=0, lease_ttl=self.queue.lease_ttl,
            )
        return FabricSummary(
            worker=self.worker_id,
            executed=self.executed,
            failed=self.failed,
            reclaimed=self.reclaimed,
            wall=time.monotonic() - self._started,
            status=status,
            completed=set(self.completed),
            renew_failures=self.renew_failures,
            backend_error=backend_error,
        )

    # ------------------------------------------------------------------
    def _run_claim(self, claim: Claim) -> None:
        spec, lease = claim.spec, claim.lease
        while True:
            heartbeat = _Heartbeat(self.queue, lease, self._hb_interval,
                                   self._touch_stats,
                                   on_lost=self._note_lost_lease)
            heartbeat.start()
            t0 = time.monotonic()
            try:
                point = self._execute(spec)
            except Preempted:
                # Graceful preemption: the point checkpointed itself;
                # hand the lease back *now* (attempt count untouched) so
                # a peer resumes immediately instead of after TTL.
                heartbeat.stop()
                self.queue.leases.release(heartbeat.lease)
                self.released += 1
                self._touch_stats()
                return
            except Exception:
                heartbeat.stop()
                wall = time.monotonic() - t0
                error = traceback.format_exc()
                if lease.attempt >= self.queue.max_attempts:
                    self.queue.record_failure(
                        spec, attempts=lease.attempt,
                        worker=self.worker_id, error=error,
                    )
                    self.queue.leases.release(heartbeat.lease)
                    self.failed += 1
                    self._after_point(spec, STATUS_FAILED, wall)
                    return
                bumped = self.queue.leases.renew(
                    heartbeat.lease, attempt=lease.attempt + 1
                )
                if bumped is None:
                    return  # lost the lease; the retry is someone else's now
                lease = bumped
                continue
            heartbeat.stop()
            wall = time.monotonic() - t0
            self.store.put(spec, point, wall_time=wall)
            self.queue.leases.release(heartbeat.lease)
            self.executed += 1
            self.completed.add(spec.fingerprint())
            self._after_point(spec, STATUS_DONE, wall)
            return

    # ------------------------------------------------------------------
    def _note_lost_lease(self, lease: Lease) -> None:
        """A heartbeat renewal found our lease gone (reclaimed: we
        looked dead).  Count it, warn once — a fleet that keeps losing
        leases has its ttl set below its point runtime."""
        self.renew_failures += 1
        if not self._renew_warned:
            self._renew_warned = True
            print(
                f"[fabric {self.worker_id}] lease renewal failed for "
                f"{lease.label or lease.fingerprint[:12]} (reclaimed by a "
                f"peer that judged us dead); finishing the point anyway — "
                f"the result write is idempotent.  Repeated losses mean "
                f"the lease ttl is below the point runtime.",
                file=sys.stderr,
            )

    def _touch_stats(self, active: bool = True) -> None:
        """Rewrite this worker's ``workers/<id>.json`` via the backend."""
        elapsed = time.monotonic() - self._started
        resolved = self.executed + self.failed
        stats = WorkerStats(
            worker=self.worker_id,
            started=time.time() - elapsed,
            heartbeat=time.time(),
            done=self.executed,
            failed=self.failed,
            reclaimed=self.reclaimed,
            rate=resolved / elapsed if elapsed > 0 else 0.0,
            last_label=self._last_label,
            active=active,
        )
        self.queue.leases.put_worker_stats(self.worker_id, stats.to_jsonable())

    def _after_point(self, spec: RunSpec, status: str, wall: float) -> None:
        self._touch_stats()
        if self.observer is None:
            return
        scan = self.queue.status()
        self.observer(SweepProgress(
            total=scan.total,
            done=max(0, scan.done - self.queue.initial_done),
            cached=self.queue.initial_done,
            failed=scan.failed,
            elapsed=time.monotonic() - self._started,
            last_label=spec.label(),
            last_status=status,
            last_wall_time=wall,
            worker=self.worker_id,
            fleet_workers=max(1, len(scan.live_workers())),
            fleet_rate=scan.fleet_rate,
        ))


# ----------------------------------------------------------------------
# One-call drain (the ``--fabric`` entry point)
# ----------------------------------------------------------------------

def drain(
    specs: list[RunSpec],
    store: ResultStore,
    *,
    worker_id: str | None = None,
    lease_ttl: float | None = None,
    max_attempts: int | None = None,
    snapshot_every: int | None = None,
    telemetry=None,
    telemetry_dir=None,
    poll: float = 1.0,
    max_points: int | None = None,
    observer: ProgressObserver | None = None,
    execute=None,
    leases=None,
) -> tuple[list[PointResult], FabricSummary]:
    """Join (or start) the fleet draining ``specs``; gather the results.

    Runs one :class:`FabricWorker` in this process until the whole grid
    is resolved — including points other hosts are still executing —
    then reads every point back from the shared store.  Results come
    back as orchestrator :class:`PointResult` values in spec order:
    ``done`` for points this process executed, ``cached`` for points
    served by the store (pre-existing or drained by peers), ``failed``
    for points whose fleet-wide attempt budget was exhausted (the
    failure record's error and attempt count attached).
    """
    from repro.fabric.queue import DEFAULT_MAX_ATTEMPTS
    from repro.fabric.lease import DEFAULT_TTL, default_worker_id

    try:
        queue = WorkQueue(
            specs, store, worker_id=worker_id,
            lease_ttl=DEFAULT_TTL if lease_ttl is None else lease_ttl,
            max_attempts=DEFAULT_MAX_ATTEMPTS if max_attempts is None
            else max_attempts,
            leases=leases,
        )
    except FabricBackendError as exc:
        # Backend gone before we could even scan the grid: same clean
        # fallout as mid-drain — a summary, not a stack trace.
        summary = FabricSummary(
            worker=leases.worker_id if leases is not None
            else (worker_id or default_worker_id()),
            executed=0, failed=0, reclaimed=0, wall=0.0,
            status=QueueStatus(
                total=len(specs), done=0, failed=0, leased=0, stale=0,
            ),
            backend_error=str(exc) or type(exc).__name__,
        )
    else:
        worker = FabricWorker(
            queue,
            snapshot_every=snapshot_every,
            telemetry=telemetry,
            telemetry_dir=telemetry_dir,
            poll=poll,
            max_points=max_points,
            observer=observer,
            execute=execute,
        )
        summary = worker.run()
    try:
        points = store.get_many(specs)
    except FabricBackendError as exc:
        # Coordinator unreachable at readback: report every point as
        # failed at once (one retry window, not one per point) instead
        # of stack-tracing out.
        error = f"result unavailable, backend unreachable: {exc}"
        return [PointResult(spec, STATUS_FAILED, error=error, attempts=0)
                for spec in specs], summary
    results = []
    backend_gone = False
    for spec, point in zip(specs, points):
        if point is not None:
            status = STATUS_DONE if spec.fingerprint() in summary.completed \
                else STATUS_CACHED
            results.append(PointResult(
                spec, status, point,
                attempts=1 if status == STATUS_DONE else 0,
            ))
            continue
        failure = {}
        if not backend_gone:
            try:
                failure = store.get_sidecar(FAILURE_KIND, spec) or {}
            except FabricBackendError:
                backend_gone = True  # skip the rest, one window is enough
        results.append(PointResult(
            spec, STATUS_FAILED,
            error=failure.get("error", "point unresolved after fabric drain"),
            attempts=int(failure.get("attempts", 0)),
        ))
    return results, summary


__all__ = ["FabricSummary", "FabricWorker", "drain"]
