"""Fault-tolerant, cache-aware execution of simulation-point grids.

Every figure in the evaluation is a grid of independent steady-state
points (:class:`~repro.engine.runspec.RunSpec`).  The orchestrator runs
an arbitrary grid with the properties a long sweep needs:

- **caching / resume** — with a :class:`~repro.analysis.store.ResultStore`
  attached, every completed point is persisted atomically under the
  spec's content fingerprint the moment it finishes.  Re-running the
  same (or an overlapping) grid serves those points from disk,
  bit-identical to a fresh run, so a killed sweep resumes at the first
  missing point with no separate checkpoint machinery.
- **fault isolation** — each point runs in its own worker process; a
  worker that raises, is OOM-killed, or exceeds the per-point timeout
  costs one attempt.  After ``retries`` extra attempts the point is
  *recorded* as failed and the rest of the grid completes; a poisoned
  point is never fatal to the sweep.
- **observability** — after every resolved point the orchestrator emits
  a :class:`~repro.engine.tracing.SweepProgress` snapshot
  (done/cached/failed, rate, ETA, per-point wall time) to the installed
  observer.  With a ``telemetry`` config, points additionally record an
  in-run time series (:mod:`repro.telemetry`) persisted next to the
  store under the same fingerprint.

``workers=0`` runs points in-process (no subprocess, no crash
protection) — the mode every driver, ``repro sweep`` and ``repro
campaign run`` use when no ``--workers`` is asked for.  Either way each
point is executed by :func:`repro.engine.execute.execute_point`.
Results are deterministic in the specs alone: execution order, worker
count, retries and cache hits cannot change a LoadPoint.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from pathlib import Path
from typing import Callable

from repro.analysis.store import ResultStore
from repro.engine.execute import execute_point
from repro.engine.metrics import LoadPoint
from repro.engine.runspec import RunSpec
from repro.engine.tracing import ProgressObserver, SweepProgress

STATUS_DONE = "done"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"

# How often the pool loop wakes to check per-point deadlines.
_POLL_SECONDS = 0.05


def available_cpus() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine's CPUs even when a cgroup /
    container / taskset limit grants far fewer, which oversubscribes CI
    runners; prefer the scheduling affinity mask where the platform has
    one (Linux), falling back to ``cpu_count`` elsewhere (macOS).
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 2


def default_workers() -> int:
    """Half the available CPUs, at least 1 — simulations are memory-light
    but the harness usually runs other things too."""
    return max(1, available_cpus() // 2)


class OrchestratorError(RuntimeError):
    """A grid point failed and the caller asked for strict results."""


@dataclass
class PointResult:
    """Outcome of one grid point."""

    spec: RunSpec
    status: str  # done | cached | failed
    point: LoadPoint | None = None
    error: str | None = None  # traceback / reason when failed
    attempts: int = 1  # execution attempts (0 for cache hits)
    wall_time: float = 0.0  # seconds spent on the resolving attempt
    # Original exception object, only available from in-process (workers=0)
    # execution; lets strict callers re-raise the real error type.
    exception: BaseException | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status != STATUS_FAILED

    def require(self) -> LoadPoint:
        """The point, or the original failure re-raised."""
        if self.point is not None:
            return self.point
        if self.exception is not None:
            raise self.exception
        raise OrchestratorError(
            f"point {self.spec.label()} failed after {self.attempts} attempt(s):\n"
            f"{self.error}"
        )


def _child_main(conn, worker, spec) -> None:
    """Subprocess body: run one point, ship the result or the traceback."""
    try:
        point = worker(spec)
        conn.send(("ok", point))
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


@dataclass
class _Job:
    """One in-flight worker process."""

    index: int
    spec: RunSpec
    attempt: int
    proc: mp.Process
    conn: object  # parent end of the result pipe
    started: float


class Orchestrator:
    """Run grids of :class:`RunSpec` points; see the module docstring.

    Parameters
    ----------
    workers:
        Worker processes.  ``0`` = in-process sequential (no fault
        isolation); ``None`` = half the available CPUs.
    store:
        Optional :class:`ResultStore` for caching/resume.  Completed
        points are written through immediately; with ``use_cache`` they
        are also read back as cache hits.
    use_cache:
        Read existing store entries (True) or recompute everything and
        overwrite (False, the ``--no-cache`` path).
    retries:
        Extra attempts after a failed/crashed/timed-out attempt.
    timeout:
        Per-point wall-clock limit in seconds (process mode only; a
        stuck worker is killed and the attempt counted as failed).
    observer:
        Progress callback; see :class:`~repro.engine.tracing.SweepProgress`.
    worker:
        The per-point callable ``(RunSpec) -> LoadPoint``.  Must be a
        module-level (picklable) function; the default is
        :func:`~repro.engine.execute.execute_point` with this
        orchestrator's options bound.  Overriding it is the
        fault-injection hook the failure tests use.
    telemetry:
        Optional :class:`~repro.telemetry.config.TelemetryConfig`
        applied to every point that does not carry its own
        ``spec.telemetry``.  Points with an effective config run with a
        sampler attached and their series are persisted under
        ``telemetry_dir`` (same
        ``<fp[:2]>/<fp>`` layout and atomic writes as the result store,
        ``.jsonl`` suffix).  LoadPoints — and therefore store entries
        and fingerprints — are unchanged.  Cache *hits* skip execution,
        so they never (re)generate series files; use ``use_cache=False``
        to re-observe already-stored points.  Ignored when a custom
        ``worker`` is installed.
    telemetry_dir:
        Where series files go; defaults to ``<store>/telemetry`` when a
        store is attached.  With neither, series are computed and
        dropped (the LoadPoint still comes back).
    """

    def __init__(
        self,
        workers: int | None = None,
        store: ResultStore | None = None,
        use_cache: bool = True,
        retries: int = 1,
        timeout: float | None = None,
        observer: ProgressObserver | None = None,
        worker: Callable[[RunSpec], LoadPoint] = execute_point,
        telemetry=None,
        telemetry_dir: str | Path | None = None,
        snapshot_every: int | None = None,
    ) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        if snapshot_every is not None:
            if snapshot_every < 1:
                raise ValueError("snapshot_every must be >= 1")
            if store is None:
                raise ValueError("snapshot_every needs a store to hold "
                                 "the checkpoints")
        self.workers = workers
        self.store = store
        self.use_cache = use_cache
        self.retries = retries
        self.timeout = timeout
        self.observer = observer
        if telemetry_dir is None and store is not None:
            telemetry_dir = store.root / "telemetry"
        self.telemetry = telemetry
        self.telemetry_dir = Path(telemetry_dir) if telemetry_dir is not None else None
        self.snapshot_every = snapshot_every
        if worker is execute_point:
            # The default worker is the one point executor with this
            # orchestrator's options bound: telemetry (orchestrator-wide
            # or per-spec), workload/scenario sidecars into the store,
            # and with ``snapshot_every`` mid-run checkpoints that a
            # retry resumes from.  Plain strings, so the partial pickles
            # into worker processes.
            worker = functools.partial(
                execute_point,
                telemetry=telemetry,
                store_root=str(store.root) if store is not None else None,
                telemetry_dir=(
                    str(self.telemetry_dir) if self.telemetry_dir is not None else None
                ),
                snapshot_every=snapshot_every,
            )
        self.worker = worker

    # ------------------------------------------------------------------
    def run(self, specs: list[RunSpec]) -> list[PointResult]:
        """Resolve every point; results come back in spec order."""
        started = time.monotonic()
        results: list[PointResult | None] = [None] * len(specs)
        pending: deque[tuple[int, int]] = deque()  # (spec index, attempt no.)

        for i, spec in enumerate(specs):
            cached = self._try_cache(spec)
            if cached is not None:
                results[i] = cached
                self._emit(results, len(specs), started, cached)
            else:
                pending.append((i, 1))

        if pending:
            if self.workers == 0:
                self._run_inline(specs, pending, results, started)
            else:
                self._run_pool(specs, pending, results, started)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def run_points(self, specs: list[RunSpec]) -> list[LoadPoint]:
        """Strict variant: the LoadPoints, or the first failure raised."""
        return [r.require() for r in self.run(specs)]

    # ------------------------------------------------------------------
    def _try_cache(self, spec: RunSpec) -> PointResult | None:
        if self.store is None or not self.use_cache:
            return None
        t0 = time.monotonic()
        point = self.store.get(spec)
        if point is None:
            return None
        return PointResult(
            spec, STATUS_CACHED, point, attempts=0,
            wall_time=time.monotonic() - t0,
        )

    def _emit(self, results, total: int, started: float, last: PointResult) -> None:
        if self.observer is None:
            return
        done = sum(1 for r in results if r is not None and r.status == STATUS_DONE)
        cached = sum(1 for r in results if r is not None and r.status == STATUS_CACHED)
        failed = sum(1 for r in results if r is not None and r.status == STATUS_FAILED)
        self.observer(SweepProgress(
            total=total,
            done=done,
            cached=cached,
            failed=failed,
            elapsed=time.monotonic() - started,
            last_label=last.spec.label(),
            last_status=last.status,
            last_wall_time=last.wall_time,
        ))

    def _record(self, results, index: int, result: PointResult,
                total: int, started: float) -> None:
        if result.status == STATUS_DONE and self.store is not None:
            self.store.put(result.spec, result.point, wall_time=result.wall_time)
        elif result.status == STATUS_FAILED and self.snapshot_every is not None:
            # A point that exhausted its retry budget will never resume:
            # its mid-run checkpoint is dead weight, not a resume seam.
            # (The executor only clears on success.)
            from repro.snapshot.checkpoint import clear_checkpoint

            clear_checkpoint(self.store.root, result.spec)
        results[index] = result
        self._emit(results, total, started, result)

    # ------------------------------------------------------------------
    # In-process mode (workers=0): sequential, no fault isolation
    # ------------------------------------------------------------------
    def _run_inline(self, specs, pending, results, started) -> None:
        total = len(specs)
        while pending:
            index, attempt = pending.popleft()
            spec = specs[index]
            t0 = time.monotonic()
            try:
                point = self.worker(spec)
            except Exception as exc:
                if attempt <= self.retries:
                    pending.append((index, attempt + 1))
                    continue
                self._record(results, index, PointResult(
                    spec, STATUS_FAILED, error=traceback.format_exc(),
                    exception=exc, attempts=attempt,
                    wall_time=time.monotonic() - t0,
                ), total, started)
                continue
            self._record(results, index, PointResult(
                spec, STATUS_DONE, point, attempts=attempt,
                wall_time=time.monotonic() - t0,
            ), total, started)

    # ------------------------------------------------------------------
    # Process-pool mode: one process per point attempt
    # ------------------------------------------------------------------
    def _run_pool(self, specs, pending, results, started) -> None:
        total = len(specs)
        inflight: dict[object, _Job] = {}  # conn -> job
        try:
            while pending or inflight:
                while pending and len(inflight) < self.workers:
                    index, attempt = pending.popleft()
                    job = self._spawn(index, specs[index], attempt)
                    inflight[job.conn] = job

                poll = _POLL_SECONDS if self.timeout is not None else 1.0
                ready = _wait_connections(list(inflight), timeout=poll)
                for conn in ready:
                    job = inflight.pop(conn)
                    self._resolve(job, pending, results, total, started)

                if self.timeout is not None:
                    now = time.monotonic()
                    for conn, job in list(inflight.items()):
                        if now - job.started > self.timeout:
                            inflight.pop(conn)
                            self._kill(job)
                            self._attempt_failed(
                                job,
                                f"timed out after {self.timeout:g}s (worker killed)",
                                pending, results, total, started,
                            )
        finally:
            for job in inflight.values():  # interrupted: leave no orphans
                self._kill(job)

    def _spawn(self, index: int, spec: RunSpec, attempt: int) -> _Job:
        recv_conn, send_conn = mp.Pipe(duplex=False)
        proc = mp.Process(
            target=_child_main, args=(send_conn, self.worker, spec), daemon=True
        )
        proc.start()
        # Drop the parent's copy of the send end: a worker that dies
        # without sending then reads as EOF instead of hanging forever.
        send_conn.close()
        return _Job(index, spec, attempt, proc, recv_conn, time.monotonic())

    def _resolve(self, job: _Job, pending, results, total, started) -> None:
        try:
            kind, payload = job.conn.recv()
        except (EOFError, OSError):
            # The worker died without producing a result: crashed,
            # OOM-killed, or SIGKILLed mid-point.
            job.proc.join()
            self._close(job)
            self._attempt_failed(
                job,
                f"worker died without a result (exit code {job.proc.exitcode})",
                pending, results, total, started,
            )
            return
        job.proc.join()
        self._close(job)
        if kind == "ok":
            self._record(results, job.index, PointResult(
                job.spec, STATUS_DONE, payload, attempts=job.attempt,
                wall_time=time.monotonic() - job.started,
            ), total, started)
        else:
            self._attempt_failed(job, payload, pending, results, total, started)

    def _attempt_failed(self, job: _Job, error: str,
                        pending, results, total, started) -> None:
        if job.attempt <= self.retries:
            pending.append((job.index, job.attempt + 1))
            return
        self._record(results, job.index, PointResult(
            job.spec, STATUS_FAILED, error=error, attempts=job.attempt,
            wall_time=time.monotonic() - job.started,
        ), total, started)

    def _kill(self, job: _Job) -> None:
        if job.proc.is_alive():
            job.proc.terminate()
            job.proc.join(1.0)
            if job.proc.is_alive():  # pragma: no cover - stubborn worker
                job.proc.kill()
                job.proc.join()
        self._close(job)

    @staticmethod
    def _close(job: _Job) -> None:
        try:
            job.conn.close()
        except OSError:  # pragma: no cover
            pass


def summarize(results: list[PointResult]) -> dict:
    """Aggregate counts + timing for logs and CLI summaries."""
    return {
        "total": len(results),
        "done": sum(1 for r in results if r.status == STATUS_DONE),
        "cached": sum(1 for r in results if r.status == STATUS_CACHED),
        "failed": sum(1 for r in results if r.status == STATUS_FAILED),
        "wall_time": sum(r.wall_time for r in results),
    }
