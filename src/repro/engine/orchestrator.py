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
- **fault isolation** — points run in ``workers`` persistent worker
  processes, started once per :meth:`Orchestrator.run` and gone when it
  returns.  A crashed (raised, OOM-killed) or stuck (per-point timeout)
  worker costs the one point it was running one attempt and is
  replaced.  After ``retries`` extra attempts the point is *recorded*
  as failed and the rest of the grid completes; a poisoned point is
  never fatal to the sweep.
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
    # Seconds the resolving attempt took: handing the spec to the worker
    # (a call inline, a pipe write in the pool) until its result is back.
    # No process start-up or store write is in it; a cache hit's is the
    # store read.  The same value goes to ``ResultStore.put(wall_time=)``
    # and the progress line.
    wall_time: float = 0.0
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


def _worker_main(conn, worker, specs) -> None:
    """Pool child body: run the points whose indices arrive on ``conn``
    and answer each with the result or the traceback.  Ends when the
    parent terminates it, or on EOF should the parent itself be gone."""
    try:
        while True:
            spec = specs[conn.recv()]
            try:
                conn.send(("ok", worker(spec)))
            except Exception:
                conn.send(("err", traceback.format_exc()))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


@dataclass
class _Worker:
    """One pool process and the point attempt it holds."""

    proc: mp.Process
    conn: object  # parent end of the duplex pipe
    index: int = -1  # spec index of the held point
    attempt: int = 0
    started: float = 0.0  # when the held point was handed over


class _Grid:
    """Mutable state of one :meth:`Orchestrator.run` call."""

    def __init__(self, specs: list[RunSpec]) -> None:
        self.specs = specs
        self.results: list[PointResult | None] = [None] * len(specs)
        self.pending: deque[tuple[int, int]] = deque()  # (spec index, attempt no.)
        self.counts = {STATUS_DONE: 0, STATUS_CACHED: 0, STATUS_FAILED: 0}
        self.started = time.monotonic()


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
        grid = _Grid(specs)
        for i, spec in enumerate(specs):
            cached = self._try_cache(spec)
            if cached is not None:
                self._record(grid, i, cached)
            else:
                grid.pending.append((i, 1))

        if grid.pending:
            if self.workers == 0:
                self._run_inline(grid)
            else:
                self._run_pool(grid)
        assert all(r is not None for r in grid.results)
        return grid.results  # type: ignore[return-value]

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

    def _record(self, grid: _Grid, index: int, result: PointResult) -> None:
        if result.status == STATUS_DONE and self.store is not None:
            self.store.put(result.spec, result.point, wall_time=result.wall_time)
        elif result.status == STATUS_FAILED and self.snapshot_every is not None:
            # A point that exhausted its retry budget will never resume:
            # its mid-run checkpoint is dead weight, not a resume seam.
            # (The executor only clears on success.)
            from repro.snapshot.checkpoint import clear_checkpoint

            clear_checkpoint(self.store.root, result.spec)
        grid.results[index] = result
        grid.counts[result.status] += 1
        if self.observer is not None:
            self.observer(SweepProgress(
                total=len(grid.specs),
                done=grid.counts[STATUS_DONE],
                cached=grid.counts[STATUS_CACHED],
                failed=grid.counts[STATUS_FAILED],
                elapsed=time.monotonic() - grid.started,
                last_label=result.spec.label(),
                last_status=result.status,
                last_wall_time=result.wall_time,
            ))

    def _attempt_over(self, grid: _Grid, index: int, attempt: int, t0: float,
                      point: LoadPoint | None = None, error: str | None = None,
                      exception: BaseException | None = None) -> None:
        """An attempt handed over at ``t0`` came back: record the point,
        re-queue it at the back, or record the failure."""
        if error is not None and attempt <= self.retries:
            grid.pending.append((index, attempt + 1))
            return
        self._record(grid, index, PointResult(
            grid.specs[index], STATUS_DONE if error is None else STATUS_FAILED,
            point, error=error, exception=exception, attempts=attempt,
            wall_time=time.monotonic() - t0,
        ))

    # ------------------------------------------------------------------
    # In-process mode (workers=0): sequential, no fault isolation
    # ------------------------------------------------------------------
    def _run_inline(self, grid: _Grid) -> None:
        while grid.pending:
            index, attempt = grid.pending.popleft()
            t0 = time.monotonic()
            try:
                point = self.worker(grid.specs[index])
            except Exception as exc:
                self._attempt_over(grid, index, attempt, t0,
                                   error=traceback.format_exc(), exception=exc)
            else:
                self._attempt_over(grid, index, attempt, t0, point)

    # ------------------------------------------------------------------
    # Process-pool mode: persistent workers fed spec indices over pipes
    # ------------------------------------------------------------------
    def _run_pool(self, grid: _Grid) -> None:
        pending = grid.pending
        idle: list[_Worker] = []
        busy: dict[object, _Worker] = {}  # conn -> worker
        try:
            while pending or busy:
                # Children start on demand: never more than there is
                # work for, and a lost one is replaced only if needed.
                while pending and (idle or len(busy) < self.workers):
                    w = idle.pop() if idle else self._start_worker(grid.specs)
                    w.index, w.attempt = pending.popleft()
                    w.started = time.monotonic()
                    busy[w.conn] = w
                    try:
                        w.conn.send(w.index)
                    except OSError:
                        pass  # died while idle: reads as EOF below

                poll = _POLL_SECONDS if self.timeout is not None else None
                for conn in _wait_connections(list(busy), timeout=poll):
                    w = busy[conn]
                    try:
                        kind, payload = conn.recv()
                        idle.append(w)
                    except (EOFError, OSError):
                        # The worker died without producing a result:
                        # crashed, OOM-killed, or SIGKILLed mid-point.
                        w.proc.join()
                        conn.close()
                        kind, payload = "err", (
                            "worker died without a result "
                            f"(exit code {w.proc.exitcode})")
                    del busy[conn]
                    if kind == "ok":
                        self._attempt_over(grid, w.index, w.attempt, w.started, payload)
                    else:
                        self._attempt_over(grid, w.index, w.attempt, w.started,
                                           error=payload)

                if self.timeout is not None:
                    now = time.monotonic()
                    for conn, w in list(busy.items()):
                        if now - w.started > self.timeout:
                            del busy[conn]
                            self._kill(w)
                            self._attempt_over(
                                grid, w.index, w.attempt, w.started,
                                error=f"timed out after {self.timeout:g}s (worker killed)")
        finally:
            for w in [*idle, *busy.values()]:  # done or interrupted: no orphans
                self._kill(w)

    def _start_worker(self, specs: list[RunSpec]) -> _Worker:
        # Under fork the child inherits ``specs`` and ``self.worker``;
        # the pipe only ever carries an index one way, a result the other.
        parent_conn, child_conn = mp.Pipe()
        proc = mp.Process(
            target=_worker_main, args=(child_conn, self.worker, specs), daemon=True
        )
        proc.start()
        # Drop the parent's copy of the child end: a worker that dies
        # without answering then reads as EOF instead of hanging forever.
        child_conn.close()
        return _Worker(proc, parent_conn)

    @staticmethod
    def _kill(w: _Worker) -> None:
        if w.proc.is_alive():
            w.proc.terminate()
            w.proc.join(1.0)
            if w.proc.is_alive():  # pragma: no cover - stubborn worker
                w.proc.kill()
                w.proc.join()
        w.conn.close()


def summarize(results: list[PointResult]) -> dict:
    """Aggregate counts + timing for logs and CLI summaries.

    ``wall_time`` sums :attr:`PointResult.wall_time` (hand-over to
    result, per point), so with N workers it is worker-seconds spent on
    points, not the elapsed time of the grid.
    """
    return {
        "total": len(results),
        "done": sum(1 for r in results if r.status == STATUS_DONE),
        "cached": sum(1 for r in results if r.status == STATUS_CACHED),
        "failed": sum(1 for r in results if r.status == STATUS_FAILED),
        "wall_time": sum(r.wall_time for r in results),
    }
