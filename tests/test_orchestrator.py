"""Tests for the fault-tolerant, cache-aware sweep orchestrator.

Covers the failure paths the grid must survive (a worker that raises, a
worker killed mid-point, a stuck worker hitting the timeout, a corrupt
store entry) and the determinism contract: cache hits and resumed
sweeps produce LoadPoints bit-identical to a sequential fresh run.
"""

import importlib.util
import json
import multiprocessing
import os
import pathlib
import signal
import time

import pytest

from repro.analysis.store import ResultStore
from repro.engine.config import SimulationConfig
from repro.engine.orchestrator import (
    Orchestrator,
    OrchestratorError,
    default_workers,
    summarize,
)
from repro.engine.runner import run_spec
from repro.engine.runspec import RunSpec
from repro.engine.tracing import SweepProgress
from repro.experiments.common import TINY

# ----------------------------------------------------------------------
# Module-level fault-injection workers (must be addressable by name in
# forked worker processes).
# ----------------------------------------------------------------------

INJECTED_BAD_LOAD = 0.2


def _fail_on_bad_load(spec):
    if spec.load == INJECTED_BAD_LOAD:
        raise RuntimeError("injected worker failure")
    return run_spec(spec)


def _kill_on_bad_load(spec):
    if spec.load == INJECTED_BAD_LOAD:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_spec(spec)


def _sleep_forever(spec):
    time.sleep(300)


def _raise_value_error(spec):
    raise ValueError("inline boom")


_FLAKY_DIR = None  # set by the retry test; inherited by forked workers


def _flaky_once(spec):
    marker = pathlib.Path(_FLAKY_DIR) / spec.fingerprint()
    if not marker.exists():
        marker.write_text("first attempt")
        raise RuntimeError("flaky first attempt")
    return run_spec(spec)


def _sleep_on_bad_load(spec):
    if spec.load == INJECTED_BAD_LOAD:
        time.sleep(300)
    return run_spec(spec)


_PID_DIR = None  # set by the pool tests; inherited by forked workers


def _log_pid_kill_on_bad_load(spec):
    """Leave ``<fingerprint>`` = executing PID behind, then behave like
    ``_kill_on_bad_load``."""
    (pathlib.Path(_PID_DIR) / spec.fingerprint()).write_text(str(os.getpid()))
    return _kill_on_bad_load(spec)


def specs(loads, routing="min", seed=3):
    cfg = SimulationConfig.small(h=2, routing=routing, seed=seed)
    return [RunSpec(cfg, "UN", load, 100, 100) for load in loads]


def grid_of(tasks, warmup, measure):
    """(routing, pattern, load) triples at default-seed h=2 configs."""
    return [
        RunSpec(SimulationConfig.small(h=2, routing=routing), pattern, load,
                warmup, measure)
        for routing, pattern, load in tasks
    ]


#: Grids the process pool must reproduce bit-for-bit: (workers, specs).
POOL_GRIDS = {
    "ofar-uniform": (2, specs([0.1, 0.3], routing="ofar")),
    "min-uniform": (2, grid_of([("min", "UN", 0.1), ("min", "UN", 0.3)], 200, 200)),
    # The adversarial OFAR path (misroute rng, escape ring, wake events)
    # is the determinism regression for the active-set engine.
    "ofar-adversarial": (
        2, grid_of([("ofar", "ADV+2", 0.1), ("ofar", "ADV+2", 0.35)], 200, 200)),
    "mixed-configs": (
        2, grid_of([("min", "UN", 0.2), ("ofar", "ADV+2", 0.3)], 150, 150)),
    "single-point": (2, grid_of([("pb", "ADV+1", 0.25)], 200, 200)),
    "single-worker": (1, grid_of([("min", "UN", 0.1)], 100, 100)),
    # Zero load: nothing ejects, the per-packet averages are NaN.
    "empty-window": (2, grid_of([("min", "UN", 0.0)], 50, 50)),
}


class TestSequentialEquivalence:
    def test_inline_matches_direct(self):
        grid = specs([0.1, 0.3])
        assert Orchestrator(workers=0).run_points(grid) == [run_spec(s) for s in grid]

    @pytest.mark.parametrize("name", POOL_GRIDS)
    def test_process_pool_matches_direct(self, name):
        workers, grid = POOL_GRIDS[name]
        pool = Orchestrator(workers=workers).run_points(grid)
        direct = [run_spec(s) for s in grid]
        # to_json covers every field and, unlike ==, is NaN-safe.
        assert [p.to_json() for p in pool] == [p.to_json() for p in direct]
        assert [p.offered_load for p in pool] == [s.load for s in grid]
        if name == "empty-window":
            assert pool[0].ejected_packets == 0  # the edge being pinned
            assert pool[0].as_row() == direct[0].as_row()
            assert pool[0].as_row()["latency"] is None
        else:
            assert pool == direct  # LoadPoint is a plain dataclass

    @pytest.mark.parametrize("grid", [
        specs([0.3, 0.1, 0.2]),
        grid_of([("min", "UN", 0.3), ("min", "UN", 0.1), ("min", "UN", 0.2)],
                150, 150),
    ], ids=["short", "long"])
    def test_results_in_spec_order(self, grid):
        results = Orchestrator(workers=3).run(grid)
        assert [r.spec.load for r in results] == [0.3, 0.1, 0.2]
        assert [r.point.offered_load for r in results] == [0.3, 0.1, 0.2]
        assert all(r.status == "done" for r in results)

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Orchestrator(workers=-1)
        with pytest.raises(ValueError):
            Orchestrator(retries=-1)
        with pytest.raises(ValueError):
            Orchestrator(timeout=0)


class TestFailurePaths:
    def test_raising_worker_recorded_not_fatal(self):
        grid = specs([0.1, INJECTED_BAD_LOAD, 0.3])
        results = Orchestrator(
            workers=2, retries=1, worker=_fail_on_bad_load
        ).run(grid)
        assert [r.status for r in results] == ["done", "failed", "done"]
        bad = results[1]
        assert bad.attempts == 2  # retried once, then recorded
        assert "injected worker failure" in bad.error
        # The healthy points are untouched by the neighbour's failure.
        assert results[0].point == run_spec(grid[0])
        assert results[2].point == run_spec(grid[2])

    def test_worker_killed_mid_point_recovers(self):
        """SIGKILL (OOM-killer style) degrades to a recorded failure."""
        grid = specs([0.1, INJECTED_BAD_LOAD])
        results = Orchestrator(
            workers=2, retries=1, worker=_kill_on_bad_load
        ).run(grid)
        assert results[0].status == "done"
        assert results[0].point == run_spec(grid[0])
        assert results[1].status == "failed"
        assert results[1].attempts == 2
        assert "worker died" in results[1].error

    def test_timeout_kills_stuck_worker(self):
        grid = specs([0.1])
        t0 = time.monotonic()
        results = Orchestrator(
            workers=1, retries=0, timeout=0.3, worker=_sleep_forever
        ).run(grid)
        assert time.monotonic() - t0 < 30  # killed, not waited out
        assert results[0].status == "failed"
        assert "timed out" in results[0].error

    def test_retry_succeeds_after_transient_failure(self, tmp_path):
        global _FLAKY_DIR
        _FLAKY_DIR = str(tmp_path)
        grid = specs([0.1])
        results = Orchestrator(workers=1, retries=1, worker=_flaky_once).run(grid)
        assert results[0].status == "done"
        assert results[0].attempts == 2
        assert results[0].point == run_spec(grid[0])

    def test_strict_mode_raises_original_exception_inline(self):
        with pytest.raises(ValueError, match="inline boom"):
            Orchestrator(workers=0, retries=0, worker=_raise_value_error).run_points(
                specs([0.1])
            )

    def test_strict_mode_raises_orchestrator_error_from_pool(self):
        with pytest.raises(OrchestratorError, match="failed after 1 attempt"):
            Orchestrator(workers=1, retries=0, worker=_fail_on_bad_load).run_points(
                specs([INJECTED_BAD_LOAD])
            )


class TestPersistentPool:
    """The pool itself: N long-lived workers, replaced when lost, none
    left behind."""

    @staticmethod
    def _pids(tmp_path, grid):
        return [int((tmp_path / s.fingerprint()).read_text()) for s in grid]

    def test_grid_shares_workers_processes(self, tmp_path):
        global _PID_DIR
        _PID_DIR = str(tmp_path)
        grid = specs([0.05, 0.1, 0.15, 0.25, 0.3, 0.35])
        results = Orchestrator(
            workers=2, worker=_log_pid_kill_on_bad_load).run(grid)
        assert all(r.status == "done" for r in results)
        pids = self._pids(tmp_path, grid)
        assert len(set(pids)) == 2  # not one process per point
        assert os.getpid() not in pids

    def test_killed_worker_is_replaced(self, tmp_path):
        global _PID_DIR
        _PID_DIR = str(tmp_path)
        grid = specs([0.1, INJECTED_BAD_LOAD, 0.3, 0.15, 0.25, 0.35])
        results = Orchestrator(
            workers=2, retries=0, worker=_log_pid_kill_on_bad_load).run(grid)
        assert [r.status for r in results] == ["done", "failed"] + ["done"] * 4
        assert "worker died without a result (exit code -9)" in results[1].error
        assert [r.point for r in results if r.ok] == [
            run_spec(s) for s in grid if s.load != INJECTED_BAD_LOAD]
        pids = self._pids(tmp_path, grid)
        # Two first children plus the one that took the dead one's slot,
        # and the dead one ran nothing after the point that killed it.
        assert len(set(pids)) == 3
        assert pids.count(pids[1]) == 1

    def test_timed_out_worker_is_replaced(self):
        grid = specs([INJECTED_BAD_LOAD, 0.1])
        results = Orchestrator(
            workers=1, retries=0, timeout=1.5, worker=_sleep_on_bad_load).run(grid)
        assert [r.status for r in results] == ["failed", "done"]
        assert "timed out after 1.5s (worker killed)" in results[0].error
        assert results[1].point == run_spec(grid[1])

    def test_store_entries_equal_inline_run(self, tmp_path):
        grid = specs([0.3, 0.1, 0.2, 0.25], routing="ofar")
        stores = {}
        for workers in (0, 2):
            store = ResultStore(tmp_path / str(workers))
            results = Orchestrator(workers=workers, store=store).run(grid)
            assert [r.spec for r in results] == grid  # spec order
            stores[workers] = [
                json.loads(store.path_for(s.fingerprint()).read_text()) for s in grid]
        for inline, pooled in zip(stores[0], stores[2]):
            assert json.dumps(inline["spec"]) == json.dumps(pooled["spec"])
            assert json.dumps(inline["point"]) == json.dumps(pooled["point"])

    def test_no_more_children_than_pending_points(self, tmp_path, monkeypatch):
        started = []
        start = Orchestrator._start_worker

        def counting(self, grid_specs):
            started.append(1)
            return start(self, grid_specs)

        monkeypatch.setattr(Orchestrator, "_start_worker", counting)
        store = ResultStore(tmp_path)
        grid = specs([0.1, 0.2, 0.3])
        Orchestrator(workers=0, store=store).run(grid[:2])
        results = Orchestrator(workers=4, store=store).run(grid)
        assert [r.status for r in results] == ["cached", "cached", "done"]
        assert len(started) == 1  # one pending point, one child
        Orchestrator(workers=4, store=store).run(grid)
        assert len(started) == 1  # all cached: no child at all

    def test_no_process_outlives_run(self):
        grid = specs([0.1, 0.2, 0.3, INJECTED_BAD_LOAD])
        Orchestrator(workers=2, retries=0, worker=_fail_on_bad_load).run(grid)
        assert multiprocessing.active_children() == []
        with pytest.raises(OrchestratorError):
            Orchestrator(
                workers=2, retries=0, worker=_fail_on_bad_load).run_points(grid)
        assert multiprocessing.active_children() == []

    def test_no_process_outlives_interrupt(self):
        def interrupt(progress):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            Orchestrator(workers=2, observer=interrupt).run(
                specs([0.1, 0.2, 0.3, 0.4, 0.45]))
        assert multiprocessing.active_children() == []


class TestCacheAndResume:
    def test_cache_hits_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        grid = specs([0.1, 0.3], routing="ofar")
        fresh = Orchestrator(workers=2, store=store).run(grid)
        again = Orchestrator(workers=2, store=store).run(grid)
        assert [r.status for r in fresh] == ["done", "done"]
        assert [r.status for r in again] == ["cached", "cached"]
        assert [r.point for r in again] == [run_spec(s) for s in grid]

    def test_resume_picks_up_at_first_missing_point(self, tmp_path):
        store = ResultStore(tmp_path)
        grid = specs([0.1, 0.2, 0.3])
        # Simulate a sweep killed after two points: only they are stored.
        Orchestrator(workers=0, store=store).run(grid[:2])
        assert len(store) == 2
        resumed = Orchestrator(workers=0, store=store).run(grid)
        assert [r.status for r in resumed] == ["cached", "cached", "done"]
        assert [r.point for r in resumed] == [run_spec(s) for s in grid]
        assert len(store) == 3

    def test_corrupt_store_entry_reruns(self, tmp_path):
        store = ResultStore(tmp_path)
        grid = specs([0.1])
        Orchestrator(workers=0, store=store).run(grid)
        store.path_for(grid[0].fingerprint()).write_text("{ truncated")
        results = Orchestrator(workers=0, store=store).run(grid)
        assert results[0].status == "done"  # re-ran, did not crash
        assert results[0].point == run_spec(grid[0])
        assert store.get(grid[0]) == results[0].point  # entry healed

    def test_no_cache_recomputes(self, tmp_path):
        store = ResultStore(tmp_path)
        grid = specs([0.1])
        Orchestrator(workers=0, store=store).run(grid)
        results = Orchestrator(workers=0, store=store, use_cache=False).run(grid)
        assert results[0].status == "done"
        assert store.stats.writes == 2

    def test_overlapping_sweep_reuses_points(self, tmp_path):
        store = ResultStore(tmp_path)
        Orchestrator(workers=0, store=store).run(specs([0.1, 0.2]))
        wider = Orchestrator(workers=0, store=store).run(specs([0.1, 0.2, 0.3, 0.4]))
        assert [r.status for r in wider] == ["cached", "cached", "done", "done"]


class TestObservability:
    def test_progress_events(self, tmp_path):
        events = []
        store = ResultStore(tmp_path)
        grid = specs([0.1, INJECTED_BAD_LOAD, 0.3])
        Orchestrator(
            workers=0, retries=0, store=store, observer=events.append,
            worker=_fail_on_bad_load,
        ).run(grid)
        assert len(events) == 3  # one snapshot per resolved point
        assert [e.resolved for e in events] == [1, 2, 3]
        last = events[-1]
        assert (last.done, last.cached, last.failed) == (2, 0, 1)
        assert last.total == 3
        assert last.eta_seconds == 0.0
        assert last.render().startswith("[sweep 3/3]")

    def test_eta_counts_executed_points_only(self):
        """A resume resolves its cache hits before anything executes;
        they must not make the remaining simulations look instant."""
        def progress(**counts):
            return SweepProgress(total=1000, elapsed=10.0, last_label="pt",
                                 last_status="done", last_wall_time=1.0, **counts)

        hits_only = progress(done=0, cached=900, failed=0)
        assert hits_only.rate != hits_only.rate  # NaN: nothing executed yet
        assert hits_only.eta_seconds != hits_only.eta_seconds
        assert "? pt/s eta ?" in hits_only.render()
        resumed = progress(done=8, cached=900, failed=2)
        assert resumed.rate == pytest.approx(1.0)
        assert resumed.eta_seconds == pytest.approx(90.0)
        assert progress(done=0, cached=1000, failed=0).eta_seconds == 0.0

    def test_eta_on_half_cached_store(self, tmp_path):
        events = []
        store = ResultStore(tmp_path)
        grid = specs([0.1, 0.15, 0.2, 0.25])
        Orchestrator(workers=0, store=store).run(grid[:2])
        Orchestrator(workers=0, store=store, observer=events.append).run(grid)
        assert [e.last_status for e in events] == ["cached", "cached", "done", "done"]
        for hit in events[:2]:
            assert hit.eta_seconds != hit.eta_seconds  # NaN, not ~0 s
        first = events[2]
        assert (first.done, first.cached) == (1, 2)
        assert first.rate == pytest.approx(1 / first.elapsed)
        assert first.eta_seconds == pytest.approx(first.elapsed)  # one to go
        assert events[3].eta_seconds == 0.0

    def test_summarize(self):
        results = Orchestrator(workers=0, retries=0, worker=_fail_on_bad_load).run(
            specs([0.1, INJECTED_BAD_LOAD])
        )
        counts = summarize(results)
        assert counts["total"] == 2
        assert counts["done"] == 1
        assert counts["failed"] == 1
        assert counts["cached"] == 0


class TestTier1Smoke:
    def test_two_point_orchestrated_sweep(self, tmp_path):
        """The satellite smoke: a two-point TINY sweep with workers=2,
        one injected worker failure and one cached point, completing
        fast and leaving the healthy grid intact."""
        store = ResultStore(tmp_path)
        good = TINY.spec("ofar", "UN", 0.1)
        bad = TINY.spec("ofar", "UN", INJECTED_BAD_LOAD)
        sequential = run_spec(good)
        store.put(good, sequential)  # pre-completed: the cached point
        results = Orchestrator(
            workers=2, retries=0, store=store, worker=_fail_on_bad_load
        ).run([good, bad])
        assert [r.status for r in results] == ["cached", "failed"]
        assert results[0].point == sequential  # cache hit == fresh run
        assert "injected worker failure" in results[1].error
        counts = summarize(results)
        assert (counts["cached"], counts["failed"]) == (1, 1)


# ----------------------------------------------------------------------
# Cache-hit / resume determinism through the fingerprint script's lens
# ----------------------------------------------------------------------

def _load_fingerprint_script():
    path = (
        pathlib.Path(__file__).resolve().parents[1]
        / "scripts" / "determinism_fingerprint.py"
    )
    loaded = importlib.util.spec_from_file_location("determinism_fingerprint", path)
    module = importlib.util.module_from_spec(loaded)
    loaded.loader.exec_module(module)
    return module


class TestFingerprintDeterminism:
    def test_resumed_sweep_fingerprint_equals_fresh(self, tmp_path):
        """The acceptance check: the exact-value fingerprint of a
        store-backed resumed sweep equals a sequential fresh run's."""
        df = _load_fingerprint_script()
        grid = specs([0.1, 0.35], routing="ofar", seed=7)

        def call(run, s):
            return df._point_dict(
                run(s.config, s.pattern_spec, s.load, warmup=s.warmup,
                    measure=s.measure)
            )

        sequential = {s.fingerprint(): df._point_dict(run_spec(s)) for s in grid}

        store = ResultStore(tmp_path)
        run_a = df.orchestrated_runner(store, workers=2)
        fresh = {s.fingerprint(): call(run_a, s) for s in grid}
        run_b = df.orchestrated_runner(store, workers=2)  # resume: all cache hits
        resumed = {s.fingerprint(): call(run_b, s) for s in grid}

        assert fresh == sequential
        assert resumed == sequential
        assert store.stats.hits == len(grid)  # the resume really was cached


class TestOrchestratorFromArgs:
    """The shared --workers/--timeout/--retries flag wiring.

    Regression pinned here: --timeout without --workers used to build
    an in-process orchestrator whose timeout was silently never
    enforced.
    """

    @staticmethod
    def _parse(argv):
        from repro.experiments.common import orchestration_options

        return orchestration_options().parse_args(argv)

    def _build(self, argv):
        from repro.experiments.common import orchestrator_from_args

        return orchestrator_from_args(self._parse(argv))

    def test_no_flags_means_in_process_without_store(self):
        orch = self._build([])
        assert orch.workers == 0 and orch.store is None

    def test_retries_alone_builds_orchestrator(self):
        orch = self._build(["--retries", "3"])
        assert orch is not None
        assert orch.retries == 3
        assert orch.workers == 0  # in-process, but with a retry budget

    def test_default_retries_alone_is_the_no_flag_orchestrator(self):
        orch = self._build(["--retries", "1"])
        assert orch.workers == 0 and orch.store is None
        assert orch.retries == 1

    def test_timeout_promotes_to_one_worker(self):
        orch = self._build(["--timeout", "5"])
        assert orch is not None
        assert orch.workers == 1  # enforced by killing the worker process
        assert orch.timeout == 5.0

    def test_timeout_keeps_explicit_workers(self):
        orch = self._build(["--timeout", "5", "--workers", "3"])
        assert orch.workers == 3
        assert orch.timeout == 5.0

    def test_timeout_with_inline_workers_rejected(self):
        with pytest.raises(SystemExit, match="--workers 0"):
            self._build(["--timeout", "5", "--workers", "0"])
