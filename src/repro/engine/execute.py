"""The one point executor: build → warm up → measure → summarize → persist.

Every number the run layer produces is one :class:`RunSpec` point, and
this module is the only code that runs one.  Who calls it::

    run_spec / run_workload / run_scenario      (in-process, public API)
    run_transient / run_burst
    Orchestrator(worker=partial(execute_point)) (inline or N persistent children)
    FabricWorker(execute=partial(execute_point))(file or HTTP lease backend)
    execute_cached                              (sidecar cache, full result)
                        │
                        ▼
                 execute_outcome  ──►  PointKind hooks (one row per kind of point)

:func:`execute_outcome` is a segment loop.  A point has a warm-up phase
and one or more measurement windows (``spec.max_windows``; a fixed
window is the one-window case); the bookkeeping that happens exactly
once at the warm-up boundary — metrics reset, the kind's measurement
state, the telemetry sampler attach — is recorded in a JSON-safe
``extras`` dict.  With ``snapshot_every`` the loop additionally stops at
every multiple of that many cycles to save the simulator *and* the
extras into the store (:mod:`repro.snapshot.checkpoint`), and a rerun
resumes from the last save with nothing replayed and nothing lost.
Without it there is one segment per phase and no checkpoint file is
touched — same code, same bytes.

What differs between the kinds of point is confined to one
:class:`PointKind` row each (the steady row lives here, the others
beside their result types in :mod:`repro.engine.runner` (transient,
burst), :mod:`repro.workloads.runner` and :mod:`repro.cluster.runner`,
imported on first use so plain steady points never load them).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.engine.backend import resolve_backend
from repro.engine.metrics import LoadPoint
from repro.engine.runspec import RunSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.store import ResultStore
    from repro.engine.simulator import Simulator
    from repro.telemetry.config import TelemetryConfig
    from repro.telemetry.sampler import TelemetrySeries

#: Convergence tolerance of the windowed measurement protocol
#: (``RunSpec.max_windows``): consecutive windows whose throughputs
#: agree within this relative tolerance end the run.
STABLE_REL_TOL = 0.03


def windows_agree(
    previous: float, current: float, rel_tol: float = STABLE_REL_TOL
) -> bool:
    """The windowed protocol's stopping rule for two consecutive
    windows' throughputs."""
    scale = max(previous, current, 1e-9)
    return abs(current - previous) / scale <= rel_tol


def run_to(sim: "Simulator", plan: Any, extras: dict, stop: int) -> None:
    """The default ``advance``: nothing happens between cycles."""
    sim.run(stop - sim.cycle)


@dataclass(frozen=True)
class PointKind:
    """What one kind of point contributes to the executor's loop.

    ``plan`` is whatever immutable, spec-derived data the kind's other
    hooks need (rebuilt identically on resume, so it never rides in a
    checkpoint); ``extras`` is the executor's JSON-safe state dict, into
    which ``begin``'s return value is merged at the warm-up boundary.
    """

    #: ``(spec) -> (simulator, plan)`` — fresh simulator, generator wired.
    build: Callable[[RunSpec], tuple["Simulator", Any]]
    #: ``(sim, spec, plan, extras) -> (LoadPoint, full result | None)``.
    summarize: Callable[["Simulator", RunSpec, Any, dict], tuple[LoadPoint, Any]]
    #: ``(sim, plan) -> dict`` — measurement state captured at the
    #: warm-up boundary (JSON-safe: it is checkpointed with the simulator).
    begin: Callable[["Simulator", Any], dict] = lambda sim, plan: {}
    #: ``(sim, plan, extras, stop)`` — advance to cycle ``stop``; a true
    #: return means the point finished early (a drained burst).
    advance: Callable[["Simulator", Any, dict, int], Optional[bool]] = run_to
    #: Store sidecar kind the full result is persisted under, and the
    #: decoder that reads it back; None when the LoadPoint is everything.
    sidecar: Optional[str] = None
    decode: Optional[Callable[[dict], Any]] = None


STEADY = PointKind(
    build=lambda spec: (resolve_backend(spec).build(spec), None),
    summarize=lambda sim, spec, plan, extras: (
        sim.metrics.load_point(spec.load, sim.cycle), None
    ),
)


def kind_of(spec: RunSpec) -> PointKind:
    """The only place a RunSpec is mapped to its kind's row."""
    if spec.transient is not None or spec.burst is not None:
        from repro.engine import runner

        return runner.TRANSIENT if spec.transient is not None else runner.BURST
    if spec.scenario is not None:
        from repro.cluster.runner import SCENARIO

        return SCENARIO
    if spec.workload is not None:
        from repro.workloads.runner import WORKLOAD

        return WORKLOAD
    return STEADY


def preload(specs: list[RunSpec]) -> None:
    """Import everything executing ``specs`` needs — engine backend,
    point kind, simulator, network, routing, traffic and the numpy RNG
    the traffic generators draw from — without running anything.

    The pool calls this right before forking its children, so they
    inherit the stack instead of each importing it on its first point.
    """
    import numpy.random  # noqa: F401 - numpy loads it on the first draw
    from repro.engine import runner  # noqa: F401

    for spec in specs:
        resolve_backend(spec)
        kind_of(spec)


def build_sim(spec: RunSpec) -> "Simulator":
    """Fresh simulator + generator for ``spec``, whatever its kind."""
    return kind_of(spec).build(spec)[0]


@dataclass
class PointOutcome:
    """Everything one executed point produced."""

    point: LoadPoint
    #: The kind's full result (WorkloadResult, ...); None for steady.
    result: Any = None
    #: The in-run telemetry series, when a sampler was attached.
    series: "TelemetrySeries | None" = None


def execute_outcome(
    spec: RunSpec,
    *,
    telemetry: "TelemetryConfig | None" = None,
    store_root: str | os.PathLike | None = None,
    telemetry_dir: str | os.PathLike | None = None,
    snapshot_every: int | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> PointOutcome:
    """Run one point and persist what it produced; see the module docstring.

    ``telemetry`` applies to specs that carry no ``spec.telemetry`` of
    their own; the sampler covers the measurement phase (attached at the
    warm-up boundary) and never perturbs — the LoadPoint is bit-identical
    with or without it.  With ``store_root``, a non-steady point's
    full result is written as a store sidecar (through a plain
    :class:`~repro.analysis.store.ResultStore` over that path — for an
    HTTP fabric worker this is its local spool); with ``telemetry_dir``
    the series lands at ``<telemetry_dir>/<fp[:2]>/<fp>.jsonl``.

    ``snapshot_every`` (needs ``store_root``) checkpoints every that many
    cycles and resumes from an existing checkpoint; the checkpoint is
    deleted on success.  ``should_stop`` is the graceful-preemption hook
    (SIGTERM in the fabric worker), polled at segment boundaries of a
    checkpointed run: when it returns true the current state is saved
    and :class:`~repro.snapshot.checkpoint.Preempted` is raised — the
    point resumes later, on any host, bit-identically.
    """
    kind = kind_of(spec)
    sim, plan = kind.build(spec)
    extras: Optional[dict] = None
    ckpt = None  # the checkpoint module, when this run checkpoints
    if snapshot_every is not None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if store_root is None:
            raise ValueError("snapshot_every needs a store to hold the checkpoints")
        from repro.snapshot import checkpoint as ckpt

        snap = ckpt.load_checkpoint(store_root, spec)
        if snap is not None:
            snap.restore_into(sim)
            extras = snap.extras

    tcfg = spec.telemetry if spec.telemetry is not None else telemetry
    max_windows = spec.max_windows if spec.max_windows is not None else 1
    last_cycle = spec.warmup + max_windows * spec.measure
    finished = None  # what the last ``advance`` returned
    while True:
        if extras is None and sim.cycle >= spec.warmup:
            # Warm-up boundary bookkeeping, exactly once per point: the
            # "measuring" marker rides in every later checkpoint.
            sim.metrics.reset(sim.cycle)
            extras = {"measuring": True, **kind.begin(sim, plan)}
            if tcfg is not None:
                from repro.telemetry.sampler import TelemetrySampler

                TelemetrySampler(sim, tcfg).attach()
        if extras is None:
            end = spec.warmup
        else:
            # The windowed protocol's whole state is two scalars (absent
            # until the first window closes, i.e. always for fixed-window
            # specs).
            window = extras.get("window", 0)
            end = spec.warmup + (window + 1) * spec.measure
            if finished or sim.cycle >= end:
                point, result = kind.summarize(sim, spec, plan, extras)
                previous = extras.get("previous")
                if window + 1 >= max_windows or (
                    previous is not None
                    and windows_agree(previous, point.throughput)
                ):
                    break
                extras["window"] = window + 1
                extras["previous"] = point.throughput
                sim.metrics.reset(sim.cycle)
                continue
        stop = end
        if ckpt is not None:
            if should_stop is not None and should_stop():
                ckpt.save_checkpoint(store_root, spec, sim, extras)
                raise ckpt.Preempted(spec.fingerprint(), sim.cycle)
            stop = min(end, (sim.cycle // snapshot_every + 1) * snapshot_every)
        finished = kind.advance(sim, plan, extras, stop)
        if ckpt is not None and sim.cycle % snapshot_every == 0 \
                and sim.cycle < last_cycle:
            ckpt.save_checkpoint(store_root, spec, sim, extras)

    series = sim.telemetry.finish() if sim.telemetry is not None else None
    if store_root is not None and kind.sidecar is not None:
        from repro.analysis.store import ResultStore

        ResultStore(store_root).put_sidecar(kind.sidecar, spec, result.to_jsonable())
    if series is not None and telemetry_dir is not None:
        from repro.telemetry.export import write_jsonl

        fp = spec.fingerprint()
        write_jsonl(series, Path(telemetry_dir) / fp[:2] / f"{fp}.jsonl")
    if ckpt is not None:
        ckpt.clear_checkpoint(store_root, spec)
    return PointOutcome(point, result, series)


def execute_point(spec: RunSpec, **options) -> LoadPoint:
    """The per-point callable ``(RunSpec) -> LoadPoint``.

    This is what crosses the orchestrator's worker pipe and what the
    ``worker=`` / ``execute=`` hooks replace; bind
    :func:`execute_outcome`'s keyword options with ``functools.partial``.
    """
    return execute_outcome(spec, **options).point


def execute_cached(
    spec: RunSpec, store: "ResultStore | None", use_cache: bool = True
) -> Any:
    """A non-steady spec's *full* result, through the store.

    The result is cached as a store sidecar keyed by the spec
    fingerprint (written by every store-backed executor, so an
    orchestrated or fabric-drained point is a hit here); the global
    LoadPoint additionally goes to the main store so sweeps over the
    same spec hit cache.  A hit round-trips through JSON, which is
    lossless — cached and fresh results are identical.
    """
    kind = kind_of(spec)
    if kind.sidecar is None:
        raise ValueError("a steady spec's LoadPoint is its whole result")
    if store is not None and use_cache:
        payload = store.get_sidecar(kind.sidecar, spec)
        if payload is not None:
            try:
                return kind.decode(payload)
            except (ValueError, KeyError, TypeError):
                pass  # corrupt sidecar: recompute and overwrite
    outcome = execute_outcome(spec)
    if store is not None:
        store.put_sidecar(kind.sidecar, spec, outcome.result.to_jsonable())
        store.put(spec, outcome.point)
    return outcome.result


__all__ = [
    "STABLE_REL_TOL",
    "STEADY",
    "PointKind",
    "PointOutcome",
    "build_sim",
    "execute_cached",
    "execute_outcome",
    "execute_point",
    "kind_of",
    "preload",
    "run_to",
    "windows_agree",
]
