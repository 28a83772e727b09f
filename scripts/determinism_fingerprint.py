#!/usr/bin/env python
"""Fingerprint the engine's observable behavior for regression checks.

Runs a grid of small simulations spanning every routing mechanism,
escape mode and a few edge configurations, and emits a JSON document of
exact (unrounded) LoadPoint fields plus network counters.  Two engine
versions are behaviorally identical iff their fingerprints are equal —
use this before/after any engine refactor that claims to be
bit-for-bit behavior-preserving::

    PYTHONPATH=src python scripts/determinism_fingerprint.py > before.json
    # ... apply the refactor ...
    PYTHONPATH=src python scripts/determinism_fingerprint.py > after.json
    diff before.json after.json

``determinism_fingerprint.reference.json`` next to this script is the
plain-mode document of the checked-in engine (CI diffs against it; the
output does not depend on ``PYTHONHASHSEED``).  A change that is meant
to alter behavior regenerates it::

    PYTHONPATH=src python scripts/determinism_fingerprint.py \\
        > scripts/determinism_fingerprint.reference.json

``--check [REFERENCE]`` still writes the document to stdout, then
compares it byte for byte with REFERENCE (default: the checked-in
reference) and, on any difference, names each differing entry on
stderr (``steady/pb/ADV+1/0.35: throughput '0.34' -> '0.35'``) and
exits 1 — readable where a ``diff`` of the one-line scenario entry is
not::

    PYTHONPATH=src python scripts/determinism_fingerprint.py --check > plain.json

``--orchestrated`` routes every steady-state point through a
store-backed :class:`~repro.engine.orchestrator.Orchestrator` (process
pool + content-addressed cache in a temp dir), runs the grid twice —
fresh, then resumed entirely from cache — asserts the two passes agree,
and emits the same document.  ``diff`` against a plain run must come
back empty; that is the cache-hit/resume bit-identity check.

``--telemetry`` attaches an in-run telemetry sampler
(:mod:`repro.telemetry`, interval 50, per-link detail on) to every
steady-state point and the transient, and emits the same document from
the telemetered runs.  ``diff`` against a plain run must come back
empty; that is the observation-never-perturbs check — the sampler reads
counters and chains the ejection hook, so every LoadPoint, series value
and network counter must be bit-identical with it attached.

``--snapshot`` routes every steady-state point, the transient and the
workload through the checkpoint/restore subsystem
(:mod:`repro.snapshot`): each run stops mid-measurement, captures a
snapshot, JSON round-trips it, forks a *fresh* simulator from it and
finishes on the fork.  ``diff`` against a plain run must come back
empty; that is the save/restore bit-identity check.

``--backend NAME`` executes the whole grid on the named engine
backend (:mod:`repro.engine.backend`).  Backends are required to be
bit-for-bit identical, so ``--backend array`` must diff clean against a
plain (object-backend) run — that is the cross-engine equivalence
check, over every mechanism the grid covers.

Every mode also fingerprints one multi-job workload spec
(:mod:`repro.workloads`: three jobs with staggered lifetimes, one of
them a burst) down to its per-job LoadPoints and interference matrix.
In ``--orchestrated`` mode the workload runs once through a
store-backed orchestrator (the worker persists the WorkloadResult
sidecar) and is then resolved again purely from the sidecar cache — the
two must agree, and both must diff clean against the plain and
``--telemetry`` documents.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from repro.engine.backend import available_backends, get_backend
from repro.engine.config import SimulationConfig
from repro.engine.runner import run_burst, run_spec, run_transient
from repro.engine.runspec import RunSpec

#: Engine backend executing every run in this process (--backend).
BACKEND = "object"

#: The plain-mode document of the checked-in engine (--check default).
REFERENCE = Path(__file__).with_name("determinism_fingerprint.reference.json")


def _point_dict(pt) -> dict:
    return {k: repr(v) for k, v in dataclasses.asdict(pt).items()}


def plain_runner():
    """The default runner: one :func:`run_spec` call per point."""

    def run(config, pattern, load, warmup, measure):
        return run_spec(
            RunSpec(config, pattern, load, warmup, measure, backend=BACKEND)
        )

    return run


def orchestrated_runner(store, workers: int = 2):
    """A drop-in for ``run_steady_state`` that routes each point through
    a store-backed orchestrator (worker processes + cache).

    ``store`` is a :class:`~repro.analysis.store.ResultStore` or a
    directory path for one.
    """
    from repro.analysis.store import ResultStore
    from repro.engine.orchestrator import Orchestrator

    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    orch = Orchestrator(workers=workers, store=store, retries=0)

    def run(config, pattern, load, warmup, measure):
        spec = RunSpec(config, pattern, load, warmup, measure, backend=BACKEND)
        return orch.run_points([spec])[0]

    return run


def telemetry_runner():
    """A drop-in for ``run_steady_state`` that runs each point with a
    telemetry sampler attached (and discards the series: only the
    LoadPoint enters the fingerprint, and it must not change)."""
    from repro.engine.execute import execute_outcome
    from repro.telemetry.config import TelemetryConfig

    tcfg = TelemetryConfig(interval=50, per_link=True)

    def run(config, pattern, load, warmup, measure):
        outcome = execute_outcome(
            RunSpec(config, pattern, load, warmup, measure, backend=BACKEND),
            telemetry=tcfg,
        )
        assert outcome.series is not None and outcome.series.samples, \
            "sampler produced nothing"
        return outcome.point

    return run


def snapshot_runner():
    """A drop-in for ``run_steady_state`` that exercises the snapshot
    codec on every point: stop mid-measurement, capture a snapshot, JSON
    round-trip it, fork a *fresh* simulator from it, and finish the
    measurement on the fork.  The LoadPoint must be bit-identical to a
    straight-through run — that is the save/restore bit-identity check.
    """
    from repro.engine.runner import build_steady_sim
    from repro.snapshot import Snapshot

    def run(config, pattern, load, warmup, measure):
        spec = RunSpec(config, pattern, load, warmup, measure, backend=BACKEND)
        sim = build_steady_sim(spec)
        sim.warm_up(warmup)
        sim.run(measure // 2)
        snap = Snapshot.from_jsonable(
            json.loads(json.dumps(Snapshot.capture(sim, spec=spec).to_jsonable()))
        )
        fork = snap.fork()
        assert fork.state_digest() == sim.state_digest(), "restore diverged"
        fork.run(measure - measure // 2)
        return fork.metrics.load_point(load, fork.cycle)

    return run


def steady_grid(run=None) -> dict:
    if run is None:
        run = plain_runner()
    out = {}
    for routing in ("min", "val", "ugal", "pb", "par", "ofar", "ofar-l"):
        for pattern in ("UN", "ADV+1"):
            for load in (0.1, 0.35):
                overrides = {"local_vcs": 4} if routing == "par" else {}
                cfg = SimulationConfig.small(h=2, routing=routing, seed=7, **overrides)
                pt = run(cfg, pattern, load, warmup=300, measure=300)
                out[f"{routing}/{pattern}/{load}"] = _point_dict(pt)
    # One baseline point deep past saturation (VAL is bounded at 0.5),
    # where most allocator passes end with stalled heads.
    cfg = SimulationConfig.small(h=2, routing="val", seed=7)
    pt = run(cfg, "ADV+1", 0.6, warmup=300, measure=300)
    out["val/ADV+1/0.6"] = _point_dict(pt)
    # A larger instance, the embedded-ring / multiring / read-port /
    # congestion-control variants of OFAR, and a two-read-port baseline.
    variants = {
        "h3": SimulationConfig.small(h=3, routing="ofar", seed=3),
        "embedded": SimulationConfig.small(h=2, routing="ofar", escape="embedded", seed=5),
        "rings2": SimulationConfig.small(h=2, routing="ofar", escape_rings=2, seed=5),
        "readports2": SimulationConfig.small(
            h=2, routing="ofar", input_read_ports=2, seed=5
        ),
        "congestion": SimulationConfig.small(
            h=2, routing="ofar", congestion_control=True, seed=5
        ),
        "readports2-pb": SimulationConfig.small(
            h=2, routing="pb", input_read_ports=2, seed=5
        ),
    }
    for name, cfg in variants.items():
        pt = run(cfg, "ADV+2", 0.3, warmup=300, measure=300)
        out[f"variant/{name}"] = _point_dict(pt)
    return out


def drain_and_counters(telemetry: bool = False, snapshot: bool = False) -> dict:
    out = {}
    cfg = SimulationConfig.small(h=2, routing="ofar", seed=11)
    burst = run_burst(cfg, "ADV+2", packets_per_node=4, backend=BACKEND)
    out["burst"] = {k: repr(v) for k, v in dataclasses.asdict(burst).items()}
    tcfg = None
    if telemetry:
        from repro.telemetry.config import TelemetryConfig

        tcfg = TelemetryConfig(interval=50, per_link=True)
    if snapshot:
        # Snapshot-path transient: warm up once, fork the measurement
        # off the snapshot (run_transient's forked sibling).  The series
        # must match the straight-through run exactly.
        from repro.engine.runner import run_transient_forked

        tr = run_transient_forked(
            SimulationConfig.small(h=2, routing="ofar", seed=13),
            "UN",
            ["ADV+2"],
            0.3,
            warmup=400,
            post=400,
            drain_margin=600,
            bucket=20,
            backend=BACKEND,
        )[0]
    else:
        tr = run_transient(
            SimulationConfig.small(h=2, routing="ofar", seed=13),
            "UN",
            "ADV+2",
            0.3,
            warmup=400,
            post=400,
            drain_margin=600,
            bucket=20,
            telemetry=tcfg,
            backend=BACKEND,
        )
    if telemetry:
        assert tr.telemetry is not None and tr.telemetry.samples
    out["transient"] = [(c, repr(v)) for c, v in tr.series]
    sim = get_backend(BACKEND).simulator(
        SimulationConfig.small(h=2, routing="min", seed=2)
    )
    for i in range(8):
        sim.create_packet(i, 71 - i)
    end = sim.run_until_drained(100_000)
    net = sim.network
    out["drain"] = {
        "end": end,
        "cycle": sim.cycle,
        "movements": net.movements,
        "injected": net.injected_packets,
        "ejected": net.ejected_packets,
    }
    return out


def workload_spec():
    """The multi-job spec every mode fingerprints: three jobs with
    staggered lifetimes (one arrives late, one is a finite burst) spread
    round-robin over the groups of an h=2 machine."""
    from repro.workloads.spec import JobSpec, WorkloadSpec

    workload = WorkloadSpec(
        jobs=(
            JobSpec(name="steady", nodes=24, pattern="UN", load=0.15),
            JobSpec(name="bully", nodes=24, pattern="ADV+2", load=0.3,
                    start=150, stop=450),
            JobSpec(name="burst", nodes=8, traffic="burst",
                    packets_per_node=2),
        ),
        placement="round-robin-groups",
    )
    cfg = SimulationConfig.small(h=2, routing="ofar", seed=17)
    return RunSpec.for_workload(cfg, workload, warmup=300, measure=300,
                                backend=BACKEND)


def _workload_doc(result) -> dict:
    return {
        "total": _point_dict(result.total),
        "jobs": {
            jr.name: {"num_nodes": jr.num_nodes, **_point_dict(jr.point)}
            for jr in result.jobs
        },
        "jain_across_jobs": repr(result.jain_across_jobs),
        "interference": [[repr(x) for x in row] for row in result.interference],
    }


def workload_section(mode: str, workers: int = 2) -> dict:
    """Fingerprint the multi-job spec under ``mode`` ("plain",
    "orchestrated" or "telemetry"); all three must emit the same dict."""
    from repro.engine.execute import execute_cached, execute_outcome
    from repro.workloads.runner import SIDECAR_KIND, WorkloadResult, run_workload

    spec = workload_spec()
    if mode == "orchestrated":
        from repro.analysis.store import ResultStore
        from repro.engine.orchestrator import Orchestrator

        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(tmp)
            orch = Orchestrator(workers=workers, store=store, retries=0)
            total = orch.run_points([spec])[0]
            payload = store.get_sidecar(SIDECAR_KIND, spec)
            assert payload is not None, "worker did not persist the sidecar"
            fresh = WorkloadResult.from_jsonable(payload)
            if _point_dict(total) != _point_dict(fresh.total):
                sys.exit("orchestrated total diverged from the sidecar total")
            resumed = execute_cached(spec, store)
            if _workload_doc(fresh) != _workload_doc(resumed):
                sys.exit("cache-hit workload result diverged from fresh run")
            result = resumed
    elif mode == "telemetry":
        from repro.telemetry.config import TelemetryConfig

        outcome = execute_outcome(
            spec, telemetry=TelemetryConfig(interval=50, per_link=True)
        )
        result, series = outcome.result, outcome.series
        assert series is not None and series.samples, "sampler produced nothing"
        assert any(s.job_flow for s in series.samples), "no per-job flow sampled"
    elif mode == "snapshot":
        # Capture mid-measurement with the phit baseline riding in
        # extras (the one piece of summarization state outside the
        # simulator), JSON round-trip, fork, finish on the fork.
        from repro.snapshot import Snapshot
        from repro.workloads.runner import (
            _job_phit_baseline, _summarize, build_workload_sim,
        )

        sim = build_workload_sim(spec)
        sim.warm_up(spec.warmup)
        baseline = _job_phit_baseline(sim.network)
        sim.run(spec.measure // 2)
        snap = Snapshot.from_jsonable(json.loads(json.dumps(
            Snapshot.capture(
                sim, spec=spec, extras={"baseline": baseline}
            ).to_jsonable()
        )))
        fork = snap.fork()
        assert fork.state_digest() == sim.state_digest(), "restore diverged"
        fork.run(spec.measure - spec.measure // 2)
        result = _summarize(fork, snap.extras["baseline"])
    else:
        result = run_workload(spec)
    return _workload_doc(result)


def scenario_spec():
    """The cluster scenario every mode fingerprints: five Poisson jobs
    through EASY backfill over random-nodes placement, two random link
    failures (repaired 300 cycles later) on an h=2 OFAR machine."""
    from repro.cluster.spec import (
        ArrivalSpec, FaultScheduleSpec, JobMix, ScenarioSpec,
    )

    scenario = ScenarioSpec(
        arrivals=ArrivalSpec(kind="poisson", rate=0.01, jobs=5),
        mix=JobMix(sizes=((4, 1.0), (8, 1.0)), durations=((400, 1.0),),
                   loads=((0.25, 1.0),)),
        scheduler="easy",
        placement="random-nodes",
        faults=FaultScheduleSpec(rate=0.004, count=2, repair=300, seed=3),
        horizon=1200,
        seed=9,
        blast_window=150,
    )
    cfg = SimulationConfig.small(h=2, routing="ofar", seed=19)
    return RunSpec.for_scenario(cfg, scenario, backend=BACKEND)


def _scenario_doc(result) -> str:
    """Canonical JSON of the full ScenarioResult (NaN-preserving)."""
    return json.dumps(result.to_jsonable(), sort_keys=True)


def scenario_section(mode: str, workers: int = 2) -> str:
    """Fingerprint the cluster scenario under ``mode``; every mode must
    emit the identical string (scheduling, per-job points, blast table
    and all)."""
    from repro.cluster.runner import SIDECAR_KIND, ScenarioResult, run_scenario
    from repro.engine.execute import execute_cached, execute_outcome, execute_point

    spec = scenario_spec()
    if mode == "orchestrated":
        from repro.analysis.store import ResultStore
        from repro.engine.orchestrator import Orchestrator

        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(tmp)
            orch = Orchestrator(workers=workers, store=store, retries=0)
            total = orch.run_points([spec])[0]
            payload = store.get_sidecar(SIDECAR_KIND, spec)
            assert payload is not None, "worker did not persist the sidecar"
            fresh = ScenarioResult.from_jsonable(payload)
            if _point_dict(total) != _point_dict(fresh.total):
                sys.exit("orchestrated scenario total diverged from the sidecar")
            resumed = execute_cached(spec, store)
            if _scenario_doc(fresh) != _scenario_doc(resumed):
                sys.exit("cache-hit scenario result diverged from fresh run")
            result = resumed
    elif mode == "telemetry":
        from repro.telemetry.config import TelemetryConfig

        outcome = execute_outcome(
            spec, telemetry=TelemetryConfig(interval=50, per_link=True)
        )
        result, series = outcome.result, outcome.series
        assert series is not None and series.samples, "sampler produced nothing"
        assert any(s.job_flow for s in series.samples), "no per-job flow sampled"
    elif mode == "snapshot":
        # The checkpoint path: run the scenario through periodic
        # mid-run snapshots (saved + reloaded from disk), then read the
        # result back from the persisted sidecar.
        from repro.analysis.store import ResultStore

        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(tmp)
            total = execute_point(spec, store_root=store.root, snapshot_every=150)
            payload = store.get_sidecar(SIDECAR_KIND, spec)
            assert payload is not None, "checkpointed run did not persist the sidecar"
            result = ScenarioResult.from_jsonable(payload)
            if _point_dict(total) != _point_dict(result.total):
                sys.exit("checkpointed scenario total diverged from the sidecar")
    else:
        result = run_scenario(spec)
    return _scenario_doc(result)


def _leaves(node, path: tuple[str, ...] = ()):
    """``(path, value)`` for every leaf of a fingerprint document; the
    scenario entry's embedded JSON is opened so its fields are named too."""
    if path == ("scenario",) and isinstance(node, str):
        node = json.loads(node)
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (str(key),))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (str(i),))
    else:
        yield path, node


def check(text: str, reference: Path) -> int:
    """Compare the emitted document with ``reference`` byte for byte;
    on a difference, name the differing entries on stderr and return 1."""
    expected = reference.read_text()
    if text == expected:
        print(f"fingerprint matches {reference}", file=sys.stderr)
        return 0
    ref = dict(_leaves(json.loads(expected)))
    new = dict(_leaves(json.loads(text)))
    lines = []
    for path in sorted(ref.keys() | new.keys()):
        old_value = repr(ref[path]) if path in ref else "<absent>"
        new_value = repr(new[path]) if path in new else "<absent>"
        if old_value != new_value:  # reprs: NaN leaves compare equal
            lines.append(f"{'/'.join(path[:-1])}: {path[-1]} "
                         f"{old_value} -> {new_value}")
    print(f"fingerprint differs from {reference} in {len(lines)} entries"
          if lines else f"fingerprint differs from {reference} in layout only",
          file=sys.stderr)
    for line in lines[:40]:
        print(f"  {line}", file=sys.stderr)
    if len(lines) > 40:
        print(f"  ... and {len(lines) - 40} more", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="emit the engine behavior fingerprint as JSON"
    )
    parser.add_argument(
        "--orchestrated", action="store_true",
        help="run the steady grid through a store-backed orchestrator, "
             "twice (fresh + resumed from cache), asserting both passes "
             "agree; the output must diff clean against a plain run",
    )
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes in --orchestrated mode")
    parser.add_argument(
        "--telemetry", action="store_true",
        help="attach a telemetry sampler (interval 50, per-link) to every "
             "steady point and the transient; the output must diff clean "
             "against a plain run (observation never perturbs)",
    )
    parser.add_argument(
        "--snapshot", action="store_true",
        help="route every steady point, the transient, and the workload "
             "through a mid-run snapshot: capture, JSON round-trip, fork a "
             "fresh simulator, finish on the fork; the output must diff "
             "clean against a plain run (save/restore is bit-identical)",
    )
    parser.add_argument(
        "--scenario", action="store_true",
        help="emit only the cluster-scenario section (job churn, EASY "
             "backfill and link faults through the selected mode); the "
             "output must diff clean across plain, --orchestrated, "
             "--telemetry and --snapshot runs",
    )
    parser.add_argument(
        "--backend", choices=available_backends(), default="object",
        help="engine backend executing every run; backends are bit-for-bit "
             "identical, so any choice must emit the same fingerprint",
    )
    parser.add_argument(
        "--check", nargs="?", const=REFERENCE, type=Path, metavar="REFERENCE",
        help="also compare the document byte for byte with REFERENCE "
             "(default: the checked-in reference); name every differing "
             "entry on stderr and exit 1 on any difference",
    )
    args = parser.parse_args(argv)
    global BACKEND
    BACKEND = args.backend
    if sum((args.orchestrated, args.telemetry, args.snapshot)) > 1:
        sys.exit("--orchestrated, --telemetry and --snapshot are separate "
                 "checks; pick one")

    if args.scenario:
        mode = ("orchestrated" if args.orchestrated else
                "telemetry" if args.telemetry else
                "snapshot" if args.snapshot else "plain")
        emit({"scenario": scenario_section(mode, args.workers)}, args.check)
        return

    if args.orchestrated:
        from repro.analysis.store import ResultStore

        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(tmp)
            fresh = steady_grid(run=orchestrated_runner(store, args.workers))
            resumed = steady_grid(run=orchestrated_runner(store, args.workers))
            if fresh != resumed:
                sys.exit("resumed sweep diverged from the fresh orchestrated sweep")
            steady = resumed
        mode = "orchestrated"
    elif args.telemetry:
        steady = steady_grid(run=telemetry_runner())
        mode = "telemetry"
    elif args.snapshot:
        steady = steady_grid(run=snapshot_runner())
        mode = "snapshot"
    else:
        steady = steady_grid()
        mode = "plain"

    emit({
        "steady": steady,
        "drain": drain_and_counters(telemetry=args.telemetry,
                                    snapshot=args.snapshot),
        "workload": workload_section(mode, args.workers),
        "scenario": scenario_section(mode, args.workers),
    }, args.check)


def emit(doc: dict, reference: Path | None) -> None:
    """Write the canonical document to stdout; with ``reference``, exit
    with :func:`check`'s status."""
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if reference is not None:
        sys.stdout.flush()
        sys.exit(check(text, reference))


if __name__ == "__main__":
    main()
