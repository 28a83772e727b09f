"""The three in-process engine workloads (``below_sat_h3``,
``past_sat_h3``, ``scale_h4``) and the engine-side probes of their
traced runs.

One *repeat* runs every pinned phase once: ``build_steady_sim`` ->
``warm_up`` -> ``run``.  Only those three calls are timed; conservation
checks, digests and the resume pass happen between the timed regions.
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from time import perf_counter

import harness
from harness import Outcome
from spans import Tracer, check_self_times, engine_wrappers

#: Orchestrator cache passes timed after each repeat for ``resume_s``
#: (milliseconds each, so many are taken and the median reported).
RESUME_PASSES = 50


def build_specs(defn: dict, seed: int, check: bool) -> list:
    """The workload's RunSpecs; ``--seed`` lands in ``SimulationConfig.seed``."""
    from repro.engine.config import SimulationConfig
    from repro.engine.runspec import RunSpec

    specs = []
    for phase in defn["phases"]:
        windows = defn["check"] if check else phase
        config = SimulationConfig.small(
            h=defn["h"], routing=phase["routing"], seed=seed
        )
        specs.append(RunSpec(
            config, phase["pattern"], phase["load"],
            windows["warmup"], windows["measure"],
        ))
    return specs


def run_phase(spec, tracer: Tracer | None = None, digest: bool = False) -> dict:
    """One phase; with a tracer, its build/warm-up/measure become spans."""
    from repro.engine.runner import build_steady_sim

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    cpu0 = harness.cpu_now()
    t0 = perf_counter()
    with span("engine.build"):
        sim = build_steady_sim(spec)
    t1 = perf_counter()
    with span("engine.warmup"):
        sim.warm_up(spec.warmup)
    t2 = perf_counter()
    grants0 = sim.network.movements
    with span("engine.measure"):
        sim.run(spec.measure)
    t3 = perf_counter()
    cpu1 = harness.cpu_now()
    out = {
        "build_s": t1 - t0, "warmup_s": t2 - t1, "measure_s": t3 - t2,
        "cpu_s": cpu1 - cpu0,
        "grants": sim.network.movements - grants0,
        "routers": len(sim.network.routers),
        "point": sim.metrics.load_point(spec.load, sim.cycle),
        "conserved": True,
    }
    try:
        sim.network.check_conservation()
    except AssertionError as exc:
        out["conserved"] = False
        out["error"] = str(exc)
    if digest:
        out["state_digest"] = sim.state_digest()
    return out


def run_repeat(specs, tracer: Tracer | None = None, digest: bool = False) -> list[dict]:
    phases = []
    for spec in specs:
        scope = tracer.span("point", point=spec.label()) if tracer else nullcontext()
        with scope:
            phases.append(run_phase(spec, tracer, digest))
    return phases


def repeat_wall(phases: list[dict]) -> float:
    return sum(p["build_s"] + p["warmup_s"] + p["measure_s"] for p in phases)


class EngineWorkload:
    def __init__(self, defn: dict, seed: int, check: bool, scratch: harness.Scratch):
        self.defn = defn
        self.seed = seed
        self.check = check
        self.scratch = scratch

    def setup(self) -> None:
        from repro.analysis.store import ResultStore
        from repro.engine.orchestrator import Orchestrator  # noqa: F401 - import cost is set-up

        self.specs = build_specs(self.defn, self.seed, self.check)
        self.cycles = sum(s.warmup + s.measure for s in self.specs)
        self.store = ResultStore(self.scratch.path("store"))

    # ------------------------------------------------------------------
    def _verify(self, out: Outcome, phases: list[dict], first: list[dict]) -> None:
        out.attempted += len(phases)
        for spec, phase, ref in zip(self.specs, phases, first):
            if not phase["conserved"]:
                out.fail(1, f"{spec.label()}: {phase['error']}")
            elif phase["point"].to_json() != ref["point"].to_json():
                out.fail(1, f"{spec.label()}: repeat disagrees with the first repeat")

    def _resume(self, out: Outcome, first: list[dict]) -> None:
        """Re-resolve the workload's points from the store they were
        written to: the in-process orchestrator's cache path."""
        from repro.engine.orchestrator import Orchestrator

        want = [p["point"].to_json() for p in first]
        for _ in range(1 if self.check else RESUME_PASSES):
            t0 = perf_counter()
            results = Orchestrator(workers=0, store=self.store).run(self.specs)
            out.add("resume_s", perf_counter() - t0)
        got = [
            r.point.to_json() if r.status == "cached" else r.status
            for r in results
        ]
        if got != want:
            out.fail(len(self.specs), "resume pass did not return the cached points")

    def _digest(self, first: list[dict]) -> str:
        return harness.stats_digest(
            [p["point"].to_json() for p in first]
            + [p["state_digest"] for p in first]
        )

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Outcome:
        """Untraced: whole repeats until ``seconds`` are used."""
        out = Outcome()
        first: list[dict] | None = None
        for _ in harness.laps(seconds, self.check):
            phases = run_repeat(self.specs, digest=first is None)
            if first is None:
                first = phases
                for spec, phase in zip(self.specs, phases):
                    self.store.put(spec, phase["point"])
            self._verify(out, phases, first)
            wall = repeat_wall(phases)
            out.add("wall_s", wall)
            out.add("cpu_s", sum(p["cpu_s"] for p in phases))
            out.add("sim_cycles_per_s", self.cycles / wall)
            out.add("points_per_s", len(phases) / wall)
            self._resume(out, first)
        out.digest = self._digest(first)
        return out

    # ------------------------------------------------------------------
    def trace(self, tracer: Tracer) -> Outcome:
        """One untraced reference repeat, one traced repeat, the probes."""
        out = Outcome()
        reference = run_repeat(self.specs, digest=True)
        self._verify(out, reference, reference)
        out.digest = self._digest(reference)
        with tracer.span(f"workload:{self.defn['name']}"):
            with engine_wrappers(tracer):
                traced = run_repeat(self.specs, tracer)
            self._verify(out, traced, reference)
            for probe in self.defn.get("probes", []):
                with tracer.span(f"probe:{probe}"):
                    PROBES[probe](self, out)
        layer = out.layer
        for part in ("build", "warmup", "measure"):
            layer[f"engine.{part}_s"] = tracer.duration(f"engine.{part}")
        for name in ("routing.route", "network.execute_grant", "network.process_events",
                     "network.allocate", "network.try_inject", "traffic.generate",
                     "engine.metrics.on_eject"):
            layer[f"{name}.calls"] = tracer.total(name, "calls")
            layer[f"{name}.self_s"] = tracer.total(name)
        layer["routing.on_inject.calls"] = tracer.total("routing.on_inject", "calls")
        grants = layer["network.execute_grant.calls"]
        layer["routing.route.calls_per_grant"] = layer["routing.route.calls"] / grants
        layer["network.allocate.grants_per_call"] = (
            tracer.total("network.allocate", "tally") / layer["network.allocate.calls"]
        )
        layer["network.try_inject.ok_ratio"] = (
            tracer.total("network.try_inject", "tally") / layer["network.try_inject.calls"]
        )
        layer["engine.step.residual_s"] = tracer.total("engine.step")
        layer["engine.active_router_share"] = layer["network.allocate.calls"] / (
            tracer.total("engine.step", "calls") * reference[0]["routers"]
        )
        layer["engine.us_per_grant"] = 1e6 * sum(
            p["measure_s"] for p in reference
        ) / sum(p["grants"] for p in reference)
        layer["trace.overhead_ratio"] = repeat_wall(traced) / repeat_wall(reference)
        check_self_times(out, tracer, f"workload:{self.defn['name']}")
        return out


# ----------------------------------------------------------------------
# Probes: numbers no workload's end-to-end metric shows, recorded as
# baselines for the decisions ROADMAP defers to measurements.
# ----------------------------------------------------------------------

def _pinned_spec(self: EngineWorkload, backend: str = "object"):
    """(ofar, ADV+3, 0.20) at h=3: the phase every probe shares."""
    from repro.engine.config import SimulationConfig
    from repro.engine.runspec import RunSpec

    warmup, measure = (50, 150) if self.check else (300, 2000)
    config = SimulationConfig.small(h=3, routing="ofar", seed=self.seed)
    return RunSpec(config, "ADV+3", 0.20, warmup, measure, backend=backend)


def probe_snapshot(self: EngineWorkload, out: Outcome) -> None:
    """Codec costs at cycle 1800 of the pinned phase."""
    from repro.engine.runner import build_steady_sim
    from repro.snapshot import Snapshot

    spec = _pinned_spec(self)
    sim = build_steady_sim(spec)
    sim.run(200 if self.check else 1800)
    path = str(self.scratch.path("probe.snapshot.json"))
    times: dict[str, list[float]] = {}

    def timed(op, fn):
        t0 = perf_counter()
        result = fn()
        times.setdefault(op, []).append((perf_counter() - t0) * 1e3)
        return result

    for _ in range(3):
        snap = timed("capture", lambda: Snapshot.capture(sim))
        timed("digest", snap.digest)
        timed("save", lambda: snap.save(path))
        loaded = timed("load", lambda: Snapshot.load(path))
        fresh = build_steady_sim(spec)
        timed("restore", lambda: loaded.restore_into(fresh))
    out.attempted += 1
    if fresh.state_digest() != sim.state_digest():
        out.fail(1, "snapshot probe: restored simulator diverged")
    for op, values in times.items():
        out.layer[f"snapshot.{op}_ms"] = statistics.median(values)
    out.layer["snapshot.bytes"] = self.scratch.path("probe.snapshot.json").stat().st_size


def probe_h6(self: EngineWorkload, out: Outcome) -> None:
    """The paper's own size: build cost and cycle rate at h=6."""
    from repro.engine.config import SimulationConfig
    from repro.engine.runspec import RunSpec

    cycles = 10 if self.check else 100
    spec = RunSpec(
        SimulationConfig.small(h=6, routing="ofar", seed=self.seed),
        "ADV+6", 0.1, cycles, cycles,
    )
    phase = run_phase(spec)
    out.attempted += 1
    if not phase["conserved"]:
        out.fail(1, f"h6 probe: {phase['error']}")
    out.layer["engine.h6_probe.build_s"] = phase["build_s"]
    out.layer["engine.h6_probe.cycles_per_s"] = 2 * cycles / (
        phase["warmup_s"] + phase["measure_s"]
    )


def probe_array_backend(self: EngineWorkload, out: Outcome) -> None:
    """Array engine against the object engine on the pinned phase;
    above 1 the array engine is the faster one."""
    walls, digests = {}, {}
    for backend in ("object", "array"):
        phase = run_phase(_pinned_spec(self, backend), digest=True)
        walls[backend] = phase["warmup_s"] + phase["measure_s"]
        digests[backend] = phase["state_digest"]
    out.attempted += 1
    if digests["object"] != digests["array"]:
        out.fail(1, "array backend: state digest differs from the object engine")
    out.layer["engine.array_backend.speed_ratio"] = walls["object"] / walls["array"]


PROBES = {
    "snapshot": probe_snapshot,
    "h6_probe": probe_h6,
    "array_backend": probe_array_backend,
}
