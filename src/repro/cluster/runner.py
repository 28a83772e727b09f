"""Executing cluster scenarios and attributing results per job and fault.

:func:`run_scenario` executes one scenario :class:`RunSpec` (a spec
whose ``scenario`` field is set): the scenario is compiled to a pinned
workload (:func:`~repro.cluster.schedule.compile_scenario`), the
network simulation advances through it with the stock
:class:`~repro.workloads.composite.CompositeTraffic` lifecycle, and the
runner stops at every *boundary cycle* — a fault event, or a
blast-radius sample point around one — to apply
``fail_link``/``restore_link`` and to snapshot per-job latency
counters.  The result is a :class:`ScenarioResult`: per-job rows (wait,
scheduling slowdown, measured LoadPoint), the utilization timeline,
fairness across jobs, and a fault blast-radius table (per failure, each
concurrent job's mean latency in the ``blast_window`` cycles before vs
after).

Execution is resumable: the boundary bookkeeping lives in a JSON-safe
*state* dict that rides inside mid-run checkpoints (the point
executor's ``extras``, :mod:`repro.engine.execute`),
and the network's failed-link set is part of the snapshot codec — so a
SIGKILLed scenario resumes bit-identically, faults and all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.schedule import CompiledScenario, compile_scenario
from repro.cluster.spec import FaultScheduleSpec
from repro.engine.execute import PointKind, execute_outcome
from repro.engine.metrics import LoadPoint
from repro.engine.runspec import RunSpec
from repro.workloads.composite import CompositeTraffic
from repro.workloads.runner import jain_across_jobs

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator
    from repro.topology.dragonfly import Dragonfly

#: Store sidecar kind for ScenarioResults (see repro.engine.execute).
SIDECAR_KIND = "scenarios"

SCENARIO_RESULT_FORMAT = 1


# ----------------------------------------------------------------------
# Result types
# ----------------------------------------------------------------------
@dataclass
class ScenarioJobRow:
    """One job's scenario outcome (``start=None`` = never scheduled)."""

    name: str
    size: int
    arrival: int
    start: int | None
    finish: int | None
    wait: int | None
    slowdown: float | None  # scheduling slowdown: (wait + run) / run
    completed: bool  # departed before the horizon
    point: LoadPoint | None  # measured network metrics (started jobs)

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "arrival": self.arrival,
            "start": self.start,
            "finish": self.finish,
            "wait": self.wait,
            "slowdown": self.slowdown,
            "completed": self.completed,
            "point": self.point.to_jsonable() if self.point is not None else None,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "ScenarioJobRow":
        point = data.get("point")
        return cls(
            name=data["name"],
            size=data["size"],
            arrival=data["arrival"],
            start=data.get("start"),
            finish=data.get("finish"),
            wait=data.get("wait"),
            slowdown=data.get("slowdown"),
            completed=data["completed"],
            point=LoadPoint.from_jsonable(point) if point is not None else None,
        )


@dataclass
class BlastRow:
    """One (fault, concurrent job) cell of the blast-radius table.

    ``before``/``after`` are the job's mean packet latency over the
    ``blast_window`` cycles each side of the fault; ``ratio`` is
    after/before (NaN when a window ejected nothing).
    """

    cycle: int
    action: str
    router: int
    port: int
    job: str
    before: float
    after: float
    ratio: float

    def to_jsonable(self) -> dict:
        return {
            "cycle": self.cycle,
            "action": self.action,
            "router": self.router,
            "port": self.port,
            "job": self.job,
            "before": self.before,
            "after": self.after,
            "ratio": self.ratio,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "BlastRow":
        return cls(**data)


@dataclass
class ScenarioResult:
    """Everything one scenario run produces."""

    total: LoadPoint  # global network metrics over the whole horizon
    jobs: list[ScenarioJobRow]  # arrival order (censored jobs included)
    makespan: int
    utilization: list[tuple[int, int]]  # (cycle, busy nodes) steps
    mean_utilization: float
    fairness: float  # Jain index over started jobs' scheduling slowdowns
    blast: list[BlastRow]
    queued: int  # jobs that never started before the horizon

    def job(self, name: str) -> ScenarioJobRow:
        for row in self.jobs:
            if row.name == name:
                return row
        raise KeyError(f"no job named {name!r}")

    # ------------------------------------------------------------------
    def to_jsonable(self) -> dict:
        return {
            "format": SCENARIO_RESULT_FORMAT,
            "total": self.total.to_jsonable(),
            "jobs": [row.to_jsonable() for row in self.jobs],
            "makespan": self.makespan,
            "utilization": [list(step) for step in self.utilization],
            "mean_utilization": self.mean_utilization,
            "fairness": self.fairness,
            "blast": [row.to_jsonable() for row in self.blast],
            "queued": self.queued,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "ScenarioResult":
        if data.get("format") != SCENARIO_RESULT_FORMAT:
            raise ValueError(
                f"unknown ScenarioResult format {data.get('format')!r}"
            )
        return cls(
            total=LoadPoint.from_jsonable(data["total"]),
            jobs=[ScenarioJobRow.from_jsonable(row) for row in data["jobs"]],
            makespan=data["makespan"],
            utilization=[tuple(step) for step in data["utilization"]],
            mean_utilization=data["mean_utilization"],
            fairness=data["fairness"],
            blast=[BlastRow.from_jsonable(row) for row in data["blast"]],
            queued=data["queued"],
        )


# ----------------------------------------------------------------------
# Fault realization
# ----------------------------------------------------------------------
def realize_faults(
    faults: FaultScheduleSpec, topo: "Dragonfly", horizon: int
) -> list[tuple[int, str, int, int]]:
    """Expand the fault schedule to sorted (cycle, action, router, port).

    Timed events are validated against the topology; the random process
    draws exponential gaps from ``Random(faults.seed)``, picks a uniform
    router link (local or global, never a terminal port), and schedules
    the matching repair when ``faults.repair`` is set.  Events at or
    past the horizon are dropped — they could never act.
    """
    import random

    events: list[tuple[int, str, int, int]] = []
    for ev in faults.events:
        if not 0 <= ev.router < topo.num_routers:
            raise ValueError(f"fault router {ev.router} out of range")
        if not topo.node_ports <= ev.port <= topo.ports_per_router:
            raise ValueError(
                f"fault port {ev.port} is not a router link port "
                f"(range [{topo.node_ports}, {topo.ports_per_router}])"
            )
        if ev.cycle < horizon:
            events.append((ev.cycle, ev.action, ev.router, ev.port))
    if faults.count > 0 and faults.rate > 0:
        rng = random.Random(faults.seed)
        t = 0.0
        for _ in range(faults.count):
            t += rng.expovariate(faults.rate)
            cycle = int(t) + 1
            if cycle >= horizon:
                break
            router = rng.randrange(topo.num_routers)
            port = rng.randrange(topo.node_ports, topo.ports_per_router)
            events.append((cycle, "fail", router, port))
            if faults.repair is not None and cycle + faults.repair < horizon:
                events.append((cycle + faults.repair, "restore", router, port))
    events.sort()
    return events


# ----------------------------------------------------------------------
# The boundary-driven advance loop
# ----------------------------------------------------------------------
def scenario_plan(compiled: CompiledScenario, topo: "Dragonfly") -> dict:
    """Boundary plan: the compiled schedule, fault events, and
    blast-radius sample cycles.

    Pure function of (spec, topology) — rebuilt identically on resume,
    so only the *progress* through it needs to ride in checkpoints.
    """
    scenario = compiled.spec
    horizon = scenario.horizon
    events = realize_faults(scenario.faults, topo, horizon)
    w = scenario.blast_window
    samples: set[int] = set()
    for cycle, action, _, _ in events:
        if action != "fail":
            continue
        samples.update((max(0, cycle - w), cycle, min(horizon, cycle + w)))
    return {"compiled": compiled, "events": events, "samples": sorted(samples)}


def fresh_state() -> dict:
    """JSON-safe progress through a plan (rides in checkpoint extras)."""
    return {"event_idx": 0, "sample_idx": 0, "samples": {}}


def _job_sample(metrics) -> dict[str, list[int]]:
    return {
        str(job): [js.ejected, js.latency_sum]
        for job, js in metrics.job_stats.items()
    }


def advance_scenario(
    sim: "Simulator", plan: dict, extras: dict, target: int
) -> None:
    """Advance to ``target`` cycles, stopping at every plan boundary
    (the point executor's ``advance`` hook; progress is
    ``extras["scenario"]``).

    At a boundary the order is fixed: blast samples first (they observe
    the state *before* a same-cycle fault acts), then fault events.
    Idempotent at the current cycle, so checkpoint segment edges and
    plan boundaries may coincide freely.
    """
    events, samples = plan["events"], plan["samples"]
    state = extras["scenario"]
    while True:
        si = state["sample_idx"]
        while si < len(samples) and samples[si] <= sim.cycle:
            state["samples"][str(samples[si])] = _job_sample(sim.metrics)
            si += 1
            state["sample_idx"] = si
        ei = state["event_idx"]
        while ei < len(events) and events[ei][0] <= sim.cycle:
            _, action, router, port = events[ei]
            if action == "fail":
                sim.network.fail_link(router, port)
            else:
                sim.network.restore_link(router, port)
            ei += 1
            state["event_idx"] = ei
        if sim.cycle >= target:
            return
        nxt = target
        if ei < len(events):
            nxt = min(nxt, events[ei][0])
        if si < len(samples):
            nxt = min(nxt, samples[si])
        sim.run(nxt - sim.cycle)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def build_scenario_sim(spec: RunSpec) -> tuple["Simulator", dict]:
    """Fresh simulator + boundary plan (:func:`scenario_plan`) for one
    scenario spec."""
    from repro.engine.backend import resolve_backend

    config = spec.config
    sim = resolve_backend(spec).simulator(
        config, record_per_source=True, record_per_job=True
    )
    compiled = compile_scenario(spec.scenario, sim.network.topo)
    sim.generator = CompositeTraffic(
        sim.network.topo, compiled.workload, config.packet_size, config.seed
    )
    return sim, scenario_plan(compiled, sim.network.topo)


def scenario_offered_load(compiled: CompiledScenario, num_nodes: int) -> float:
    """Time-averaged network-wide offered load, phits/(node*cycle)."""
    horizon = compiled.spec.horizon
    phit_cycles = 0.0
    for j in compiled.started:
        span = min(j.finish, horizon) - j.start
        phit_cycles += j.load * j.size * span
    return phit_cycles / (num_nodes * horizon)


def run_scenario(spec: RunSpec) -> ScenarioResult:
    """Execute one scenario spec start to finish."""
    if spec.scenario is None:
        raise ValueError("spec.scenario must be set to run a scenario")
    return execute_outcome(spec).result


def summarize_scenario(sim: "Simulator", plan: dict, state: dict) -> ScenarioResult:
    """Fold the finished simulation + schedule into a ScenarioResult."""
    compiled = plan["compiled"]
    generator = sim.generator
    assert isinstance(generator, CompositeTraffic)
    metrics = sim.metrics
    spec = compiled.spec
    horizon = spec.horizon
    num_nodes = sim.network.topo.num_nodes
    placed = {job.spec.name: job for job in generator.jobs}

    rows: list[ScenarioJobRow] = []
    for j in compiled.jobs:
        point = None
        if j.start is not None:
            pj = placed[j.name]
            point = metrics.job_load_point(
                pj.index, pj.offered_load, sim.cycle, len(pj.nodes)
            )
        rows.append(ScenarioJobRow(
            name=j.name,
            size=j.size,
            arrival=j.arrival,
            start=j.start,
            finish=j.finish,
            wait=j.wait,
            slowdown=j.slowdown,
            completed=j.finish is not None and j.finish <= horizon,
            point=point,
        ))

    blast = _blast_table(compiled, plan, state)
    slowdowns = [row.slowdown for row in rows if row.slowdown is not None]
    total = metrics.load_point(
        scenario_offered_load(compiled, num_nodes), sim.cycle
    )
    return ScenarioResult(
        total=total,
        jobs=rows,
        makespan=compiled.makespan,
        utilization=list(compiled.utilization),
        mean_utilization=compiled.mean_utilization,
        fairness=jain_across_jobs(slowdowns),
        blast=blast,
        queued=sum(1 for j in compiled.jobs if j.start is None),
    )


def _window_latency(
    lo: dict, hi: dict, job_index: int
) -> float:
    """Mean latency of one job's packets ejected between two samples."""
    key = str(job_index)
    ej_lo, lat_lo = lo.get(key, (0, 0))
    ej_hi, lat_hi = hi.get(key, (0, 0))
    ejected = ej_hi - ej_lo
    if ejected <= 0:
        return float("nan")
    return (lat_hi - lat_lo) / ejected


def _blast_table(
    compiled: CompiledScenario, plan: dict, state: dict
) -> list[BlastRow]:
    spec = compiled.spec
    w = spec.blast_window
    horizon = spec.horizon
    samples = state["samples"]
    out: list[BlastRow] = []
    index_of = {j.name: i for i, j in enumerate(compiled.workload.jobs)}
    for cycle, action, router, port in plan["events"]:
        if action != "fail":
            continue
        lo = samples.get(str(max(0, cycle - w)), {})
        mid = samples.get(str(cycle), {})
        hi = samples.get(str(min(horizon, cycle + w)), {})
        for j in compiled.started:
            if not (j.start <= cycle < min(j.finish, horizon)):
                continue
            before = _window_latency(lo, mid, index_of[j.name])
            after = _window_latency(mid, hi, index_of[j.name])
            ratio = (
                after / before
                if not (math.isnan(before) or math.isnan(after)) and before > 0
                else float("nan")
            )
            out.append(BlastRow(
                cycle=cycle, action=action, router=router, port=port,
                job=j.name, before=before, after=after, ratio=ratio,
            ))
    return out


# ----------------------------------------------------------------------
# The scenario row of the point executor's per-kind table
# ----------------------------------------------------------------------
def _summarize_point(sim: "Simulator", spec: RunSpec, plan: dict, extras: dict):
    result = summarize_scenario(sim, plan, extras["scenario"])
    return result.total, result


SCENARIO = PointKind(
    build=build_scenario_sim,
    begin=lambda sim, plan: {"scenario": fresh_state()},
    advance=advance_scenario,
    summarize=_summarize_point,
    sidecar=SIDECAR_KIND,
    decode=ScenarioResult.from_jsonable,
)


__all__ = [
    "SCENARIO_RESULT_FORMAT",
    "SIDECAR_KIND",
    "BlastRow",
    "ScenarioJobRow",
    "ScenarioResult",
    "advance_scenario",
    "build_scenario_sim",
    "fresh_state",
    "realize_faults",
    "run_scenario",
    "scenario_offered_load",
    "scenario_plan",
    "summarize_scenario",
]
