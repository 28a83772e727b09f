"""Running workloads and attributing the results back to jobs.

:func:`run_workload` executes one multi-job :class:`RunSpec` (a spec
whose ``workload`` field is set) with per-job metrics enabled and
returns a :class:`WorkloadResult`: the global :class:`LoadPoint`, one
LoadPoint per job (throughput normalized to the *job's* node count, so
it is directly comparable to an isolated run of the same job), Jain's
fairness index across job throughputs, and a job-by-job interference
matrix derived from per-job link occupancy.

Interference matrix
-------------------
During the measurement window every output channel counts the phits it
carried per job (``OutputChannel.job_phits``).  With ``u_i(c)`` the
per-cycle rate of job ``i`` on channel ``c``, the matrix entry

    M[i][j] = sum over router-to-router channels c of u_i(c) * u_j(c)

is the *channel-sharing energy* of the pair: it is large exactly when
both jobs load the same channels hard at the same time, zero when their
traffic never meets.  The diagonal measures a job's self-concentration
(how much it funnels onto few links).  The matrix is symmetric by
construction and routing-sensitive — OFAR's misrouting spreads a bully
job's phits over many channels, shrinking its row.

Slowdowns against an isolated baseline come from
:func:`isolated_spec` + :func:`job_slowdowns`: the baseline re-runs one
job alone on its *exact placed nodes*, so the only difference is the
other jobs' traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.engine.execute import PointKind, execute_outcome
from repro.engine.metrics import LoadPoint
from repro.engine.runspec import RunSpec
from repro.engine.simulator import Simulator
from repro.network.router import CODE_NODE
from repro.topology.dragonfly import Dragonfly
from repro.workloads.composite import CompositeTraffic
from repro.workloads.placement import place_jobs
from repro.workloads.spec import WorkloadSpec

#: Store sidecar kind for WorkloadResults (see repro.engine.execute).
SIDECAR_KIND = "workloads"

WORKLOAD_RESULT_FORMAT = 1


@dataclass
class JobResult:
    """One job's share of a workload run."""

    name: str
    num_nodes: int
    point: LoadPoint

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "point": self.point.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "JobResult":
        return cls(
            name=data["name"],
            num_nodes=data["num_nodes"],
            point=LoadPoint.from_jsonable(data["point"]),
        )


@dataclass
class WorkloadResult:
    """Everything one workload run produces, attributed per job."""

    total: LoadPoint
    jobs: list[JobResult]  # workload order == packet-tag job id order
    jain_across_jobs: float
    interference: list[list[float]]  # symmetric jobs x jobs matrix

    def job(self, name: str) -> JobResult:
        for jr in self.jobs:
            if jr.name == name:
                return jr
        raise KeyError(f"no job named {name!r}")

    # ------------------------------------------------------------------
    def to_jsonable(self) -> dict:
        return {
            "format": WORKLOAD_RESULT_FORMAT,
            "total": self.total.to_jsonable(),
            "jobs": [jr.to_jsonable() for jr in self.jobs],
            "jain_across_jobs": self.jain_across_jobs,
            "interference": self.interference,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "WorkloadResult":
        if data.get("format") != WORKLOAD_RESULT_FORMAT:
            raise ValueError(f"unknown WorkloadResult format {data.get('format')!r}")
        return cls(
            total=LoadPoint.from_jsonable(data["total"]),
            jobs=[JobResult.from_jsonable(j) for j in data["jobs"]],
            jain_across_jobs=data["jain_across_jobs"],
            interference=[list(row) for row in data["interference"]],
        )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def build_workload_sim(spec: RunSpec) -> Simulator:
    """Fresh simulator + composite generator for one workload spec.

    The simulator class comes from the spec's engine backend
    (:func:`~repro.engine.backend.resolve_backend`), like every other
    spec-driven builder.
    """
    from repro.engine.backend import resolve_backend

    if spec.workload is None:
        raise ValueError("spec.workload must be set to run a workload")
    config = spec.config
    sim = resolve_backend(spec).simulator(
        config, record_per_source=True, record_per_job=True
    )
    sim.generator = CompositeTraffic(
        sim.network.topo, spec.workload, config.packet_size, config.seed
    )
    return sim


def total_offered_load(generator: CompositeTraffic, num_nodes: int) -> float:
    """Network-wide offered load implied by the jobs, phits/(node*cycle)."""
    return sum(
        job.offered_load * len(job.nodes) for job in generator.jobs
    ) / num_nodes


def run_workload(spec: RunSpec) -> WorkloadResult:
    """Warm up, measure, and attribute one multi-job spec."""
    if spec.workload is None:
        raise ValueError("spec.workload must be set to run a workload")
    return execute_outcome(spec).result


def _job_phit_baseline(network) -> list:
    """Per-channel per-job phit counters at window start, as JSON-safe
    ``[rid, port, [[job, phits], ...]]`` triples (the baseline rides in
    mid-run checkpoints)."""
    return [
        [rt.rid, ch.port, [[j, p] for j, p in ch.job_phits.items()]]
        for rt in network.routers
        for ch in rt.out
        if ch is not None and ch.kind_code != CODE_NODE
    ]


def _summarize(sim: Simulator, baseline: list) -> WorkloadResult:
    """Fold the finished window into a WorkloadResult; ``baseline`` is
    :func:`_job_phit_baseline`'s value from the window start."""
    generator = sim.generator
    assert isinstance(generator, CompositeTraffic)
    metrics = sim.metrics
    num_nodes = sim.network.topo.num_nodes
    cycle = sim.cycle
    window = max(1, cycle - metrics.window_start)
    at_start = {(rid, port): dict(pairs) for rid, port, pairs in baseline}

    total = metrics.load_point(total_offered_load(generator, num_nodes), cycle)
    jobs = [
        JobResult(
            name=job.spec.name,
            num_nodes=len(job.nodes),
            point=metrics.job_load_point(
                job.index, job.offered_load, cycle, len(job.nodes)
            ),
        )
        for job in generator.jobs
    ]

    n_jobs = len(jobs)
    matrix = [[0.0] * n_jobs for _ in range(n_jobs)]
    for rt in sim.network.routers:
        for ch in rt.out:
            if ch is None or ch.kind_code == CODE_NODE or not ch.job_phits:
                continue
            base = at_start.get((rt.rid, ch.port), {})
            rates = [
                (job, (phits - base.get(job, 0)) / window)
                for job, phits in ch.job_phits.items()
                if phits - base.get(job, 0) > 0
            ]
            for a, (job_a, u_a) in enumerate(rates):
                for job_b, u_b in rates[a:]:
                    e = u_a * u_b
                    matrix[job_a][job_b] += e
                    if job_a != job_b:
                        matrix[job_b][job_a] += e

    return WorkloadResult(
        total=total,
        jobs=jobs,
        jain_across_jobs=jain_across_jobs([jr.point.throughput for jr in jobs]),
        interference=matrix,
    )


def _summarize_point(sim: Simulator, spec: RunSpec, plan, extras: dict):
    result = _summarize(sim, extras["baseline"])
    return result.total, result


#: The workload row of the point executor's per-kind table.
WORKLOAD = PointKind(
    build=lambda spec: (build_workload_sim(spec), None),
    begin=lambda sim, plan: {"baseline": _job_phit_baseline(sim.network)},
    summarize=_summarize_point,
    sidecar=SIDECAR_KIND,
    decode=WorkloadResult.from_jsonable,
)


def jain_across_jobs(throughputs: list[float]) -> float:
    """Jain's fairness index over per-job per-node throughputs.

    Because each job's throughput is already normalized by its own node
    count, a big job and a small job receiving proportional service
    score as fair.  1.0 = perfectly fair; 1/n = one job gets everything;
    1.0 by convention when nothing flowed.
    """
    vals = [t for t in throughputs if not math.isnan(t)]
    total = sum(vals)
    if not vals or total == 0:
        return 1.0
    squares = sum(t * t for t in vals)
    return (total * total) / (len(vals) * squares)


# ----------------------------------------------------------------------
# Isolated baselines and slowdowns
# ----------------------------------------------------------------------
def isolated_spec(spec: RunSpec, job_name: str) -> RunSpec:
    """The spec that runs ``job_name`` *alone* on its exact placed nodes.

    Placement is resolved against the full workload and pinned via
    ``node_list``, so the isolated run differs from the shared run only
    by the other jobs' absence — the definition a slowdown needs.
    """
    if spec.workload is None:
        raise ValueError("spec.workload must be set")
    workload = spec.workload
    topo = Dragonfly(spec.config.h)
    placements = place_jobs(topo, workload)
    index = workload.job_index(job_name)
    pinned = replace(
        workload.jobs[index], nodes=0, node_list=placements[index]
    )
    return replace(
        spec,
        workload=WorkloadSpec(
            jobs=(pinned,),
            placement=workload.placement,
            placement_seed=workload.placement_seed,
        ),
    )


def job_slowdowns(
    shared: WorkloadResult, isolated: dict[str, WorkloadResult]
) -> dict[str, float]:
    """Per-job latency slowdown: shared latency / isolated latency.

    1.0 = no interference; NaN when either window measured nothing.
    """
    out: dict[str, float] = {}
    for jr in shared.jobs:
        base = isolated[jr.name].job(jr.name).point.avg_latency
        out[jr.name] = jr.point.avg_latency / base
    return out
