"""Multi-job interference study: an adversarial bully next to a victim.

The paper's single-tenant experiments show OFAR escaping ADV+h
saturation; this study asks the *multi-tenant* question instead: when
one application (the "bully") drives worst-case adversarial traffic,
how much does a well-behaved neighbour (the "victim") suffer, and does
adaptive routing contain the blast radius?

Scenario
--------
The machine is split in half with the ``round-robin-groups`` placement,
so both jobs own nodes in every group (the common "spread" allocation
that maximizes exposure to a noisy neighbour):

- **bully** — ADV+h at high load: every group funnels its traffic onto
  its single offset-``h`` global link, the worst case of §III.
- **victim** — a modest-load SHIFT exchange whose shift (``h^3`` ranks,
  i.e. exactly ``h`` groups under this placement) makes its *minimal*
  routes ride the very global links the bully saturates.

Under MIN the victim's demand exceeds the residual fair share of those
links, so its latency explodes with nowhere to go.  OFAR misroutes
around the hot links — both jobs' traffic spreads — and the victim's
slowdown collapses to a small constant.  The per-job attribution of
:mod:`repro.workloads` makes this directly measurable: each routing
yields per-job LoadPoints, a slowdown against the job's *isolated*
baseline (same nodes, neighbour removed), and the job-by-job
interference matrix.

Run it with ``python -m repro interference``; its points go through
the orchestrator like a campaign's, so every run flag applies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.results import Table
from repro.campaign.scale import Scale
from repro.engine.execute import execute_cached
from repro.engine.orchestrator import Orchestrator, sidecar_store
from repro.engine.runspec import RunSpec
from repro.topology.dragonfly import Dragonfly
from repro.workloads.runner import WorkloadResult, isolated_spec, job_slowdowns
from repro.workloads.spec import JobSpec, WorkloadSpec

#: The two routings the acceptance question compares; extend via run().
ROUTINGS = ("min", "ofar")

BULLY = "bully"
VICTIM = "victim"


def build_spec(
    scale: Scale,
    routing: str,
    bully_load: float = 0.7,
    victim_load: float = 0.2,
    seed: int = 7,
) -> RunSpec:
    """The bully/victim workload spec for one routing at this scale."""
    cfg = scale.config(routing, seed=seed)
    num_nodes = Dragonfly(cfg.h).num_nodes
    half = num_nodes // 2
    # Under round-robin-groups each job gets h^2 nodes per group with
    # ranks sorted group-major, so a rank shift of h^3 targets the group
    # h ahead — the same offset the bully saturates.
    shift = cfg.h ** 3
    workload = WorkloadSpec(
        jobs=(
            JobSpec(name=BULLY, nodes=half, pattern=f"ADV+{cfg.h}",
                    load=bully_load),
            JobSpec(name=VICTIM, nodes=num_nodes - half,
                    pattern=f"SHIFT+{shift}", load=victim_load),
        ),
        placement="round-robin-groups",
    )
    return RunSpec.for_workload(
        cfg, workload, warmup=scale.warmup, measure=max(scale.measure, 2_000)
    )


@dataclass
class RoutingOutcome:
    """One routing's shared run, isolated baselines, and slowdowns."""

    routing: str
    shared: WorkloadResult
    isolated: dict[str, WorkloadResult]
    slowdowns: dict[str, float]

    @property
    def coupling(self) -> float:
        """Bully-victim interference energy (off-diagonal matrix entry)."""
        return self.shared.interference[0][1]


def run(
    scale: Scale,
    routings: tuple[str, ...] = ROUTINGS,
    bully_load: float = 0.7,
    victim_load: float = 0.2,
    seed: int = 7,
    orchestrator: Orchestrator | None = None,
) -> list[RoutingOutcome]:
    """Shared run + per-job isolated baselines for each routing.

    All specs are resolved through ``orchestrator`` (default:
    in-process, no store), so its workers, store, timeout and retries
    apply; a failed point raises.  The full WorkloadResults are read
    back from the store sidecars the executor writes.
    """
    groups = [
        (spec, *(isolated_spec(spec, job.name) for job in spec.workload.jobs))
        for spec in (build_spec(scale, r, bully_load, victim_load, seed)
                     for r in routings)
    ]
    with sidecar_store(orchestrator or Orchestrator(workers=0, retries=0)) as o:
        for result in o.run([spec for group in groups for spec in group]):
            result.require()
        full = [[execute_cached(spec, o.store) for spec in group] for group in groups]
    outcomes = []
    for routing, (spec, *_), (shared, *baselines) in zip(routings, groups, full):
        isolated = {job.name: r for job, r in zip(spec.workload.jobs, baselines)}
        outcomes.append(RoutingOutcome(
            routing=routing,
            shared=shared,
            isolated=isolated,
            slowdowns=job_slowdowns(shared, isolated),
        ))
    return outcomes


def points_table(scale: Scale, outcomes: list[RoutingOutcome]) -> Table:
    """Per-job LoadPoints of every shared run (one row per routing*job)."""
    table = Table(f"Interference — per-job points (h={scale.h}, shared run)")
    for outcome in outcomes:
        for jr in outcome.shared.jobs:
            row = {"routing": outcome.routing, "job": jr.name,
                   "nodes": jr.num_nodes}
            row.update(jr.point.as_row())
            table.add_row(row)
    return table


def slowdown_table(scale: Scale, outcomes: list[RoutingOutcome]) -> Table:
    """The headline comparison: per-job slowdown vs the isolated run."""
    table = Table(f"Interference — slowdown vs isolated baseline (h={scale.h})")
    for outcome in outcomes:
        table.add(
            routing=outcome.routing,
            bully_slowdown=round(outcome.slowdowns[BULLY], 3),
            victim_slowdown=round(outcome.slowdowns[VICTIM], 3),
            victim_thr=round(outcome.shared.job(VICTIM).point.throughput, 4),
            jain_jobs=round(outcome.shared.jain_across_jobs, 4),
            coupling=round(outcome.coupling, 4),
        )
    return table


def verdict(outcomes: list[RoutingOutcome]) -> str:
    """One-line answer to 'does OFAR contain the blast radius?'."""
    by_routing = {o.routing: o.slowdowns[VICTIM] for o in outcomes}
    if "min" not in by_routing or "ofar" not in by_routing:
        return "verdict needs both 'min' and 'ofar' outcomes"
    v_min, v_ofar = by_routing["min"], by_routing["ofar"]
    contained = v_ofar < v_min
    return (
        f"victim slowdown: {v_min:.2f}x under MIN vs {v_ofar:.2f}x under OFAR "
        f"— OFAR {'contains' if contained else 'does NOT contain'} "
        f"the bully's blast radius"
    )

