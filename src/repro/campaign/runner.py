"""Campaign execution and the ``post:`` emitter registry.

:func:`run_campaign` resolves every expanded point through the run
layer: steady and scenario grids go through an
:class:`~repro.engine.orchestrator.Orchestrator` — workers, result-store
caching, resume, retry, telemetry and mid-run checkpoints all work on
campaign points exactly as on hand-built RunSpec grids, because a
campaign point *is* a RunSpec — while transient and burst points run
the Fig. 6 pattern-switch / Fig. 7 burst-consumption protocols right
here (not store-cached: their results are a time series and a
completion time, not LoadPoints).

``post:`` hooks name figure/table emitters from :data:`EMITTERS`; each
builds one :class:`~repro.analysis.results.Table` from the finished
run, which the CLI prints and (with ``--out``) saves as CSV.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.results import Series, Table, series_table
from repro.campaign.aggregate import mean_ci
from repro.campaign.spec import (
    IN_PROCESS_KINDS,
    CampaignError,
    CampaignPoint,
    CampaignSpec,
)
from repro.engine.orchestrator import Orchestrator, summarize
from repro.engine.runner import run_burst, run_transient


@dataclass
class CampaignRun:
    """A finished campaign: the grid, its outcomes, and run statistics.

    ``outcomes`` aligns with ``points``: a
    :class:`~repro.engine.metrics.LoadPoint` per steady or scenario
    point, a :class:`~repro.engine.runner.TransientResult` per transient
    point, a :class:`~repro.engine.runner.BurstResult` per burst point.
    Scenario campaigns additionally carry the full per-point
    :class:`~repro.cluster.runner.ScenarioResult` list (job rows, blast
    radii) in ``scenario_results``, which the scenario emitters consume.
    ``counts`` is the orchestrator summary (done/cached/failed) — the
    resume contract surfaces here: a second run of the same campaign
    against the same store reports 100% ``cached``.
    """

    campaign: CampaignSpec
    points: list[CampaignPoint]
    outcomes: list
    counts: dict
    scenario_results: list | None = None


def run_campaign(
    campaign: CampaignSpec, orchestrator: Orchestrator | None = None
) -> CampaignRun:
    """Expand and execute every point; a failed point raises.

    Steady and scenario points get the orchestrator's workers / caching /
    retry (default: in-process, no store).  Transient and burst points
    have no store representation and always run in-process, so an
    orchestrator that asks for workers, a store, a timeout or telemetry
    is refused rather than silently ignored.
    """
    points = campaign.expand()
    if campaign.kind in IN_PROCESS_KINDS:
        return _run_in_process(campaign, points, orchestrator)
    orchestrator = orchestrator or Orchestrator(workers=0, retries=0)
    specs = [p.spec for p in points]
    if campaign.kind == "scenario" and orchestrator.store is None:
        # A ScenarioResult travels from the executor to the emitters as
        # a store sidecar; with no store to carry it, the points run
        # right here.
        from repro.cluster.runner import run_scenario

        scenario_results = [run_scenario(s) for s in specs]
        outcomes = [r.total for r in scenario_results]
        return CampaignRun(
            campaign, points, outcomes, _all_done(len(points)), scenario_results
        )
    results = orchestrator.run(specs)
    return _finished(campaign, points, results, summarize(results), orchestrator.store)


def _run_in_process(
    campaign: CampaignSpec, points: list[CampaignPoint], o: Orchestrator | None
) -> CampaignRun:
    """Run a transient or burst campaign's points right here."""
    if o is not None and (o.workers or o.store is not None
                          or o.timeout is not None or o.telemetry is not None):
        raise CampaignError(
            f"{campaign.kind} campaigns run in-process and uncached (their "
            "points are not LoadPoints); --workers/--store/--resume/"
            "--timeout/--snapshot-every/--telemetry do not apply"
        )
    if campaign.kind == "transient":
        outcomes = [
            run_transient(
                t.config, t.before, t.after, t.load,
                warmup=t.warmup, post=t.post, bucket=t.bucket,
            )
            for t in (p.transient for p in points)
        ]
    else:
        outcomes = [
            run_burst(b.config, b.pattern, b.packets_per_node)
            for b in (p.burst for p in points)
        ]
    return CampaignRun(campaign, points, outcomes, _all_done(len(points)))


def _all_done(n: int) -> dict:
    """Orchestrator-summary-shaped counts for points run right here."""
    return {"total": n, "done": n, "cached": 0, "failed": 0, "wall_time": 0.0}


def _finished(campaign, points, results, counts, store) -> CampaignRun:
    """Strict results (a failed point raises) plus, for scenario
    campaigns, each point's full ScenarioResult.

    Orchestrated and fabric-drained scenario points persist their
    ScenarioResult as a ``scenarios`` sidecar the moment they finish;
    this reads those back (recomputing in-process only if a sidecar is
    missing — e.g. a main-store cache hit that predates the sidecar).
    """
    outcomes = [r.require() for r in results]
    scenario_results = None
    if campaign.kind == "scenario":
        from repro.engine.execute import execute_cached

        scenario_results = [execute_cached(p.spec, store) for p in points]
    return CampaignRun(campaign, points, outcomes, counts, scenario_results)


def run_campaign_fabric(campaign: CampaignSpec, store, **drain_options) -> CampaignRun:
    """Drain a campaign as one fabric worker; a failed point raises.

    The ``--fabric`` path: this process joins whatever fleet is draining
    ``campaign`` through the shared ``store`` (:mod:`repro.fabric`) and
    returns once *every* point is resolved — its own claims counted as
    ``done``, peers' and pre-existing results as ``cached``.  Because a
    campaign point is an ordinary RunSpec and fingerprints are executor-
    independent, the resulting store is interchangeable with a
    single-host ``campaign run`` against the same directory, and the
    emitted tables are bit-identical.

    Transient and burst campaigns have no store representation (their
    points are not LoadPoints), so they cannot be fabric-drained.
    Scenario campaigns drain like steady ones — each worker persists the
    point's full ScenarioResult as a store sidecar, which the emitters
    read back after the drain.
    """
    if campaign.kind in IN_PROCESS_KINDS:
        raise CampaignError(
            f"--fabric drains steady and scenario campaigns; {campaign.kind} "
            "campaigns have no store representation to coordinate through"
        )
    from repro.fabric import drain

    points = campaign.expand()
    results, summary = drain([p.spec for p in points], store, **drain_options)
    counts = summarize(results)
    counts["fabric"] = summary.render()
    return _finished(campaign, points, results, counts, store)


# ----------------------------------------------------------------------
# Emitters
# ----------------------------------------------------------------------

def _grid_keys(run: CampaignRun) -> list[tuple]:
    """Coordinate tuples without the seed, in first-appearance order."""
    return list(dict.fromkeys(
        tuple(c for c in point.coords if c[0] != "seed") for point in run.points
    ))


def _varying_axes(campaign: CampaignSpec) -> list[str]:
    """The multi-valued axes: the ones that tell two rows or curves apart."""
    return [axis for axis, values in campaign.combination.items() if len(values) > 1]


def _require_kind(run: CampaignRun, kind: str, emitter: str) -> None:
    if run.campaign.kind != kind:
        raise CampaignError(f"{emitter!r} is a {kind}-campaign emitter")


def _first_seed(run: CampaignRun):
    """``(point, outcome)`` pairs of the campaign's base seed — the
    single-seed view the figure-shaped emitters tabulate."""
    return [
        (point, outcome) for point, outcome in zip(run.points, run.outcomes)
        if point.replication == 0
    ]


def _cell(value: float, digits: int):
    return None if value != value else round(value, digits)  # NaN-safe


def _first_seed_curves(run: CampaignRun) -> list[tuple[Series, CampaignPoint]]:
    """One Series per curve (first seed), each with its first point.

    A curve is named by the varying non-load axes (by its routing when
    nothing else varies).  The first seed is the campaign's base seed,
    so these are exactly the points a hand-built single-seed sweep of
    the same RunSpecs produces — the byte-identity seam the regression
    tests pin.
    """
    name_axes = [axis for axis in _varying_axes(run.campaign) if axis != "load"]
    curves: dict[str, tuple[Series, CampaignPoint]] = {}
    for point, outcome in _first_seed(run):
        coords = dict(point.coords)
        name = "/".join(str(coords[a]) for a in name_axes) if name_axes \
            else point.config.routing
        curves.setdefault(name, (Series(name=name), point))[0].add(outcome)
    return list(curves.values())


def emit_table(run: CampaignRun) -> Table:
    """Every resolved point, one row each (coords + full LoadPoint row,
    or coords + transient summary for transient campaigns)."""
    table = Table(f"{run.campaign.name} — points")
    if run.campaign.kind == "transient":
        return _emit_transient(run, table)
    if run.campaign.kind == "burst":
        raise CampaignError("burst campaigns tabulate through 'burst_table'")
    for point, outcome in zip(run.points, run.outcomes):
        row = _point_prefix(run, point)
        row.update(outcome.as_row())
        table.add_row(row)
    return table


def _emit_transient(run: CampaignRun, table: Table) -> Table:
    """Fig. 6-shaped rows: transition, load, routing, settle summary."""
    multi_seed = len(run.campaign.seeds) > 1
    for point, result in zip(run.points, run.outcomes):
        t = point.transient
        row = {
            "transition": f"{t.before}->{t.after}",
            "load": t.load,
            "routing": t.config.routing,
        }
        if multi_seed:
            row["seed"] = dict(point.coords)["seed"]
        row.update(result.summarize())
        table.add_row(row)
    return table


def emit_aggregate(run: CampaignRun) -> Table:
    """Replication aggregation: mean ± 95% CI half-width per grid point."""
    _require_kind(run, "steady", "aggregate")
    outcome_by_coords = {p.coords: o for p, o in zip(run.points, run.outcomes)}
    table = Table(
        f"{run.campaign.name} — mean ± 95% CI over {len(run.campaign.seeds)} seed(s)"
    )
    for key in _grid_keys(run):
        sample = [
            outcome_by_coords[key + (("seed", seed),)]
            for seed in run.campaign.seeds
        ]
        thr_mean, thr_hw = mean_ci([p.throughput for p in sample])
        lat_mean, lat_hw = mean_ci([p.avg_latency for p in sample])
        p99_mean, p99_hw = mean_ci([p.p99_latency for p in sample])
        row = dict(key)
        row.update({
            "n": len(sample),
            "thr_mean": _cell(thr_mean, 4), "thr_ci": _cell(thr_hw, 4),
            "lat_mean": _cell(lat_mean, 1), "lat_ci": _cell(lat_hw, 2),
            "p99_mean": _cell(p99_mean, 1), "p99_ci": _cell(p99_hw, 2),
        })
        table.add_row(row)
    return table


def emit_series_table(run: CampaignRun) -> Table:
    """Side-by-side curve table (first seed), e.g. Fig. 3a/3b."""
    _require_kind(run, "steady", "series_table")
    return series_table(
        f"{run.campaign.name} (h={run.campaign.scale.h}, seed {run.campaign.seeds[0]})",
        [series for series, _ in _first_seed_curves(run)],
    )


def emit_summary(run: CampaignRun) -> Table:
    """Per-curve saturation summary (first seed), e.g. Fig. 3's inset."""
    _require_kind(run, "steady", "summary")
    table = Table(f"{run.campaign.name} — summary")
    for series, _ in _first_seed_curves(run):
        table.add(
            series=series.name,
            saturation_thr=round(series.saturation_throughput(), 3),
            low_load_latency=round(series.points[0].avg_latency, 1),
        )
    return table


def emit_bound_summary(run: CampaignRun) -> Table:
    """Fig. 5's verdict: ``summary`` plus whether each curve saturates
    above the 1/h local-link bound of its own network (5 % margin)."""
    from repro.analysis.bounds import local_link_advh_bound, valiant_bound

    table = emit_summary(run)
    curves = _first_seed_curves(run)
    for row, (series, point) in zip(table.rows, curves):
        bound = local_link_advh_bound(point.config.h)
        row["above_local_bound"] = (
            "yes" if series.saturation_throughput() > bound * 1.05 else "no"
        )
    table.title += (
        f" (local-link bound = {local_link_advh_bound(curves[0][1].config.h):.3f}, "
        f"global limit = {valiant_bound()})"
    )
    return table


def emit_pivot(run: CampaignRun) -> Table:
    """One row per grid coordinate (first seed) with the innermost
    varying axis spread into ``<value>_thr/_lat/_ring`` columns — the
    A-vs-B shape of Figs. 8/9 and the congestion study."""
    _require_kind(run, "steady", "pivot")
    varying = _varying_axes(run.campaign)
    if not varying:
        raise CampaignError("'pivot' needs a multi-valued axis to spread into columns")
    spread = varying[-1]
    rows: dict[tuple, dict] = {}
    for point, outcome in _first_seed(run):
        key = tuple(c for c in point.coords if c[0] in varying[:-1])
        tag = dict(point.coords)[spread]
        rows.setdefault(key, dict(key)).update({
            f"{tag}_thr": round(outcome.throughput, 4),
            f"{tag}_lat": _cell(outcome.avg_latency, 1),
            f"{tag}_ring": _cell(outcome.ring_fraction, 4),
        })
    return Table(
        f"{run.campaign.name} — by {spread} (h={run.campaign.scale.h})",
        list(rows.values()),
    )


def emit_burst_table(run: CampaignRun) -> Table:
    """Fig. 7: burst consumption time per routing, normalized to PB's
    (first seed); the title carries the mean OFAR/PB ratio."""
    _require_kind(run, "burst", "burst_table")
    varying = [axis for axis in _varying_axes(run.campaign) if axis != "routing"]
    cycles: dict[tuple, dict[str, int]] = {}
    for point, result in _first_seed(run):
        key = tuple(c for c in point.coords if c[0] in varying)
        cycles.setdefault(key, {})[point.config.routing] = result.completion_cycle
    if not all("pb" in by_routing for by_routing in cycles.values()):
        raise CampaignError("'burst_table' normalizes to PB: add 'pb' to the routing axis")
    rows = []
    for key, by_routing in cycles.items():
        row = dict(key, pb_cycles=by_routing["pb"])
        for routing, completion in by_routing.items():
            row[f"{routing}_norm"] = round(completion / by_routing["pb"], 3)
        rows.append(row)
    scale = run.campaign.scale
    title = (f"{run.campaign.name} — burst consumption time normalized to PB "
             f"(h={scale.h}, {scale.burst_packets_per_node} pkts/node)")
    ofar = [row["ofar_norm"] for row in rows if "ofar_norm" in row]
    if ofar:
        title += f"; mean OFAR time vs PB {sum(ofar) / len(ofar):.3f} (paper: 0.695)"
    return Table(title, rows)


def emit_offsets(run: CampaignRun) -> Table:
    """Fig. 2b: each simulated ``ADV+N`` point (first seed) beside its
    analytic companions, computed from the point's own offset and
    topology — the l2-only closed form (an upper bound, the Fig. 2a
    argument) and the Monte-Carlo static-load prediction (which also
    counts l1/l3 hops on the same links and tracks the simulator)."""
    from repro.analysis.offsets import max_l2_concentration, valiant_offset_bound
    from repro.analysis.static_load import predicted_saturation
    from repro.topology.dragonfly import Dragonfly
    from repro.traffic.patterns import AdversarialPattern

    _require_kind(run, "steady", "offsets")
    varying = [axis for axis in _varying_axes(run.campaign) if axis != "pattern"]
    table = Table(f"{run.campaign.name} — throughput vs ADV offset (h={run.campaign.scale.h})")
    topos: dict[int, Dragonfly] = {}
    for point, outcome in _first_seed(run):
        spec = point.spec
        if not spec.pattern_spec.upper().startswith("ADV+"):
            raise CampaignError(f"'offsets' tabulates ADV+N patterns, got {spec.pattern_spec!r}")
        n, h = int(spec.pattern_spec[4:]), spec.config.h
        topo = topos.setdefault(h, Dragonfly(h))
        predicted = predicted_saturation(
            topo, AdversarialPattern(topo, random.Random(n), n),
            "min" if spec.config.routing == "min" else "val",
            samples=8_000, seed=n,
        )
        row = {k: v for k, v in point.coords if k in varying}
        row.update(
            offset=n,
            worst_case="*" if n % h == 0 else "",
            concentration=max_l2_concentration(topo, n),
            l2_bound=round(valiant_offset_bound(topo, n), 3),
            predicted=round(min(predicted, spec.load), 3),
            throughput=round(outcome.throughput, 3),
            latency=_cell(outcome.avg_latency, 1),
        )
        table.add_row(row)
    return table


def _require_scenario(run: CampaignRun, emitter: str) -> list:
    if run.campaign.kind != "scenario" or run.scenario_results is None:
        raise CampaignError(f"{emitter!r} is a scenario-campaign emitter")
    return run.scenario_results


def _point_prefix(run: CampaignRun, point: CampaignPoint) -> dict:
    multi_seed = len(run.campaign.seeds) > 1
    return {k: v for k, v in point.coords if multi_seed or k != "seed"}


def emit_scenario_table(run: CampaignRun) -> Table:
    """Per-point scheduling outcomes: churn, waits, slowdowns, fairness."""
    results = _require_scenario(run, "scenario_table")
    table = Table(f"{run.campaign.name} — scenario outcomes")
    for point, res in zip(run.points, results):
        slowdowns = [j.slowdown for j in res.jobs if j.slowdown is not None]
        waits = [j.wait for j in res.jobs if j.wait is not None]
        row = _point_prefix(run, point)
        row.update({
            "jobs": len(res.jobs),
            "started": len(res.jobs) - res.queued,
            "completed": sum(1 for j in res.jobs if j.completed),
            "queued": res.queued,
            "makespan": res.makespan,
            "util": round(res.mean_utilization, 3),
            "mean_wait": round(sum(waits) / len(waits), 1) if waits else None,
            "mean_slowdown": (round(sum(slowdowns) / len(slowdowns), 3)
                              if slowdowns else None),
            "max_slowdown": round(max(slowdowns), 3) if slowdowns else None,
            "fairness": round(res.fairness, 3),
            "thr": round(res.total.throughput, 4),
            "avg_lat": round(res.total.avg_latency, 1),
        })
        table.add_row(row)
    return table


def emit_blast_radius(run: CampaignRun) -> Table:
    """One row per (point, fault): latency blast ratio across the jobs
    live at the failure — the MIN-vs-OFAR fault-resilience comparison."""
    results = _require_scenario(run, "blast_radius")
    table = Table(f"{run.campaign.name} — fault blast radius")

    def mean_of(values: list[float]):
        finite = [v for v in values if v == v]  # NaN-safe
        return round(sum(finite) / len(finite), 3) if finite else None

    for point, res in zip(run.points, results):
        by_fault: dict[tuple, list] = {}
        for b in res.blast:
            by_fault.setdefault((b.cycle, b.router, b.port), []).append(b)
        for (cycle, router, port), rows in sorted(by_fault.items()):
            row = _point_prefix(run, point)
            row.update({
                "fault_cycle": cycle,
                "router": router,
                "port": port,
                "jobs_hit": len(rows),
                "before": mean_of([b.before for b in rows]),
                "after": mean_of([b.after for b in rows]),
                "blast_ratio": mean_of([b.ratio for b in rows]),
            })
            table.add_row(row)
    return table


EMITTERS = {
    "table": emit_table,
    "aggregate": emit_aggregate,
    "series_table": emit_series_table,
    "summary": emit_summary,
    "bound_summary": emit_bound_summary,
    "pivot": emit_pivot,
    "burst_table": emit_burst_table,
    "offsets": emit_offsets,
    "scenario_table": emit_scenario_table,
    "blast_radius": emit_blast_radius,
}


def validate_post(campaign: CampaignSpec) -> None:
    """Reject unknown ``post:`` hook names (part of ``campaign validate``)."""
    unknown = [name for name in campaign.post if name not in EMITTERS]
    if unknown:
        raise CampaignError(
            f"unknown post emitters {unknown}; available: {sorted(EMITTERS)}"
        )


def emit(run: CampaignRun) -> list[tuple[str, Table]]:
    """Evaluate the campaign's ``post:`` hooks in declared order."""
    validate_post(run.campaign)
    return [(name, EMITTERS[name](run)) for name in run.campaign.post]
