"""Campaign execution and the ``post:`` emitter registry.

:func:`run_campaign` resolves every expanded point through the run
layer: steady and scenario grids go through an
:class:`~repro.engine.orchestrator.Orchestrator` — workers, result-store
caching, resume, retry, telemetry and mid-run checkpoints all work on
campaign points exactly as on hand-built RunSpec grids, because a
campaign point *is* a RunSpec — and transient points run the Fig. 6
pattern-switch protocol (not store-cached: a transient is a time
series, not a LoadPoint).

``post:`` hooks name figure/table emitters from :data:`EMITTERS`; each
builds one :class:`~repro.analysis.results.Table` from the finished
run, which the CLI prints and (with ``--out``) saves as CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.results import Series, Table, series_table
from repro.campaign.aggregate import mean_ci
from repro.campaign.spec import CampaignError, CampaignPoint, CampaignSpec
from repro.engine.orchestrator import Orchestrator, summarize
from repro.engine.runner import run_transient


@dataclass
class CampaignRun:
    """A finished campaign: the grid, its outcomes, and run statistics.

    ``outcomes`` aligns with ``points``: a
    :class:`~repro.engine.metrics.LoadPoint` per steady or scenario
    point, a :class:`~repro.engine.runner.TransientResult` per transient
    point.  Scenario campaigns additionally carry the full per-point
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
    retry (default: in-process, no store); transient points always run
    in-process (they have no store representation).
    """
    orchestrator = orchestrator or Orchestrator(workers=0, retries=0)
    points = campaign.expand()
    if campaign.kind == "transient":
        outcomes = [
            run_transient(
                t.config, t.before, t.after, t.load,
                warmup=t.warmup, post=t.post, bucket=t.bucket,
            )
            for t in (p.transient for p in points)
        ]
        return CampaignRun(campaign, points, outcomes, _all_done(len(points)))

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

    Transient campaigns have no store representation (a transient is a
    time series, not a LoadPoint), so they cannot be fabric-drained.
    Scenario campaigns drain like steady ones — each worker persists the
    point's full ScenarioResult as a store sidecar, which the emitters
    read back after the drain.
    """
    if campaign.kind == "transient":
        raise CampaignError(
            "--fabric drains steady and scenario campaigns; transient "
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


def _series_axes(campaign: CampaignSpec) -> list[str]:
    """The axes that name a curve: every multi-valued non-load axis."""
    return [
        axis for axis, values in campaign.combination.items()
        if axis != "load" and len(values) > 1
    ]


def _first_seed_series(run: CampaignRun) -> list[Series]:
    """One driver-style Series per curve, from the first seed only.

    The first seed is the campaign's base seed, so these series are the
    exact points the corresponding figure driver produces — the
    byte-identity seam the regression tests pin.
    """
    name_axes = _series_axes(run.campaign)
    base_seed = run.campaign.seeds[0]
    by_name: dict[str, Series] = {}
    for point, outcome in zip(run.points, run.outcomes):
        coords = dict(point.coords)
        if coords["seed"] != base_seed:
            continue
        name = "/".join(str(coords[a]) for a in name_axes) if name_axes \
            else str(coords["routing"])
        by_name.setdefault(name, Series(name=name)).add(outcome)
    return list(by_name.values())


def emit_table(run: CampaignRun) -> Table:
    """Every resolved point, one row each (coords + full LoadPoint row,
    or coords + transient summary for transient campaigns)."""
    table = Table(f"{run.campaign.name} — points")
    if run.campaign.kind == "transient":
        return _emit_transient(run, table)
    multi_seed = len(run.campaign.seeds) > 1
    for point, outcome in zip(run.points, run.outcomes):
        row = {k: v for k, v in point.coords if multi_seed or k != "seed"}
        row.update(outcome.as_row())
        table.add_row(row)
    return table


def _emit_transient(run: CampaignRun, table: Table) -> Table:
    """Fig. 6-shaped rows: transition, load, routing, settle summary."""
    from repro.experiments.fig6_transient import summarize as summarize_transient

    multi_seed = len(run.campaign.seeds) > 1
    for point, result in zip(run.points, run.outcomes):
        t = point.transient
        row = {
            "transition": f"{t.before}->{t.after}",
            "load": t.load,
            "routing": dict(point.coords)["routing"],
        }
        if multi_seed:
            row["seed"] = dict(point.coords)["seed"]
        row.update(summarize_transient(result))
        table.add_row(row)
    return table


def emit_aggregate(run: CampaignRun) -> Table:
    """Replication aggregation: mean ± 95% CI half-width per grid point."""
    if run.campaign.kind != "steady":
        raise CampaignError("'aggregate' is a steady-campaign emitter")
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

        def cell(value: float, digits: int):
            return None if value != value else round(value, digits)  # NaN-safe

        row = dict(key)
        row.update({
            "n": len(sample),
            "thr_mean": cell(thr_mean, 4), "thr_ci": cell(thr_hw, 4),
            "lat_mean": cell(lat_mean, 1), "lat_ci": cell(lat_hw, 2),
            "p99_mean": cell(p99_mean, 1), "p99_ci": cell(p99_hw, 2),
        })
        table.add_row(row)
    return table


def emit_series_table(run: CampaignRun) -> Table:
    """The drivers' side-by-side curve table (first seed), e.g. Fig. 3a/3b."""
    if run.campaign.kind != "steady":
        raise CampaignError("'series_table' is a steady-campaign emitter")
    return series_table(
        f"{run.campaign.name} (h={run.campaign.scale.h}, seed {run.campaign.seeds[0]})",
        _first_seed_series(run),
    )


def emit_summary(run: CampaignRun) -> Table:
    """Per-curve saturation summary (first seed), e.g. Fig. 3's inset."""
    if run.campaign.kind != "steady":
        raise CampaignError("'summary' is a steady-campaign emitter")
    table = Table(f"{run.campaign.name} — summary")
    for series in _first_seed_series(run):
        table.add(
            series=series.name,
            saturation_thr=round(series.saturation_throughput(), 3),
            low_load_latency=round(series.points[0].avg_latency, 1),
        )
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
