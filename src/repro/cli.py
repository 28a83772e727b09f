"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
- ``info``      — topology facts and analytic bounds for a given h;
- ``sweep``     — latency/throughput load sweep for one routing+pattern;
- ``transient`` — Fig. 6-style pattern-switch experiment;
- ``telemetry`` — pattern-switch experiment with an in-run telemetry
  sampler: exports the windowed series (JSONL/CSV) and renders
  utilization heatmaps/sparklines around the switch;
- ``burst``     — Fig. 7-style burst-consumption experiment;
- ``interference`` — multi-job bully/victim study: per-job LoadPoints
  and slowdowns vs isolated baselines under MIN vs OFAR;
- ``scenario``  — cluster scenarios (``repro.cluster``): ``schedule``
  compiles a churn scenario's job timeline without the network,
  ``run`` executes it and reports per-job outcomes and fault blast
  radii;
- ``campaign``  — declarative campaign files (``repro.campaign``):
  ``validate`` / ``expand`` / ``run`` a YAML/JSON study with config
  inheritance, cartesian grids, seed replication and post emitters —
  every figure of the paper is one file under ``campaigns/``;
- ``fabric``    — distributed campaign draining (``repro.fabric``):
  ``work`` runs one lease-coordinated worker against a shared store
  (start any number, on any hosts that see the directory), ``status``
  shows fleet progress and the live lease table, ``reap`` cleans up
  after dead workers;
- ``store``     — result-store maintenance (``repro.analysis.store``):
  ``verify`` re-hashes every cached entry, ``gc`` sweeps orphaned
  checkpoints/telemetry, ``stats`` summarizes disk usage by kind.

Examples::

    python -m repro info --h 6
    python -m repro sweep --routing ofar --pattern ADV+3 --h 3 \
        --loads 0.1,0.2,0.3,0.4
    python -m repro sweep --routing ofar --pattern UN --h 2 \
        --store /tmp/st --telemetry 100
    python -m repro telemetry --routing pb --before UN --after ADV+2 \
        --out series.jsonl --heatmap
    python -m repro campaign run campaigns/fig5.yaml --scale medium
    python -m repro campaign run campaigns/fig3.yaml --workers 8 --resume
    python -m repro fabric work campaigns/h6_first.yaml \
        --store /shared/h6 --snapshot-every 2000   # on every host
    python -m repro fabric status campaigns/h6_first.yaml --store /shared/h6
    python -m repro store verify /shared/h6
"""

from __future__ import annotations

import argparse

from repro.analysis.bounds import (
    local_link_advh_bound,
    min_adversarial_bound,
    ring_added_global_fraction,
    ring_added_link_fraction,
    valiant_bound,
)
from repro.analysis.results import Table
from repro.analysis.store import ResultStore
from repro.engine.backend import default_backend
from repro.engine.config import SimulationConfig
from repro.engine.orchestrator import summarize
from repro.engine.runner import run_burst, run_transient
from repro.engine.runspec import RunSpec
from repro.experiments.common import (
    DEFAULT_STORE,
    fabric_options_from_args,
    get_scale,
    orchestration_options,
    orchestrator_from_args,
)
from repro.topology.dragonfly import Dragonfly


def _config(args, routing: str | None = None) -> SimulationConfig:
    routing = routing or args.routing
    if getattr(args, "paper", False):
        return SimulationConfig.paper(routing=routing, seed=args.seed)
    return SimulationConfig.small(h=args.h, routing=routing, seed=args.seed)


def cmd_info(args) -> None:
    topo = Dragonfly(args.h)
    print(topo)
    print(f"  groups            : {topo.num_groups}")
    print(f"  routers           : {topo.num_routers} ({topo.ports_per_router} ports each)")
    print(f"  nodes             : {topo.num_nodes}")
    print(f"  local links       : {topo.num_local_links}")
    print(f"  global links      : {topo.num_global_links}")
    print("analytic bounds (phits/node/cycle):")
    print(f"  MIN under ADV+N   : {min_adversarial_bound(args.h):.5f}  (1/(2h^2))")
    print(f"  Valiant limit     : {valiant_bound():.3f}")
    print(f"  ADV+h local funnel: {local_link_advh_bound(args.h):.4f}  (1/h)")
    print("physical escape-ring cost:")
    print(f"  extra links       : {100 * ring_added_link_fraction(args.h):.2f}%")
    print(f"  extra long wires  : {100 * ring_added_global_fraction(args.h):.3f}%")


def cmd_sweep(args) -> None:
    cfg = _config(args)
    # Resolve the execution context first: --backend installs the
    # process default that every spec below is stamped with.
    fabric = getattr(args, "fabric", False) or bool(
        getattr(args, "coordinator", None)
    )
    if fabric:
        fabric_store, fabric_opts = fabric_options_from_args(args)
    else:
        orchestrator = orchestrator_from_args(args)
    loads = [float(x) for x in args.loads.split(",")]
    max_windows = args.max_windows if args.saturating else None
    specs = [
        RunSpec(cfg, args.pattern, load, args.warmup, args.measure,
                max_windows=max_windows, backend=default_backend())
        for load in loads
    ]
    if fabric:
        from repro.fabric import drain

        results, summary = drain(specs, fabric_store, **fabric_opts)
        print(summary.render())
    else:
        results = orchestrator.run(specs)
    table = Table(f"{args.routing} on {args.pattern} (h={cfg.h})")
    points = []
    for res in results:
        if res.ok:
            points.append(res.point)
            table.add_row(res.point.as_row())
        else:
            table.add_row({"load": round(res.spec.load, 4),
                           "error": res.error.strip().splitlines()[-1]})
    counts = summarize(results)
    print(f"[sweep] {counts['done']} run, {counts['cached']} cached, "
          f"{counts['failed']} failed")
    print(table.to_text())
    if args.chart:
        from repro.analysis.plots import throughput_chart
        from repro.analysis.results import Series

        print(throughput_chart([Series(args.routing, points)]))


def cmd_transient(args) -> None:
    cfg = _config(args)
    result = run_transient(
        cfg, args.before, args.after, args.load,
        warmup=args.warmup, post=args.measure, bucket=args.bucket,
    )
    table = Table(
        f"{args.routing}: {args.before} -> {args.after} at load {args.load} "
        f"(switch at cycle {result.switch_cycle})"
    )
    for cyc, lat in result.series:
        table.add(send_cycle=cyc, avg_latency=round(lat, 1))
    print(table.to_text())


def cmd_telemetry(args) -> None:
    from repro.analysis import heatmap
    from repro.telemetry import TelemetryConfig

    cfg = _config(args)
    tcfg = TelemetryConfig(interval=args.interval, per_link=True)
    result = run_transient(
        cfg, args.before, args.after, args.load,
        warmup=args.warmup, post=args.measure, bucket=args.bucket,
        telemetry=tcfg,
    )
    series = result.telemetry
    switch = result.switch_cycle
    series.write_jsonl(args.out)
    print(f"{args.routing}: {args.before} -> {args.after} at load {args.load}, "
          f"switch at cycle {switch}")
    print(f"wrote {len(series.samples)} samples "
          f"(interval {tcfg.interval}, {series.dropped} dropped) to {args.out}")
    if args.csv:
        series.write_csv(args.csv)
        print(f"wrote CSV to {args.csv}")
    print(heatmap.render_series(
        series.link_p99("local"), "local-link p99 util", mark_cycle=switch))
    print(heatmap.render_series(
        series.series(lambda s: float(s.injection_backlog)),
        "injection backlog   ", mark_cycle=switch))
    settle = heatmap.settle_from_utilization(series, after=switch)
    if settle is None:
        print("local-link p99 utilization never settles in the recorded window")
    else:
        print(f"local-link p99 utilization settles at cycle {settle} "
              f"({settle - switch} cycles after the switch)")
    if args.heatmap:
        print()
        print(heatmap.render_router_heatmap(series, "local", mark_cycle=switch))
        print()
        print(heatmap.render_group_heatmap(series, end=switch))
        print()
        print(heatmap.render_group_heatmap(series, start=switch))


def cmd_burst(args) -> None:
    cfg = _config(args)
    res = run_burst(cfg, args.pattern, args.packets)
    print(f"{args.routing} on {args.pattern}: {res.total_packets} packets "
          f"consumed by cycle {res.completion_cycle} "
          f"({res.packets_per_cycle:.2f} pkts/cycle, "
          f"avg latency {res.avg_latency:.1f}, "
          f"ring usage {100 * res.ring_fraction:.2f}%)")


def cmd_interference(args) -> None:
    from repro.experiments import interference

    scale = get_scale(args.scale)
    routings = tuple(args.routings.split(","))
    orchestrator = orchestrator_from_args(args)
    outcomes = interference.run(
        scale, routings,
        bully_load=args.bully_load, victim_load=args.victim_load,
        seed=args.seed,
        store=orchestrator.store, use_cache=orchestrator.use_cache,
    )
    print(interference.points_table(scale, outcomes).to_text())
    print(interference.slowdown_table(scale, outcomes).to_text())
    print(interference.verdict(outcomes))


def _load_campaign_or_exit(args):
    from repro.campaign import CampaignError, load_campaign

    try:
        return load_campaign(args.file, scale=args.scale)
    except CampaignError as exc:
        raise SystemExit(f"campaign error: {exc}") from None


def cmd_campaign_run(args) -> None:
    import os

    from repro.campaign import CampaignError, emit, run_campaign, run_campaign_fabric

    campaign = _load_campaign_or_exit(args)
    try:
        if getattr(args, "fabric", False) or getattr(args, "coordinator", None):
            store, options = fabric_options_from_args(args)
            run = run_campaign_fabric(campaign, store, **options)
        else:
            run = run_campaign(campaign, orchestrator_from_args(args))
    except CampaignError as exc:
        raise SystemExit(f"campaign error: {exc}") from None
    c = run.counts
    print(f"[campaign {campaign.name}] {c['total']} points: "
          f"{c['done']} run, {c['cached']} cached, {c['failed']} failed")
    if "fabric" in c:
        print(c["fabric"])
    try:
        tables = emit(run)
    except CampaignError as exc:
        raise SystemExit(f"campaign error: {exc}") from None
    for name, table in tables:
        print(table.to_text())
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{campaign.name}_{name}.csv")
            table.save_csv(path)
            print(f"[saved {path}]")


def cmd_campaign_expand(args) -> None:
    campaign = _load_campaign_or_exit(args)
    for i, point in enumerate(campaign.expand()):
        key = (point.spec.fingerprint()[:12] if point.spec is not None
               else campaign.kind.ljust(12))
        print(f"{i:4d}  {key}  {point.label()}")


def cmd_campaign_validate(args) -> None:
    from repro.campaign import CampaignError, validate_post

    campaign = _load_campaign_or_exit(args)
    try:
        validate_post(campaign)
        points = campaign.expand()
    except CampaignError as exc:
        raise SystemExit(f"campaign error: {exc}") from None
    print(f"campaign   : {campaign.name} ({campaign.kind})")
    if campaign.description:
        print(f"description: {campaign.description}")
    print(f"scale      : {campaign.scale.name} (h={campaign.scale.h})")
    for axis, values in campaign.combination.items():
        print(f"axis       : {axis} ({len(values)} values)")
    print(f"seeds      : {list(campaign.seeds)}")
    print(f"post       : {list(campaign.post)}")
    print(f"points     : {len(points)}")


# ----------------------------------------------------------------------
# Cluster scenarios (repro.cluster)
# ----------------------------------------------------------------------

def _load_scenario_or_exit(path: str):
    import json as _json
    from pathlib import Path

    from repro.cluster.spec import ScenarioSpec

    p = Path(path)
    if not p.is_file():
        raise SystemExit(f"scenario error: file not found: {path}")
    text = p.read_text()
    try:
        if p.suffix in (".yaml", ".yml"):
            import yaml

            data = yaml.safe_load(text)
        else:
            data = _json.loads(text)
        return ScenarioSpec.from_jsonable(data)
    except (ValueError, TypeError, KeyError) as exc:
        raise SystemExit(f"scenario error: {exc}") from None


def cmd_scenario_schedule(args) -> None:
    """Compile the scenario (no network simulation) and print the plan."""
    from repro.cluster.schedule import compile_scenario

    scenario = _load_scenario_or_exit(args.file)
    topo = Dragonfly(args.h)
    compiled = compile_scenario(scenario, topo)
    table = Table(
        f"{scenario.scheduler} schedule on h={args.h} "
        f"({topo.num_nodes} nodes, horizon {scenario.horizon})"
    )
    for j in compiled.jobs:
        table.add(
            job=j.name, size=j.size, pattern=j.pattern, load=j.load,
            arrival=j.arrival,
            start="-" if j.start is None else j.start,
            finish="-" if j.finish is None else j.finish,
            wait="-" if j.wait is None else j.wait,
            slowdown="-" if j.slowdown is None else round(j.slowdown, 3),
        )
    print(table.to_text())
    queued = sum(1 for j in compiled.jobs if j.start is None)
    print(f"{len(compiled.jobs)} jobs ({queued} never started), "
          f"makespan {compiled.makespan}, "
          f"mean utilization {compiled.mean_utilization:.3f}")


def cmd_scenario_run(args) -> None:
    """Execute the scenario on the network and print per-job outcomes."""
    from repro.engine.execute import execute_cached

    scenario = _load_scenario_or_exit(args.file)
    cfg = _config(args)
    spec = RunSpec.for_scenario(cfg, scenario, backend=default_backend())
    store = ResultStore(args.store) if args.store else None
    result = execute_cached(spec, store)
    table = Table(f"{spec.label()} — per-job outcomes")
    for row in result.jobs:
        cells = {
            "job": row.name, "size": row.size, "arrival": row.arrival,
            "start": "-" if row.start is None else row.start,
            "finish": "-" if row.finish is None else row.finish,
            "wait": "-" if row.wait is None else row.wait,
            "slowdown": "-" if row.slowdown is None else round(row.slowdown, 3),
            "completed": "yes" if row.completed else "no",
        }
        if row.point is not None:
            cells["thr"] = round(row.point.throughput, 4)
            cells["avg_lat"] = round(row.point.avg_latency, 1)
        table.add_row(cells)
    print(table.to_text())
    if result.blast:
        blast = Table("fault blast radius (per concurrent job)")
        for b in result.blast:
            blast.add(
                cycle=b.cycle, router=b.router, port=b.port, job=b.job,
                before="-" if b.before != b.before else round(b.before, 1),
                after="-" if b.after != b.after else round(b.after, 1),
                ratio="-" if b.ratio != b.ratio else round(b.ratio, 3),
            )
        print(blast.to_text())
    print(f"makespan {result.makespan}, queued {result.queued}, "
          f"mean utilization {result.mean_utilization:.3f}, "
          f"fairness {result.fairness:.3f}, "
          f"network thr {result.total.throughput:.4f} "
          f"avg lat {result.total.avg_latency:.1f}")


def cmd_snapshot_capture(args) -> None:
    from repro.engine.runner import build_steady_sim
    from repro.snapshot import Snapshot

    cfg = _config(args)
    spec = RunSpec(cfg, args.pattern, args.load, args.warmup, args.measure)
    sim = build_steady_sim(spec)
    sim.run(args.at)
    snap = Snapshot.capture(sim, spec=spec)
    snap.save(args.out)
    print(f"captured {spec.label()} at cycle {snap.cycle} -> {args.out}")
    print(f"digest {snap.digest()}")


def cmd_snapshot_inspect(args) -> None:
    from repro.snapshot import Snapshot

    snap = Snapshot.load(args.file)
    state = snap.state
    cfg = state["config"]
    net = state["network"]
    print(f"format     : {state['format']}")
    print(f"cycle      : {snap.cycle}")
    print(f"config     : {cfg['routing']} h={cfg['h']} seed={cfg['seed']}")
    spec = snap.spec()
    print(f"spec       : {spec.label() if spec is not None else '(none embedded)'}")
    print(f"packets    : {len(state['packets'])} live "
          f"({net['counters']['in_flight_packets']} in network)")
    print(f"backlog    : {sum(len(q) for _, q in state['source_queues'])} queued "
          f"at {len(state['source_queues'])} nodes")
    print(f"events     : {sum(len(b) for _, b in state['events'])} pending "
          f"in {len(state['events'])} buckets")
    print(f"routers    : {len(net['routers'])} "
          f"({sum(1 for r in net['routers'] if r['scheduled'])} awake)")
    print(f"telemetry  : {'attached' if state['telemetry'] is not None else 'none'}")
    if snap.extras is not None:
        print(f"extras     : {sorted(snap.extras)}")
    print(f"digest     : {snap.digest()}")


def cmd_snapshot_digest(args) -> None:
    from repro.snapshot import Snapshot

    for path in args.files:
        print(f"{Snapshot.load(path).digest()}  {path}")


def cmd_snapshot_diff(args) -> None:
    from repro.snapshot import Snapshot, diff_states

    a, b = Snapshot.load(args.a), Snapshot.load(args.b)
    diffs = diff_states(a.state, b.state, max_diffs=args.limit)
    if not diffs:
        print(f"identical (digest {a.digest()})")
        return
    print(f"cycle {a.cycle} vs {b.cycle}: {len(diffs)} differing leaves"
          f"{' (truncated)' if len(diffs) >= args.limit else ''}")
    for path, va, vb in diffs:
        print(f"  {path}: {va!r} != {vb!r}")
    raise SystemExit(1)


def cmd_snapshot_bisect(args) -> None:
    """Fork two same-cycle snapshots and lockstep-run them until their
    state digests diverge — the cycle where determinism broke."""
    from repro.snapshot import Snapshot, first_divergence

    a, b = Snapshot.load(args.a), Snapshot.load(args.b)
    if a.cycle != b.cycle:
        raise SystemExit(f"snapshots are at different cycles ({a.cycle} vs {b.cycle})")
    hit = first_divergence(a.fork(), b.fork(), max_cycles=args.max_cycles,
                           check_every=args.check_every)
    if hit is None:
        print(f"no divergence within {args.max_cycles} cycles of cycle {a.cycle}")
        return
    print(f"first divergence at cycle {hit['cycle']}")
    print(f"  digest A {hit['digest_a']}")
    print(f"  digest B {hit['digest_b']}")
    for path, va, vb in hit["diff"]:
        print(f"  {path}: {va!r} != {vb!r}")
    raise SystemExit(1)


# ----------------------------------------------------------------------
# Fabric: distributed campaign draining (repro.fabric)
# ----------------------------------------------------------------------

def _fabric_campaign_specs(args):
    """The campaign plus its expanded RunSpec grid (steady/scenario)."""
    from repro.campaign.spec import IN_PROCESS_KINDS

    campaign = _load_campaign_or_exit(args)
    if campaign.kind in IN_PROCESS_KINDS:
        raise SystemExit(
            f"fabric error: {campaign.kind} campaigns have no store "
            "representation to coordinate through"
        )
    return campaign, [p.spec for p in campaign.expand()]


def _fabric_backend(args):
    """``(store, leases)`` for the observer commands, honoring
    ``--coordinator`` (leases None = the file backend over --store)."""
    coordinator = getattr(args, "coordinator", None)
    if not coordinator:
        return ResultStore(args.store or DEFAULT_STORE), None
    from repro.fabric import FabricBackendError
    from repro.fabric.coordinator import open_coordinator

    try:
        return open_coordinator(
            coordinator, args.store or DEFAULT_STORE,
            lease_ttl=args.lease_ttl,
        )
    except FabricBackendError as exc:
        raise SystemExit(f"fabric error: {exc}") from None


def cmd_fabric_work(args) -> None:
    from repro.fabric import FabricWorker, WorkQueue

    # Options first: --backend must be installed before specs are built.
    store, options = fabric_options_from_args(args)
    campaign, specs = _fabric_campaign_specs(args)
    queue = WorkQueue(
        specs, store,
        worker_id=options.pop("worker_id"),
        lease_ttl=options.pop("lease_ttl"),
        max_attempts=options.pop("max_attempts"),
        leases=options.pop("leases", None),
    )
    worker = FabricWorker(queue, **options)
    where = (
        f"coordinator {args.coordinator} (spool {store.root})"
        if getattr(args, "coordinator", None) else f"{store.root}"
    )
    print(f"[fabric] {queue.worker_id} joining '{campaign.name}': "
          f"{len(specs)} points over {where} "
          f"({queue.initial_done} already resolved)")
    summary = worker.run()
    print(summary.render())
    if summary.backend_error or summary.status.failed:
        raise SystemExit(1)


def cmd_fabric_status(args) -> None:
    from repro.fabric import fleet_status

    campaign, specs = _fabric_campaign_specs(args)
    store, leases = _fabric_backend(args)
    status = fleet_status(specs, store, lease_ttl=args.lease_ttl, leases=leases)
    print(f"[fabric {campaign.name}] {status.done}/{status.total} done, "
          f"{status.failed} failed, {status.leased} leased, "
          f"{status.stale} stale, {status.pending} pending")
    live = status.live_workers()
    rate = status.fleet_rate
    if not status.workers and not status.leases:
        # A store with no leases and no worker records is not a broken
        # fleet — nobody has joined (or everyone has finished and been
        # reaped).  Say so instead of printing empty tables.
        print(f"no fleet activity: 0 workers, 0 leases "
              f"({status.done} point(s) already in the store, "
              f"{status.pending} pending)")
    if status.drained:
        print("drained: every point has a result or a recorded failure")
    elif rate == rate:  # NaN-safe: at least one live worker
        eta = status.eta_seconds
        eta_text = f"{eta:.0f}s" if eta == eta else "?"
        print(f"fleet: {len(live)} live worker(s), {rate:.2f} pt/s, "
              f"eta {eta_text}")
    elif status.workers or status.leases:
        print("fleet: no live workers")
    if status.workers:
        table = Table("workers")
        for w in sorted(status.workers, key=lambda w: w.worker):
            table.add(
                worker=w.worker,
                live="yes" if w.live(2 * status.lease_ttl) else "no",
                done=w.done, failed=w.failed, reclaimed=w.reclaimed,
                rate=round(w.rate, 3), last=w.last_label,
            )
        print(table.to_text())
    if status.leases:
        table = Table("leases")
        for lease in sorted(status.leases, key=lambda le: le.fingerprint):
            table.add(
                point=lease.fingerprint[:12], worker=lease.worker,
                attempt=lease.attempt, age_s=round(lease.age(), 1),
                stale="yes" if lease.stale(status.lease_ttl) else "no",
                label=lease.label,
            )
        print(table.to_text())


def cmd_fabric_watch(args) -> None:
    from repro.fabric.watch import watch

    campaign, specs = _fabric_campaign_specs(args)
    store, leases = _fabric_backend(args)
    try:
        watch(campaign.name, specs, store, lease_ttl=args.lease_ttl,
              leases=leases, interval=args.interval)
    except KeyboardInterrupt:
        pass


def cmd_fabric_serve(args) -> None:
    from repro.fabric.coordinator import serve

    serve(args.store or DEFAULT_STORE, host=args.host, port=args.port,
          verbose=args.verbose)


def cmd_fabric_reap(args) -> None:
    from repro.fabric import reap

    _, specs = _fabric_campaign_specs(args)
    store, leases = _fabric_backend(args)
    report = reap(specs, store, lease_ttl=args.lease_ttl,
                  max_attempts=args.max_attempts, leases=leases)
    for lease in report.dropped_leases:
        print(f"dropped stale lease {lease.fingerprint[:12]} "
              f"(held by {lease.worker}, attempt {lease.attempt}) "
              f"-> point back to pending")
    for fp in report.failed_points:
        print(f"recorded failure for {fp[:12]} (attempt budget exhausted)")
    for worker in report.pruned_workers:
        print(f"pruned dead worker stats for {worker}")
    gc = report.gc
    print(f"reap: {len(report.dropped_leases)} lease(s) dropped, "
          f"{len(report.failed_points)} point(s) failed, "
          f"{len(report.pruned_workers)} worker record(s) pruned; "
          f"gc removed {len(gc.removed_checkpoints)} checkpoint(s) and "
          f"{len(gc.removed_telemetry)} telemetry series "
          f"({gc.bytes_reclaimed} bytes), kept {gc.kept_checkpoints} in flight")


# ----------------------------------------------------------------------
# Store maintenance (repro.analysis.store)
# ----------------------------------------------------------------------

def cmd_store_verify(args) -> None:
    store = ResultStore(args.dir)
    total = sum(
        1 for kind in store.entry_kinds()
        for _ in (store.root / kind).glob("*/*.json")
    )
    bad = store.verify()
    if not bad:
        print(f"{total} entries verified in {store.root}, all clean")
        return
    for path, reason in bad:
        print(f"CORRUPT {path}: {reason}")
    print(f"{len(bad)} corrupt of {total} entries in {store.root}")
    raise SystemExit(1)


def cmd_store_gc(args) -> None:
    store = ResultStore(args.dir)
    report = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for path in report.removed_checkpoints:
        print(f"{verb} orphaned checkpoint {path}")
    for path in report.removed_telemetry:
        print(f"{verb} orphaned telemetry {path}")
    print(f"gc: {verb} {len(report.removed_checkpoints)} checkpoint(s) and "
          f"{len(report.removed_telemetry)} telemetry series "
          f"({report.bytes_reclaimed} bytes); "
          f"kept {report.kept_checkpoints} potentially in-flight checkpoint(s)")


def cmd_store_stats(args) -> None:
    store = ResultStore(args.dir)
    stats = store.stats_by_kind()
    if not stats:
        print(f"empty or missing store at {store.root}")
        return
    table = Table(f"store {store.root}")
    for kind, (count, size) in stats.items():
        table.add(kind=kind, files=count, bytes=size)
    table.add(kind="total",
              files=sum(c for c, _ in stats.values()),
              bytes=sum(b for _, b in stats.values()))
    print(table.to_text())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="OFAR dragonfly reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, routing=True):
        p.add_argument("--h", type=int, default=2, help="dragonfly h (default 2)")
        p.add_argument("--paper", action="store_true",
                       help="use the paper's full h=6 configuration")
        p.add_argument("--seed", type=int, default=1)
        if routing:
            p.add_argument("--routing", default="ofar",
                           choices=["min", "val", "ugal", "pb", "par", "ofar", "ofar-l"])
        p.add_argument("--warmup", type=int, default=1000)
        p.add_argument("--measure", type=int, default=1200)

    p = sub.add_parser("info", help="topology facts and analytic bounds")
    p.add_argument("--h", type=int, default=6)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("sweep", help="steady-state load sweep",
                       parents=[orchestration_options()])
    common(p)
    p.add_argument("--pattern", default="UN")
    p.add_argument("--loads", default="0.1,0.2,0.3,0.4,0.5")
    p.add_argument("--saturating", action="store_true",
                   help="windowed-convergence protocol: repeat measurement "
                        "windows (--measure cycles each) until accepted "
                        "throughput stabilizes — robust past saturation")
    p.add_argument("--max-windows", type=int, default=12, metavar="N",
                   help="window budget for --saturating (default 12)")
    p.add_argument("--chart", action="store_true",
                   help="render an ASCII throughput chart after the table")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("transient", help="pattern-switch experiment")
    common(p)
    p.add_argument("--before", default="UN")
    p.add_argument("--after", default="ADV+2")
    p.add_argument("--load", type=float, default=0.14)
    p.add_argument("--bucket", type=int, default=50)
    p.set_defaults(func=cmd_transient)

    p = sub.add_parser("telemetry",
                       help="pattern-switch experiment with in-run telemetry")
    common(p)
    p.add_argument("--before", default="UN")
    p.add_argument("--after", default="ADV+2")
    p.add_argument("--load", type=float, default=0.14)
    p.add_argument("--bucket", type=int, default=50)
    p.add_argument("--interval", type=int, default=100,
                   help="telemetry sampling window in cycles (default 100)")
    p.add_argument("--out", default="telemetry.jsonl",
                   help="JSONL series output path (default telemetry.jsonl)")
    p.add_argument("--csv", default=None, metavar="FILE",
                   help="also export the flat CSV view")
    p.add_argument("--heatmap", action="store_true",
                   help="render router×time and group×group heatmaps")
    p.set_defaults(func=cmd_telemetry)

    p = sub.add_parser("burst", help="burst-consumption experiment")
    common(p)
    p.add_argument("--pattern", default="MIX1")
    p.add_argument("--packets", type=int, default=20,
                   help="packets per node in the burst")
    p.set_defaults(func=cmd_burst)

    p = sub.add_parser("interference",
                       help="multi-job bully/victim interference study",
                       parents=[orchestration_options()])
    p.add_argument("--scale", default="small",
                   choices=["tiny", "small", "medium", "large", "paper"])
    p.add_argument("--routings", default="min,ofar",
                   help="comma-separated routings to compare (default min,ofar)")
    p.add_argument("--bully-load", type=float, default=0.7)
    p.add_argument("--victim-load", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_interference)

    p = sub.add_parser(
        "snapshot",
        help="capture / inspect / diff simulator state snapshots",
        description="Deterministic checkpoint tooling (repro.snapshot): "
                    "capture a mid-run state, inspect or hash it, diff two "
                    "snapshots leaf-by-leaf, or bisect a determinism "
                    "divergence to the first differing cycle.",
    )
    snap_sub = p.add_subparsers(dest="snapshot_action", required=True)

    q = snap_sub.add_parser("capture", help="run a steady point and save its state")
    common(q)
    q.add_argument("--pattern", default="UN")
    q.add_argument("--load", type=float, default=0.2)
    q.add_argument("--at", type=int, default=500,
                   help="cycles to run before capturing (default 500)")
    q.add_argument("out", help="snapshot JSON output path")
    q.set_defaults(func=cmd_snapshot_capture)

    q = snap_sub.add_parser("inspect", help="summarize one snapshot file")
    q.add_argument("file")
    q.set_defaults(func=cmd_snapshot_inspect)

    q = snap_sub.add_parser("digest", help="behavioral content hash per file")
    q.add_argument("files", nargs="+")
    q.set_defaults(func=cmd_snapshot_digest)

    q = snap_sub.add_parser("diff", help="leaf-level diff of two snapshots "
                                         "(exit 1 when they differ)")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("--limit", type=int, default=25,
                   help="max differing leaves to print (default 25)")
    q.set_defaults(func=cmd_snapshot_diff)

    q = snap_sub.add_parser(
        "bisect",
        help="lockstep-run two same-cycle snapshots to the first "
             "divergent cycle (exit 1 when one is found)")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("--max-cycles", type=int, default=2_000)
    q.add_argument("--check-every", type=int, default=1,
                   help="digest every N cycles (default 1)")
    q.set_defaults(func=cmd_snapshot_bisect)

    p = sub.add_parser(
        "scenario",
        help="cluster scenarios: schedule / run a churn+fault scenario",
        description="Cluster scenarios (repro.cluster): a YAML/JSON "
                    "ScenarioSpec describes job arrivals, a weighted job "
                    "mix, a scheduler (fcfs/easy), a placement policy and "
                    "a link fault/repair schedule; 'schedule' compiles the "
                    "job timeline without touching the network, 'run' "
                    "executes it and reports per-job outcomes and fault "
                    "blast radii.",
    )
    scen_sub = p.add_subparsers(dest="scenario_action", required=True)

    q = scen_sub.add_parser(
        "schedule", help="compile the job timeline (no network simulation)")
    q.add_argument("file", help="ScenarioSpec YAML/JSON file")
    q.add_argument("--h", type=int, default=2, help="dragonfly h (default 2)")
    q.set_defaults(func=cmd_scenario_schedule)

    q = scen_sub.add_parser(
        "run", help="execute the scenario on the network")
    q.add_argument("file", help="ScenarioSpec YAML/JSON file")
    q.add_argument("--h", type=int, default=2, help="dragonfly h (default 2)")
    q.add_argument("--paper", action="store_true",
                   help="use the paper's full h=6 configuration")
    q.add_argument("--seed", type=int, default=1)
    q.add_argument("--routing", default="ofar",
                   choices=["min", "val", "ugal", "pb", "par", "ofar", "ofar-l"])
    q.add_argument("--store", default=None, metavar="DIR",
                   help="cache the full ScenarioResult in this result store")
    q.set_defaults(func=cmd_scenario_run)

    p = sub.add_parser(
        "campaign",
        help="declarative campaign files: validate / expand / run",
        description="Declarative campaigns (repro.campaign): a YAML/JSON "
                    "file with inherits: deep-merge, a cartesian "
                    "combination: grid, seeds:/replications: replication "
                    "and post: emitters, compiled to a RunSpec grid and "
                    "executed through the orchestrator + result store.",
    )
    camp_sub = p.add_subparsers(dest="campaign_action", required=True)

    def campaign_common(q):
        q.add_argument("file", help="campaign YAML/JSON file")
        q.add_argument("--scale", default=None, choices=sorted(
            ["tiny", "small", "medium", "large", "paper"]),
            help="override the campaign file's scale preset")

    q = camp_sub.add_parser(
        "run", help="execute a campaign and evaluate its post emitters",
        parents=[orchestration_options()])
    campaign_common(q)
    q.add_argument("--out", default=None, metavar="DIR",
                   help="also save each emitted table as CSV under DIR")
    q.set_defaults(func=cmd_campaign_run)

    q = camp_sub.add_parser(
        "expand", help="print the compiled point grid (stable order)")
    campaign_common(q)
    q.set_defaults(func=cmd_campaign_expand)

    q = camp_sub.add_parser(
        "validate", help="load, inherit and type-check a campaign file")
    campaign_common(q)
    q.set_defaults(func=cmd_campaign_validate)

    p = sub.add_parser(
        "fabric",
        help="distributed campaign draining: work / status / watch / "
             "serve / reap",
        description="Lease-based distributed sweeps (repro.fabric): start "
                    "'fabric work' for the same campaign and store on any "
                    "number of hosts that see the store directory; workers "
                    "coordinate through lease files alone — the store is "
                    "the only shared state, there is no server.  For hosts "
                    "that cannot share a directory, 'fabric serve' puts "
                    "the same protocol behind an HTTP socket and workers "
                    "join with --coordinator URL.",
    )
    fab_sub = p.add_subparsers(dest="fabric_action", required=True)

    q = fab_sub.add_parser(
        "work",
        help="run one fabric worker until the campaign is drained",
        parents=[orchestration_options()])
    campaign_common(q)
    q.add_argument("--poll", type=float, default=1.0, metavar="SECONDS",
                   help="seconds between queue re-scans while peers hold "
                        "every remaining point (default 1)")
    q.add_argument("--max-points", type=int, default=None, metavar="N",
                   help="stop after resolving N points (default: drain "
                        "the whole campaign)")
    q.set_defaults(func=cmd_fabric_work)

    def fabric_common(q, attempts=False):
        campaign_common(q)
        q.add_argument("--store", default=None, metavar="DIR",
                       help=f"shared store directory (default {DEFAULT_STORE!r})")
        q.add_argument("--lease-ttl", type=float, default=60.0,
                       metavar="SECONDS",
                       help="staleness threshold for leases (default 60; "
                            "match the workers' setting)")
        q.add_argument("--coordinator", default=None, metavar="URL",
                       help="observe through a 'repro fabric serve' "
                            "coordinator instead of a shared directory")
        if attempts:
            q.add_argument("--max-attempts", type=int, default=3, metavar="N",
                           help="fleet-wide attempt budget per point "
                                "(default 3; match the workers' setting)")

    q = fab_sub.add_parser(
        "status", help="fleet progress, per-worker stats and live leases")
    fabric_common(q)
    q.set_defaults(func=cmd_fabric_status)

    q = fab_sub.add_parser(
        "watch",
        help="live-refreshing fleet dashboard (exits when drained)")
    fabric_common(q)
    q.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                   help="seconds between dashboard refreshes (default 2)")
    q.set_defaults(func=cmd_fabric_watch)

    q = fab_sub.add_parser(
        "serve",
        help="run the HTTP coordinator for fleets without a shared "
             "filesystem",
        description="Serve the lease protocol and store traffic over "
                    "HTTP (repro.fabric.coordinator): workers connect "
                    "with --coordinator URL; all state lives in the "
                    "store directory on this host's disk, so a restart "
                    "recovers the full fleet state and 'repro store' / "
                    "'repro fabric status' work against it unchanged.")
    q.add_argument("--store", default=None, metavar="DIR",
                   help=f"store directory to serve (default {DEFAULT_STORE!r})")
    q.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1; use 0.0.0.0 "
                        "for other hosts)")
    q.add_argument("--port", type=int, default=8642,
                   help="bind port (default 8642)")
    q.add_argument("-v", "--verbose", action="store_true",
                   help="log every request to stderr")
    q.set_defaults(func=cmd_fabric_serve)

    q = fab_sub.add_parser(
        "reap",
        help="clean up after dead workers (stale leases, orphaned files)")
    fabric_common(q, attempts=True)
    q.set_defaults(func=cmd_fabric_reap)

    p = sub.add_parser(
        "store",
        help="result-store maintenance: verify / gc / stats",
        description="Maintenance for result-store directories "
                    "(repro.analysis.store): re-hash every cached entry "
                    "against its filename, sweep orphaned snapshot "
                    "checkpoints and telemetry series, and summarize disk "
                    "usage by entry kind.",
    )
    store_sub = p.add_subparsers(dest="store_action", required=True)

    q = store_sub.add_parser(
        "verify",
        help="re-hash every cached entry (exit 1 if any is corrupt)")
    q.add_argument("dir", nargs="?", default=DEFAULT_STORE,
                   help=f"store directory (default {DEFAULT_STORE!r})")
    q.set_defaults(func=cmd_store_verify)

    q = store_sub.add_parser(
        "gc", help="delete orphaned snapshot checkpoints and telemetry")
    q.add_argument("dir", nargs="?", default=DEFAULT_STORE,
                   help=f"store directory (default {DEFAULT_STORE!r})")
    q.add_argument("--dry-run", action="store_true",
                   help="report what would be removed without deleting")
    q.set_defaults(func=cmd_store_gc)

    q = store_sub.add_parser(
        "stats", help="file counts and bytes per store kind")
    q.add_argument("dir", nargs="?", default=DEFAULT_STORE,
                   help=f"store directory (default {DEFAULT_STORE!r})")
    q.set_defaults(func=cmd_store_stats)

    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
