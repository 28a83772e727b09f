"""The two run-layer workloads — ``campaign_grid`` (``repro campaign
run --workers 2`` on a fresh store, then again for 100 % cache hits)
and ``fabric_http`` (``repro fabric serve`` plus two ``repro fabric
work`` processes) — and the run-layer probes of their traced runs.

Both drain the same generated campaign file, so they differ only in the
run layer.  The program is driven through its command line; the
benchmark reads the stores it leaves behind through ``ResultStore``.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import time
from contextlib import nullcontext
from time import perf_counter

import harness
from harness import Outcome
from spans import Tracer, check_self_times

COUNTS = re.compile(r"\[campaign \S+\] (\d+) points: (\d+) run, (\d+) cached, (\d+) failed")
#: One pass of either command may take this long before its points fail.
PASS_TIMEOUT_S = 90.0


def median_ms(fn, items) -> float:
    """Median milliseconds of ``fn(item)`` over ``items``."""
    times = []
    for item in items:
        t0 = perf_counter()
        fn(item)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


class GridWorkload:
    """What ``campaign_grid`` and ``fabric_http`` share: the generated
    campaign file, its expanded specs, the bare reference and the store
    check."""

    def __init__(self, defn: dict, seed: int, check: bool, scratch: harness.Scratch):
        self.defn = defn
        self.seed = seed
        self.check = check
        self.scratch = scratch

    def setup(self) -> None:
        from repro.campaign import load_campaign

        mapping = json.loads(
            (harness.WORKLOADS / self.defn["grid"]).read_text()
        )
        if self.check:
            mapping["combination"] = self.defn["check"]["combination"]
        # The program never sees --seed, only the campaign file made from it.
        mapping["config"]["seed"] = self.seed
        self.grid = self.scratch.path("grid.json")
        self.grid.write_text(json.dumps(mapping, indent=1))
        self.campaign = load_campaign(self.grid)
        self.points = self.campaign.expand()
        self.specs = [p.spec for p in self.points]
        self.cycles = sum(s.warmup + s.measure for s in self.specs)

    # ------------------------------------------------------------------
    def bare(self, full: bool) -> dict:
        """Reference results from plain in-process ``run_spec``:
        ``{"points": fp -> LoadPoint, "wall_s", "cpu_s"}``.  Untraced
        runs take every fourth point (which fourth depends on the seed)
        to leave the time budget to the repeats."""
        from repro.engine.runner import run_spec

        step = 1 if full or self.check else 4
        cpu0, t0 = harness.cpu_now(), perf_counter()
        points = {
            spec.fingerprint(): run_spec(spec)
            for i, spec in enumerate(self.specs) if i % step == self.seed % step
        }
        return {"points": points, "wall_s": perf_counter() - t0,
                "cpu_s": harness.cpu_now() - cpu0}

    def read_store(self, out: Outcome, root, what: str) -> dict:
        """fp -> LoadPoint for every spec; a missing entry is a failed point."""
        from repro.analysis.store import ResultStore

        store = ResultStore(root)
        found = {}
        out.attempted += len(self.specs)
        for spec in self.specs:
            point = store.get(spec)
            if point is None:
                out.fail(1, f"{what}: no result for {spec.label()} seed {spec.config.seed}")
            else:
                found[spec.fingerprint()] = point
        return found

    def compare(self, out: Outcome, found: dict, reference: dict, what: str) -> None:
        """Byte-identity of LoadPoints per fingerprint."""
        for fp, point in reference.items():
            if fp in found and found[fp].to_json() != point.to_json():
                out.fail(1, f"{what}: LoadPoint {fp[:12]} differs")

    def digest(self, found: dict) -> str:
        return harness.stats_digest([
            found[fp].to_json() if fp in found else "missing"
            for fp in (s.fingerprint() for s in self.specs)
        ])

    def expect_counts(self, out: Outcome, code: int, text: str, run: int, cached: int,
                      what: str) -> None:
        match = COUNTS.search(text)
        got = tuple(int(g) for g in match.groups()) if match else None
        if code != 0 or got != (len(self.specs), run, cached, 0):
            out.fail(len(self.specs), f"{what}: exit {code}, counts {got}, wanted "
                                      f"{run} run, {cached} cached, 0 failed")

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        stores = [self.repeat(out, i) for i in harness.laps(seconds, self.check)]
        self.verify(out, stores, self.bare(full=False)["points"])
        return out

    def verify(self, out: Outcome, stores: list[dict], reference: dict) -> None:
        for i, found in enumerate(stores):
            self.compare(out, found, stores[0], f"repeat {i} vs repeat 0")
            self.compare(out, found, reference, f"repeat {i} vs bare run_spec")
        out.digest = self.digest(stores[0])

    def add_rates(self, out: Outcome, wall: float, cpu: float) -> None:
        out.add("wall_s", wall)
        out.add("cpu_s", cpu)
        out.add("sim_cycles_per_s", self.cycles / wall)
        out.add("points_per_s", len(self.specs) / wall)


class CampaignGrid(GridWorkload):
    def repeat(self, out: Outcome, index: int, tracer: Tracer | None = None) -> dict:
        span = tracer.span if tracer else (lambda name: nullcontext())
        store = self.scratch.path(f"r{index}", "store")
        outdir = self.scratch.path(f"r{index}", "out")
        cmd = harness.repro_cmd(
            "campaign", "run", str(self.grid), "--store", str(store),
            "--workers", str(self.defn["workers"]), "--out", str(outdir),
        )
        with span("cli.campaign_run.fresh"):
            cpu0, t0 = harness.cpu_now(), perf_counter()
            code, text = self.scratch.run(cmd, PASS_TIMEOUT_S)
            wall, cpu = perf_counter() - t0, harness.cpu_now() - cpu0
        self.expect_counts(out, code, text, len(self.specs), 0, "fresh pass")
        self.add_rates(out, wall, cpu)
        with span("cli.campaign_run.resume"):
            t0 = perf_counter()
            code, text = self.scratch.run(cmd, PASS_TIMEOUT_S)
            out.add("resume_s", perf_counter() - t0)
        self.expect_counts(out, code, text, 0, len(self.specs), "resume pass")
        for emitter in self.campaign.post:
            if not (outdir / f"{self.campaign.name}_{emitter}.csv").is_file():
                out.fail(len(self.specs), f"fresh pass wrote no {emitter} table")
        return self.read_store(out, store, f"--workers store r{index}")

    # ------------------------------------------------------------------
    def trace(self, tracer: Tracer) -> Outcome:
        from repro.analysis.store import ResultStore
        from repro.campaign import CampaignRun, emit, load_campaign
        from repro.engine.orchestrator import Orchestrator

        out = Outcome()
        layer = out.layer
        root = f"workload:{self.defn['name']}"
        with tracer.span(root):
            found = self.repeat(out, 0, tracer)
            with tracer.span("probe:bare_run_spec"):
                bare = self.bare(full=True)
            self.verify(out, [found], bare["points"])
            n = len(self.specs)
            layer["orchestrator.cpu_overhead_ms_per_point"] = (
                1e3 * (out.samples["cpu_s"][0] - bare["cpu_s"]) / n
            )
            layer["orchestrator.parallel_efficiency"] = bare["wall_s"] / (
                self.defn["workers"] * out.samples["wall_s"][0]
            )
            points = bare["points"]
            lookup = lambda spec: points[spec.fingerprint()]  # noqa: E731
            with tracer.span("probe:orchestrator_inproc"):
                t0 = perf_counter()
                Orchestrator(
                    workers=0, store=ResultStore(self.scratch.path("inproc")),
                    worker=lookup,
                ).run_points(self.specs)
                layer["orchestrator.inproc.overhead_ms_per_point"] = (
                    1e3 * (perf_counter() - t0) / n
                )
            with tracer.span("probe:store"):
                store = ResultStore(self.scratch.path("probe-store"))
                fps = [s.fingerprint() for s in self.specs]
                layer["analysis.store.put_ms"] = median_ms(
                    lambda s: store.put(s, lookup(s)), self.specs)
                layer["analysis.store.get_ms"] = median_ms(store.get, self.specs)
                layer["analysis.store.resolved_many_ms"] = median_ms(
                    store.resolved_many, [fps] * 5)
                layer["engine.runspec.fingerprint_us"] = 1e3 * median_ms(
                    lambda s: s.fingerprint(), self.specs)
                layer["engine.loadpoint.serialize_us"] = 1e3 * median_ms(
                    lambda s: lookup(s).to_json(), self.specs)
            with tracer.span("probe:campaign"):
                layer["campaign.load_expand_ms"] = median_ms(
                    lambda path: load_campaign(path).expand(), [self.grid] * 5)
                run = CampaignRun(
                    self.campaign, self.points, [lookup(s) for s in self.specs],
                    {"total": n, "done": n, "cached": 0, "failed": 0},
                )
                layer["campaign.emit_ms"] = median_ms(emit, [run] * 5)
            with tracer.span("probe:cli_startup"):
                layer["cli.startup_ms"] = median_ms(
                    lambda cmd: self.scratch.run(cmd, PASS_TIMEOUT_S),
                    [harness.repro_cmd("--help")] * 3)
        fresh = tracer.named("cli.campaign_run.fresh")[0]
        layer["trace.overhead_ratio"] = (
            (fresh["end"] - fresh["start"]) / out.samples["wall_s"][0]
        )
        check_self_times(out, tracer, root)
        return out


class FabricHttp(GridWorkload):
    def setup(self) -> None:
        super().setup()
        self.coordinator = self.start_coordinator("r0")

    def start_coordinator(self, tag: str):
        """``repro fabric serve`` on an OS-chosen port; returns
        ``(process, url, store root)`` once ``/api/v1/ping`` answers."""
        from repro.fabric.coordinator import CoordinatorClient

        store = self.scratch.path(tag, "cs")
        proc = self.scratch.spawn(
            harness.repro_cmd("fabric", "serve", "--store", str(store), "--port", "0"),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        match = re.search(r"http://[\w.:]+", proc.stdout.readline())
        if match is None:
            raise harness.BenchError("the coordinator did not announce its address")
        CoordinatorClient(match.group(0), timeout=2.0, retry_window=20.0).ping()
        return proc, match.group(0), store

    def repeat(self, out: Outcome, index: int, tracer: Tracer | None = None) -> dict:
        span = tracer.span if tracer else (lambda name: nullcontext())
        if index:
            with span("fabric.coordinator.up"):
                self.coordinator = self.start_coordinator(f"r{index}")
        proc, url, store = self.coordinator
        n = len(self.specs)
        try:
            with span("fabric.http.drain"):
                cpu0 = harness.cpu_now() + harness.live_cpu(proc.pid)
                t0 = perf_counter()
                workers = [
                    self.scratch.spawn(
                        harness.repro_cmd(
                            "fabric", "work", str(self.grid),
                            "--store", str(self.scratch.path(f"r{index}", f"sp{w}")),
                            "--coordinator", url, "--worker-id", f"w{w}",
                        ),
                        stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL,
                    )
                    for w in range(self.defn["workers"])
                ]
                exits: dict[int, float] = {}
                while len(exits) < len(workers):
                    for w, worker in enumerate(workers):
                        if w not in exits and worker.poll() is not None:
                            exits[w] = perf_counter()
                    if perf_counter() - t0 > PASS_TIMEOUT_S:
                        raise harness.WorkloadTimeout("fabric workers did not finish")
                    time.sleep(0.002)
                wall = max(exits.values()) - t0
                cpu = harness.cpu_now() + harness.live_cpu(proc.pid) - cpu0
            texts = [worker.stdout.read() for worker in workers]
            if any(worker.returncode for worker in workers):
                out.fail(n, f"fabric worker exit codes {[w.returncode for w in workers]}")
            self.add_rates(out, wall, cpu)
            executed = sum(int(m) for t in texts for m in re.findall(r"executed (\d+)", t))
            lost = sum(int(m) for t in texts
                       for m in re.findall(r"(\d+) lease renewal\(s\) lost", t))
            out.layer["fabric.http.executions_per_point"] = executed / n
            out.layer["fabric.http.tail_idle_s"] = max(exits.values()) - min(exits.values())
            out.layer["fabric.http.lost_renewals"] = lost
            # The second pass: collect the finished tables through the
            # coordinator, every point served from its store.
            cmd = harness.repro_cmd(
                "campaign", "run", str(self.grid), "--coordinator", url,
                "--store", str(self.scratch.path(f"r{index}", "spc")),
                "--out", str(self.scratch.path(f"r{index}", "out")),
            )
            with span("cli.campaign_run.resume"):
                t0 = perf_counter()
                code, text = self.scratch.run(cmd, PASS_TIMEOUT_S)
                out.add("resume_s", perf_counter() - t0)
            self.expect_counts(out, code, text, 0, n, "table pass over the coordinator")
        finally:
            self.scratch.stop(proc)
        return self.read_store(out, store, f"coordinator store r{index}")

    # ------------------------------------------------------------------
    def trace(self, tracer: Tracer) -> Outcome:
        from repro.analysis.store import ResultStore
        from repro.fabric import LeaseManager, WorkQueue, drain
        from repro.fabric.coordinator import open_coordinator

        out = Outcome()
        layer = out.layer
        root = f"workload:{self.defn['name']}"
        n = len(self.specs)
        with tracer.span(root):
            found = self.repeat(out, 0, tracer)
            with tracer.span("probe:bare_run_spec"):
                self.verify(out, [found], self.bare(full=False)["points"])
            if len(found) < n:
                return out  # the probes replay the drained points
            lookup = lambda spec: found[spec.fingerprint()]  # noqa: E731
            fps = [s.fingerprint() for s in self.specs]

            with tracer.span("probe:fabric_file"):
                store = ResultStore(self.scratch.path("file-fabric"))
                t0 = perf_counter()
                drain(self.specs, store, worker_id="probe", execute=lookup)
                layer["fabric.file.overhead_ms_per_point"] = 1e3 * (perf_counter() - t0) / n
                leases = LeaseManager(store.root, "probe")
                held = {}
                layer["fabric.file.claim_ms"] = median_ms(
                    lambda fp: held.__setitem__(fp, leases.try_claim(fp)), fps)
                layer["fabric.file.renew_ms"] = median_ms(
                    lambda fp: leases.renew(held[fp]), fps)
                layer["fabric.file.release_ms"] = median_ms(
                    lambda fp: leases.release(held[fp]), fps)
                queue = WorkQueue(self.specs, store, worker_id="probe")
                layer["fabric.queue.status_ms"] = median_ms(
                    lambda _: queue.status(), range(5))

            with tracer.span("probe:fabric_http"):
                proc, url, _ = self.start_coordinator("probe")
                try:
                    remote, http = open_coordinator(
                        url, self.scratch.path("probe", "spool"), worker_id="probe")
                    calls = {"n": 0, "bytes": 0}
                    call = remote.client.call

                    def counted(route, body=None):
                        reply = call(route, body)
                        calls["n"] += 1
                        calls["bytes"] += len(json.dumps(reply)) + (
                            len(json.dumps(body)) if body is not None else 0)
                        return reply

                    remote.client.call = counted
                    try:
                        drain(self.specs, remote, leases=http, execute=lookup)
                    finally:
                        del remote.client.call
                    layer["fabric.http.round_trips_per_point"] = calls["n"] / n
                    layer["fabric.http.bytes_per_point"] = calls["bytes"] / n
                    held = {}
                    layer["fabric.http.claim_ms"] = median_ms(
                        lambda fp: held.__setitem__(fp, http.try_claim(fp)), fps)
                    layer["fabric.http.renew_ms"] = median_ms(
                        lambda fp: http.renew(held[fp]), fps)
                    layer["fabric.http.release_ms"] = median_ms(
                        lambda fp: http.release(held[fp]), fps)
                    layer["fabric.http.upload_ms"] = median_ms(
                        lambda s: remote.put(s, lookup(s)), self.specs)
                finally:
                    self.scratch.stop(proc)
        spanned = tracer.named("fabric.http.drain")[0]
        layer["trace.overhead_ratio"] = (
            (spanned["end"] - spanned["start"]) / out.samples["wall_s"][0]
        )
        check_self_times(out, tracer, root)
        return out
