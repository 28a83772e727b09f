"""The HTTP coordinator: lease parity, remote store, restart recovery.

The contract under test is mode equivalence: a fleet coordinated
through ``repro fabric serve`` must behave exactly like one sharing a
store directory — same lease semantics (exclusivity, staleness,
attempt budgets), same store contents (fingerprint/byte-identical
entries), same observability — and must additionally survive the
coordinator being SIGKILLed and restarted mid-drain (all state is on
its disk) with workers backing off and resuming on their own.
"""

import dataclasses
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.store import ResultStore
from repro.engine.config import SimulationConfig
from repro.engine.runner import run_spec
from repro.engine.runspec import RunSpec
from repro.fabric import FAILURE_KIND, WorkQueue, affinity_group, drain, fleet_status, reap
from repro.fabric.coordinator import (
    CoordinatorError,
    CoordinatorUnreachable,
    CoordinatorClient,
    FabricCoordinator,
    HTTPLeaseManager,
    RemoteStore,
    open_coordinator,
)
from repro.fabric.watch import render_frame, watch

SRC = str(Path(repro.__file__).resolve().parents[1])


def spec(load=0.2, seed=3, routing="min") -> RunSpec:
    return RunSpec(
        SimulationConfig.small(h=2, routing=routing, seed=seed), "UN", load,
        warmup=100, measure=100,
    )


def grid(n=4) -> list[RunSpec]:
    return [spec(load=round(0.1 * (i + 1), 2)) for i in range(n)]


def entries(root) -> dict:
    """fingerprint -> entry with the wall-clock metadata dropped."""
    out = {}
    for path in sorted(Path(root).glob("objects/*/*.json")):
        entry = json.loads(path.read_text())
        entry.pop("created", None)
        entry.pop("wall_time", None)
        out[path.stem] = entry
    return out


@pytest.fixture
def coord(tmp_path):
    """An in-process coordinator serving ``tmp_path / 'coord'``."""
    server = FabricCoordinator(tmp_path / "coord", port=0)
    server.start_background()
    yield server
    server.shutdown()
    server.server_close()


def managers(coord, *workers, ttl=60.0, retry_window=3.0):
    client = CoordinatorClient(coord.url, retry_window=retry_window)
    return [HTTPLeaseManager(client, worker_id=w, ttl=ttl) for w in workers]


# ----------------------------------------------------------------------
# Lease protocol over the socket: parity with the file backend
# ----------------------------------------------------------------------

class TestHTTPLeaseProtocol:
    def test_claim_is_exclusive(self, coord):
        a, b = managers(coord, "a", "b")
        lease = a.try_claim("ff00", label="pt")
        assert (lease.worker, lease.attempt, lease.label) == ("a", 1, "pt")
        assert b.try_claim("ff00") is None
        assert b.try_claim("ff01") is not None

    def test_lease_lands_in_server_store_layout(self, coord):
        (a,) = managers(coord, "a")
        a.try_claim("ff00", label="pt", group="aabbccdd1122")
        # Byte-for-byte the file backend's lease file, on the server disk.
        from repro.fabric import LeaseManager, lease_path, read_lease

        on_disk = read_lease(lease_path(coord.store_root, "ff00"))
        assert on_disk.worker == "a"
        assert on_disk.group == "aabbccdd1122"
        # ...and the file backend over the same root sees it as its own.
        assert LeaseManager(coord.store_root, "a").current("ff00").worker == "a"

    def test_release_frees_the_point(self, coord):
        a, b = managers(coord, "a", "b")
        lease = a.try_claim("ff00")
        assert a.release(lease) is True
        assert b.try_claim("ff00") is not None

    def test_release_refuses_foreign_lease(self, coord):
        a, b = managers(coord, "a", "b")
        lease = a.try_claim("ff00")
        foreign = dataclasses.replace(lease, worker="b")
        assert b.release(foreign) is False
        assert a.current("ff00").worker == "a"

    def test_renew_refreshes_and_loss_returns_none(self, coord):
        a, b = managers(coord, "a", "b")
        lease = a.try_claim("ff00")
        renewed = a.renew(lease)
        assert renewed.heartbeat >= lease.heartbeat
        a.drop("ff00")
        assert a.renew(renewed) is None

    def test_stale_lease_reclaimed_with_attempt_carried(self, coord):
        a, b = managers(coord, "a", "b", ttl=0.1)
        stale = a.try_claim("ff00", label="pt")
        time.sleep(0.25)
        taken = b.reclaim(stale)
        assert taken is not None
        assert (taken.worker, taken.attempt, taken.label) == ("b", 2, "pt")

    def test_fresh_lease_cannot_be_reclaimed_by_skewed_clock(self, coord):
        # A client whose clock says the lease is ancient still cannot
        # steal it: the coordinator re-judges staleness on its own clock.
        a, b = managers(coord, "a", "b", ttl=60.0)
        lease = a.try_claim("ff00")
        skewed = dataclasses.replace(lease, heartbeat=lease.heartbeat - 3600)
        assert b.reclaim(skewed) is None
        assert a.current("ff00").worker == "a"

    def test_leases_map_is_the_full_table(self, coord):
        a, b = managers(coord, "a", "b")
        a.try_claim("ff00")
        b.try_claim("ff01")
        table = a.leases_map()
        assert set(table) == {"ff00", "ff01"}
        assert table["ff01"].worker == "b"

    def test_worker_stats_round_trip(self, coord):
        a, b = managers(coord, "a", "b")
        a.put_worker_stats("a", {"worker": "a", "done": 3})
        b.put_worker_stats("b", {"worker": "b", "done": 1})
        listed = {s["worker"]: s for s in a.list_worker_stats()}
        assert listed["a"]["done"] == 3
        assert a.prune_worker("b") is True
        assert [s["worker"] for s in a.list_worker_stats()] == ["a"]

    def test_unreachable_coordinator_raises_after_window(self, tmp_path):
        client = CoordinatorClient("http://127.0.0.1:9", retry_window=0.3)
        manager = HTTPLeaseManager(client, worker_id="a")
        t0 = time.monotonic()
        with pytest.raises(CoordinatorUnreachable):
            manager.try_claim("ff00")
        assert time.monotonic() - t0 >= 0.3

    def test_protocol_mismatch_is_an_error(self, coord):
        client = CoordinatorClient(coord.url, retry_window=1.0)
        reply = client.call("ping")
        assert reply["ok"] is True
        with pytest.raises(CoordinatorError):
            client.call("no_such_route", {})


# ----------------------------------------------------------------------
# RemoteStore: authoritative reads/writes over the wire, local spool
# ----------------------------------------------------------------------

class TestRemoteStore:
    def test_put_get_round_trip(self, coord, tmp_path):
        store, _ = open_coordinator(coord.url, tmp_path / "spool",
                                    retry_window=3.0)
        s = spec()
        point = run_spec(s)
        store.put(s, point, wall_time=1.5)
        got = store.get(s)
        assert dataclasses.asdict(got) == dataclasses.asdict(point)
        # The entry lives in the coordinator's store, not the spool.
        server_store = ResultStore(coord.store_root)
        assert server_store.has(s.fingerprint())
        assert not (tmp_path / "spool" / "objects").exists()

    def test_resolved_many_states(self, coord, tmp_path):
        store, _ = open_coordinator(coord.url, tmp_path / "spool",
                                    retry_window=3.0)
        done, failed, pending = grid(3)
        store.put(done, run_spec(done))
        store.put_sidecar(FAILURE_KIND, failed, {"error": "x", "attempts": 3})
        resolved = store.resolved_many(
            [s.fingerprint() for s in (done, failed, pending)], FAILURE_KIND
        )
        assert list(resolved.values()) == ["result", "failure", None]
        assert store.has(done.fingerprint())
        assert store.has_sidecar(FAILURE_KIND, failed.fingerprint())

    def test_spooled_sidecars_ship_with_the_result(self, coord, tmp_path):
        spool = tmp_path / "spool"
        store, _ = open_coordinator(coord.url, spool, retry_window=3.0)
        s = spec()
        # The execution layer stages provenance sidecars in the spool
        # through a plain local ResultStore (exactly what
        # execute_outcome does with its store_root)...
        ResultStore(spool).put_sidecar("workloads", s, {"kind": "synthetic"})
        store.put(s, run_spec(s))
        # ...and put ships them: the coordinator's store has both.
        server_store = ResultStore(coord.store_root)
        assert server_store.get_sidecar("workloads", s) == {"kind": "synthetic"}
        assert server_store.get(s) is not None

    def test_failure_sidecar_goes_straight_to_the_coordinator(
        self, coord, tmp_path
    ):
        store, _ = open_coordinator(coord.url, tmp_path / "spool",
                                    retry_window=3.0)
        s = spec()
        store.put_sidecar(FAILURE_KIND, s, {"error": "boom", "attempts": 3})
        assert ResultStore(coord.store_root).get_sidecar(FAILURE_KIND, s) == {
            "error": "boom", "attempts": 3,
        }
        assert store.get_sidecar(FAILURE_KIND, s)["error"] == "boom"


# ----------------------------------------------------------------------
# get_many: a whole readback in one call, the same answers as n gets
# ----------------------------------------------------------------------

def _mixed_store(root) -> list[RunSpec]:
    """Five specs over ``root``: hit, missing, corrupt, hit, and a valid
    entry filed under a foreign fingerprint (spec mismatch)."""
    hit_a, missing, corrupt, hit_b, foreign = [spec(seed=s) for s in range(5)]
    store = ResultStore(root)
    point = run_spec(hit_a)  # the store does not check point against spec
    for s in (hit_a, hit_b, corrupt):
        store.put(s, point)
    store.path_for(corrupt.fingerprint()).write_text("{ not json")
    target = store.path_for(foreign.fingerprint())
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(store.path_for(hit_a.fingerprint()).read_text())
    return [hit_a, missing, corrupt, hit_b, foreign]


class TestGetMany:
    @pytest.fixture(params=["file", "remote"])
    def make_store(self, request, tmp_path):
        """``(store root to fill, factory of a fresh reading store)``."""
        if request.param == "file":
            return tmp_path / "st", lambda: ResultStore(tmp_path / "st")
        coord = request.getfixturevalue("coord")
        return coord.store_root, lambda: open_coordinator(
            coord.url, tmp_path / "spool", retry_window=3.0)[0]

    def test_spec_order_misses_and_stats_match_n_gets(self, make_store):
        root, fresh = make_store
        specs = _mixed_store(root)
        one_by_one, batched = fresh(), fresh()
        expected = [one_by_one.get(s) for s in specs]
        got = batched.get_many(specs)
        assert [p is None for p in got] == [False, True, True, False, True]
        assert got == expected
        assert batched.stats == one_by_one.stats
        assert (batched.stats.hits, batched.stats.misses) == (2, 3)
        assert batched.get_many([]) == []
        for store in (one_by_one, batched):
            if isinstance(store, RemoteStore):
                store.client.close()

    def test_server_side_stats_match_n_gets(self, coord, tmp_path):
        specs = _mixed_store(coord.store_root)
        store, _ = open_coordinator(coord.url, tmp_path / "spool", retry_window=3.0)
        served = coord.routes.store.stats
        for s in specs:
            store.get(s)
        by_gets = dataclasses.replace(served)
        store.get_many(specs)
        assert (served.hits, served.misses, served.corrupt) == (
            2 * by_gets.hits, 2 * by_gets.misses, 2 * by_gets.corrupt)
        assert (by_gets.hits, by_gets.misses, by_gets.corrupt) == (2, 3, 2)
        store.client.close()

    def test_body_without_specs_is_a_400(self, coord):
        client = CoordinatorClient(coord.url, retry_window=1.0)
        with pytest.raises(CoordinatorError, match="HTTP 400"):
            client.call("get_many", {})
        # The kept-alive connection still serves the next call, also
        # after a reply sent before the route could read the body.
        assert client.call("ping")["ok"] is True
        with pytest.raises(CoordinatorError, match="HTTP 404"):
            client.call("no_such_route", {"specs": []})
        assert client.call("ping")["ok"] is True
        client.close()

    def test_readback_with_the_coordinator_gone_costs_one_window(self, tmp_path):
        window = 0.5
        server = FabricCoordinator(tmp_path / "coord", port=0)
        server.start_background()
        store, leases = open_coordinator(
            server.url, tmp_path / "spool", worker_id="w1", retry_window=window)
        server.shutdown()
        server.server_close()
        specs = [spec(seed=s) for s in range(20)]
        t0 = time.monotonic()
        results, summary = drain(specs, store, leases=leases, poll=0.05)
        # One window for the queue scan, one for the batched readback.
        assert time.monotonic() - t0 < 4 * window
        assert summary.backend_error != ""
        assert [r.status for r in results] == ["failed"] * 20
        assert all("backend unreachable" in r.error for r in results)


# ----------------------------------------------------------------------
# Transport: kept-alive connections, threads, a stopped coordinator
# ----------------------------------------------------------------------

class TestTransport:
    def test_sequential_calls_are_not_stalled_by_delayed_ack(self, coord):
        client = CoordinatorClient(coord.url, retry_window=1.0)
        client.ping()
        t0 = time.monotonic()
        for _ in range(50):
            client.ping()
        # Nagle on the server's two-write replies costs ~44 ms per call.
        assert time.monotonic() - t0 < 1.0
        client.close()

    def test_threads_on_one_client_get_their_own_replies(self, coord):
        # A worker's main thread and its lease heartbeat share a client;
        # four threads (more than this suite's two cores) with a short
        # switch interval make any shared-connection mix-up show.
        client = CoordinatorClient(coord.url, retry_window=3.0)
        errors = []

        def ask(worker, fingerprint):
            manager = HTTPLeaseManager(client, worker_id=worker)
            try:
                lease = manager.try_claim(fingerprint)
                for _ in range(50):
                    assert manager.current(fingerprint).worker == worker
                    assert manager.renew(lease).fingerprint == fingerprint
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=ask, args=(f"w{i}", f"ff0{i}"))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(client._idle) <= len(threads)  # one per concurrent caller
        client.close()

    def test_stopped_coordinator_stops_answering_open_connections(self, tmp_path):
        server = FabricCoordinator(tmp_path / "coord", port=0)
        server.start_background()
        client = CoordinatorClient(server.url, retry_window=0.5)
        client.ping()  # leaves a kept-alive connection open
        server.shutdown()
        server.server_close()
        t0 = time.monotonic()
        with pytest.raises(CoordinatorUnreachable):
            client.ping()
        assert time.monotonic() - t0 < 0.5 + 2.0


# ----------------------------------------------------------------------
# The fleet over HTTP: queue behavior, identity with file mode
# ----------------------------------------------------------------------

class TestHTTPFleet:
    def test_drain_matches_file_mode_byte_for_byte(self, coord, tmp_path):
        specs = grid(3)
        # Reference: the shared-directory fabric.
        ref_store = ResultStore(tmp_path / "ref")
        drain(specs, ref_store, worker_id="ref", poll=0.05)
        # Same campaign through the coordinator, no shared filesystem.
        store, leases = open_coordinator(
            coord.url, tmp_path / "spool", worker_id="w1",
            lease_ttl=5.0, retry_window=3.0,
        )
        results, summary = drain(specs, store, leases=leases, poll=0.05)
        assert [r.status for r in results] == ["done"] * 3
        assert summary.executed == 3
        assert summary.renew_failures == 0
        assert entries(coord.store_root) == entries(tmp_path / "ref")
        assert not list((coord.store_root / "leases").glob("*.json"))

    def test_claim_records_affinity_group(self, coord, tmp_path):
        specs = grid(2)
        store, leases = open_coordinator(
            coord.url, tmp_path / "spool", worker_id="w1", retry_window=3.0,
        )
        queue = WorkQueue(specs, store, leases=leases)
        claim = queue.claim()
        assert claim.lease.group == affinity_group(claim.spec)

    def test_fleet_status_and_watch_over_http(self, coord, tmp_path):
        specs = grid(2)
        store, leases = open_coordinator(
            coord.url, tmp_path / "spool", worker_id="w1", retry_window=3.0,
        )
        queue = WorkQueue(specs, store, leases=leases)
        claim = queue.claim()
        status = fleet_status(specs, store, lease_ttl=60.0, leases=leases)
        assert status.leased == 1
        frame = render_frame("t", status)
        assert claim.lease.fingerprint[:12] in frame
        queue.leases.release(claim.lease)
        # drain the rest so watch() terminates on its own
        drain(specs, store, leases=leases, poll=0.05)
        import io

        out = io.StringIO()
        last = watch("t", specs, store, leases=leases, interval=0.05, out=out)
        assert last.drained
        assert "drained" in out.getvalue()

    def test_reap_over_http(self, coord, tmp_path):
        specs = grid(1)
        store, leases = open_coordinator(
            coord.url, tmp_path / "spool", worker_id="w1",
            lease_ttl=0.1, retry_window=3.0,
        )
        queue = WorkQueue(specs, store, leases=leases, max_attempts=3)
        queue.claim()
        leases.put_worker_stats("w1", {"worker": "w1", "heartbeat": 0.0})
        time.sleep(0.25)
        report = reap(specs, store, lease_ttl=0.1, leases=leases)
        assert len(report.dropped_leases) == 1
        assert report.pruned_workers == ["w1"]
        assert not list((coord.store_root / "leases").glob("*.json"))


# ----------------------------------------------------------------------
# Claim affinity (backend-independent semantics)
# ----------------------------------------------------------------------

class TestClaimAffinity:
    def test_group_ignores_load_and_seed(self):
        assert affinity_group(spec(load=0.1, seed=1)) == \
            affinity_group(spec(load=0.7, seed=9))

    def test_group_distinguishes_configs(self):
        assert affinity_group(spec(routing="min")) != \
            affinity_group(spec(routing="ofar"))

    def test_preferred_groups_scanned_first(self, tmp_path):
        # Two groups interleaved in declaration order; a worker that has
        # executed in the second group claims its points first.
        warm = [spec(routing="ofar", load=round(0.1 * i, 2)) for i in (1, 2)]
        cold = [spec(routing="min", load=round(0.1 * i, 2)) for i in (1, 2)]
        specs = [cold[0], warm[0], cold[1], warm[1]]
        queue = WorkQueue(specs, ResultStore(tmp_path), worker_id="w")
        queue.prefer_groups.add(affinity_group(warm[0]))
        first = queue.claim()
        second = queue.claim()
        assert {first.spec.fingerprint(), second.spec.fingerprint()} == \
            {s.fingerprint() for s in warm}
        # Unpreferred points still claimed afterwards, declaration order.
        third = queue.claim()
        assert third.spec.fingerprint() == cold[0].fingerprint()

    def test_worker_learns_groups_it_executes(self, tmp_path):
        specs = grid(2)
        store = ResultStore(tmp_path)
        _, summary = drain(specs, store, worker_id="w", poll=0.05)
        assert summary.executed == 2
        # drain built its own queue; re-check via a fresh queue claim on
        # an undrained grid instead: execute one point, group learned.
        from repro.fabric import FabricWorker

        more = [spec(routing="ofar")]
        queue = WorkQueue(more, ResultStore(tmp_path / "b"), worker_id="w")
        worker = FabricWorker(queue, poll=0.05, max_points=1)
        worker.run()
        assert affinity_group(more[0]) in queue.prefer_groups


# ----------------------------------------------------------------------
# Coordinator robustness: SIGKILL + restart mid-drain
# ----------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_coordinator(store: Path, port: int) -> subprocess.Popen:
    code = (
        "from repro.fabric.coordinator import serve; "
        f"serve({str(store)!r}, port={port})"
    )
    return subprocess.Popen(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _wait_for_ping(url: str, timeout: float = 10.0) -> None:
    client = CoordinatorClient(url, timeout=2.0, retry_window=timeout)
    client.ping()
    client.close()


class TestCoordinatorRestart:
    def test_workers_ride_out_a_coordinator_sigkill(self, tmp_path):
        specs = grid(5)
        ref_store = ResultStore(tmp_path / "ref")
        drain(specs, ref_store, worker_id="ref", poll=0.05)

        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        coord_store = tmp_path / "coord"
        server = _spawn_coordinator(coord_store, port)
        try:
            _wait_for_ping(url)
            store, leases = open_coordinator(
                url, tmp_path / "spool", worker_id="w1",
                lease_ttl=5.0, retry_window=30.0,
            )

            def execute(s):
                time.sleep(0.2)  # stretch the drain across the outage
                return run_spec(s)

            box = {}

            def worker():
                box["out"] = drain(
                    specs, store, leases=leases, poll=0.1, execute=execute
                )

            thread = threading.Thread(target=worker)
            thread.start()
            # Let at least one result land, then shoot the coordinator.
            deadline = time.monotonic() + 30
            while not entries(coord_store) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert entries(coord_store), "no result landed before the kill"
            server.kill()
            server.wait(timeout=10)
            time.sleep(1.0)  # a real outage, mid-drain
            server = _spawn_coordinator(coord_store, port)
            _wait_for_ping(url)
            thread.join(timeout=120)
            assert not thread.is_alive(), "drain did not finish after restart"

            results, summary = box["out"]
            assert summary.backend_error == ""
            assert [r.status for r in results] == ["done"] * len(specs)
            # Identical store despite the SIGKILL: full state recovered
            # from the coordinator's disk.
            assert entries(coord_store) == entries(tmp_path / "ref")
            assert not list((coord_store / "leases").glob("*.json"))
            assert not list((coord_store / FAILURE_KIND).glob("*/*.json"))
        finally:
            server.kill()
            server.wait(timeout=10)

    def test_worker_falls_out_cleanly_when_coordinator_stays_down(
        self, tmp_path
    ):
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        server = _spawn_coordinator(tmp_path / "coord", port)
        try:
            _wait_for_ping(url)
            store, leases = open_coordinator(
                url, tmp_path / "spool", worker_id="w1",
                lease_ttl=5.0, retry_window=0.5,
            )
        finally:
            server.kill()
            server.wait(timeout=10)
        # Coordinator is gone for good: the drain ends with a summary,
        # not a stack trace.
        results, summary = drain(grid(2), store, leases=leases, poll=0.05)
        assert summary.backend_error != ""
        assert "stopped early" in summary.render()
        assert [r.status for r in results] == ["failed", "failed"]
