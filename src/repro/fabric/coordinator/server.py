"""The fabric coordinator: the lease protocol behind one socket.

``repro fabric serve`` runs a :class:`FabricCoordinator` — a stdlib
``http.server`` process that owns a standard store directory on its
local disk and serves the whole fabric surface over JSON/HTTP:

- **lease operations** (claim / reclaim / renew / release / drop, the
  live lease table) executed by the coordinator's own file
  :class:`~repro.fabric.lease.LeaseManager` against its local
  ``leases/`` directory, impersonating the requesting worker (every
  request carries ``worker``/``ttl``, so ownership checks behave
  exactly as if that worker held the files locally);
- **store traffic**: batch resolution probes, result uploads (with the
  point's full-result sidecars in the same request, so an entry
  and its provenance land together), failure records, and cached-point
  downloads (a whole grid's points in one ``get_many`` request);
- **worker stats** upload/list/prune for ``fabric status`` and
  ``fabric watch``.

Because every byte of state is ordinary store layout on the
coordinator's disk — the same files a shared-directory fleet would
write — three properties fall out for free:

- ``repro store verify/gc/stats`` and ``repro fabric status/reap`` work
  unchanged pointed at the coordinator's store root;
- **restart recovery is a no-op**: kill the coordinator, start it again
  on the same root, and the full fleet state (results, live leases,
  attempt counts, worker stats) is already there.  Workers retry with
  backoff across the outage and resume as if nothing happened;
- a campaign drained through the coordinator is fingerprint-identical
  to one drained over a shared directory — both are produced by the
  same ``LeaseManager``/``ResultStore`` code paths.

Connections are HTTP/1.1 keep-alive: a client reuses one socket for
all its calls, and each open socket holds one handler thread here.  The
handler disables Nagle's algorithm because it writes a reply's headers
and body separately; with Nagle on, the body waits for the client's
delayed ACK of the headers (about 40 ms on Linux) on every round trip
after a connection's first.  :meth:`FabricCoordinator.server_close`
shuts the open sockets down, so a stopped coordinator stops answering.

Safety under concurrency: the handler is a ``ThreadingHTTPServer``, and
every mutation bottoms out in the file backend's atomic primitives
(``O_CREAT|O_EXCL`` claims, tmp+rename writes) — the filesystem
arbitrates races between request threads exactly as it does between
NFS peers.  One server-side guard is added on top: a reclaim request
re-checks staleness against the *coordinator's* clock before honoring
it, so a worker with a skewed clock cannot steal a live lease.
"""

from __future__ import annotations

import json
import socket
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.analysis.store import STORE_FORMAT, ResultStore
from repro.engine.metrics import LoadPoint
from repro.engine.runspec import RunSpec
from repro.fabric.lease import DEFAULT_TTL, Lease, LeaseManager

#: URL prefix of every coordinator route.
API_PREFIX = "/api/v1/"

#: Protocol version echoed by ``ping``; clients refuse a mismatch.
#: Version 2 reads cached points back through ``get_many``.
PROTOCOL = 2


class _Routes:
    """The coordinator's request handlers, one method per route.

    Each takes the parsed JSON body and returns a jsonable reply dict.
    Lease mutations build a per-request :class:`LeaseManager` carrying
    the *requester's* worker id and ttl, so the file backend's
    ownership semantics apply verbatim to remote workers.
    """

    def __init__(self, store_root: Path) -> None:
        self.store = ResultStore(store_root)
        self.root = Path(store_root)

    def _manager(self, body: dict) -> LeaseManager:
        return LeaseManager(
            self.root,
            worker_id=str(body.get("worker", "coordinator")),
            ttl=float(body.get("ttl", DEFAULT_TTL)),
        )

    # -- observability -------------------------------------------------
    def get_ping(self, body: dict) -> dict:
        return {
            "ok": True,
            "protocol": PROTOCOL,
            "format": STORE_FORMAT,
            "store": str(self.root),
        }

    def get_leases(self, body: dict) -> dict:
        manager = LeaseManager(self.root, worker_id="coordinator")
        return {"leases": [lease.to_jsonable() for lease in manager.live_leases()]}

    def get_workers(self, body: dict) -> dict:
        manager = LeaseManager(self.root, worker_id="coordinator")
        return {"workers": manager.list_worker_stats()}

    # -- lease protocol ------------------------------------------------
    def post_lease(self, body: dict) -> dict:
        manager = self._manager(body)
        lease = manager.current(str(body["fingerprint"]))
        return {"lease": None if lease is None else lease.to_jsonable()}

    def post_claim(self, body: dict) -> dict:
        manager = self._manager(body)
        lease = manager.try_claim(
            str(body["fingerprint"]),
            label=str(body.get("label", "")),
            attempt=int(body.get("attempt", 1)),
            group=str(body.get("group", "")),
            host=str(body.get("host", "")),
            pid=int(body.get("pid", 0)),
        )
        return {"lease": None if lease is None else lease.to_jsonable()}

    def post_reclaim(self, body: dict) -> dict:
        manager = self._manager(body)
        stale = Lease.from_jsonable(body["stale"])
        # Staleness re-judged on the coordinator's clock: a skewed
        # client cannot reclaim a lease whose holder is still renewing.
        current = manager.current(stale.fingerprint)
        if current is not None and not current.stale(manager.ttl):
            return {"lease": None}
        # Unlink-then-claim, same as the file backend's reclaim, but
        # recording the remote worker's host/pid in the new lease.
        target = current if current is not None else stale
        manager.drop(target.fingerprint)
        lease = manager.try_claim(
            target.fingerprint,
            label=str(body.get("label", "")) or target.label,
            attempt=target.attempt + 1,
            group=str(body.get("group", "")) or target.group,
            host=str(body.get("host", "")),
            pid=int(body.get("pid", 0)),
        )
        return {"lease": None if lease is None else lease.to_jsonable()}

    def post_renew(self, body: dict) -> dict:
        manager = self._manager(body)
        attempt = body.get("attempt")
        renewed = manager.renew(
            Lease.from_jsonable(body["lease"]),
            attempt=None if attempt is None else int(attempt),
        )
        return {"lease": None if renewed is None else renewed.to_jsonable()}

    def post_release(self, body: dict) -> dict:
        manager = self._manager(body)
        return {"released": manager.release(Lease.from_jsonable(body["lease"]))}

    def post_drop(self, body: dict) -> dict:
        manager = self._manager(body)
        return {"dropped": manager.drop(str(body["fingerprint"]))}

    # -- store traffic -------------------------------------------------
    def post_resolved(self, body: dict) -> dict:
        fps = [str(fp) for fp in body["fingerprints"]]
        kind = str(body.get("failure_kind", "failures"))
        return {"resolved": self.store.resolved_many(fps, kind)}

    def post_has_sidecar(self, body: dict) -> dict:
        return {
            "present": self.store.has_sidecar(
                str(body["kind"]), str(body["fingerprint"])
            )
        }

    def post_result(self, body: dict) -> dict:
        spec = RunSpec.from_jsonable(body["spec"])
        point = LoadPoint.from_jsonable(body["point"])
        # Sidecars first: the result entry's existence is what marks the
        # point resolved, so a crash between writes leaves the point
        # pending (re-runs cleanly), never resolved-but-incomplete.
        for kind, payload in (body.get("sidecars") or {}).items():
            self.store.put_sidecar(str(kind), spec, payload)
        wall = body.get("wall_time")
        self.store.put(spec, point, wall_time=None if wall is None else float(wall))
        return {"ok": True}

    def post_sidecar(self, body: dict) -> dict:
        spec = RunSpec.from_jsonable(body["spec"])
        self.store.put_sidecar(str(body["kind"]), spec, body["payload"])
        return {"ok": True}

    def post_get_many(self, body: dict) -> dict:
        specs = [RunSpec.from_jsonable(data) for data in body["specs"]]
        return {
            "points": [
                None if point is None else point.to_jsonable()
                for point in self.store.get_many(specs)
            ]
        }

    def post_get_sidecar(self, body: dict) -> dict:
        spec = RunSpec.from_jsonable(body["spec"])
        return {"payload": self.store.get_sidecar(str(body["kind"]), spec)}

    # -- worker stats --------------------------------------------------
    def post_workers_put(self, body: dict) -> dict:
        manager = self._manager(body)
        manager.put_worker_stats(str(body["worker"]), dict(body["payload"]))
        return {"ok": True}

    def post_workers_prune(self, body: dict) -> dict:
        manager = self._manager(body)
        return {"pruned": manager.prune_worker(str(body["worker"]))}


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON plumbing around :class:`_Routes`."""

    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes (see the module docstring).
    disable_nagle_algorithm = True
    server: "FabricCoordinator"

    # Silence the default per-request stderr chatter; `fabric serve -v`
    # re-enables it.
    def log_message(self, fmt: str, *args) -> None:
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _reply(self, code: int, payload: dict) -> None:
        blob = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _dispatch(self, method: str) -> None:
        # Read the body before any reply: bytes left unread would be
        # parsed as the next request on this kept-alive connection.
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            self._reply(400, {"error": "bad Content-Length"})
            return
        raw = self.rfile.read(length)
        if not self.path.startswith(API_PREFIX):
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        route = self.path[len(API_PREFIX):].strip("/").replace("/", "_")
        handler = getattr(self.server.routes, f"{method}_{route}", None)
        if handler is None:
            self._reply(404, {"error": f"unknown route {route!r}"})
            return
        try:
            body = json.loads(raw) if raw else {}
            self._reply(200, handler(body))
        except (KeyError, TypeError, ValueError) as exc:
            self._reply(400, {"error": f"bad request: {exc!r}"})
        except Exception:
            self._reply(500, {"error": traceback.format_exc()})

    def do_GET(self) -> None:
        self._dispatch("get")

    def do_POST(self) -> None:
        self._dispatch("post")


class FabricCoordinator(ThreadingHTTPServer):
    """One coordinator process: a store root behind an HTTP socket.

    ``allow_reuse_address`` (inherited default) lets a restarted
    coordinator rebind its old port immediately — the fleet's retry
    loops reconnect without operator involvement.

    Every accepted socket is tracked until its handler thread ends, so
    :meth:`shutdown` and :meth:`server_close` can shut down the idle
    keep-alive connections whose handler threads would otherwise go on
    serving after the listening socket is gone.
    """

    daemon_threads = True

    def __init__(
        self,
        store_root,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.routes = _Routes(Path(store_root))
        self.store_root = Path(store_root)
        self.verbose = verbose
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def _close_connections(self) -> None:
        """Shut every open connection down; its handler thread then
        reads EOF and exits instead of serving the next request."""
        with self._open_lock:
            open_sockets = list(self._open)
        for sock in open_sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler thread

    def shutdown(self) -> None:
        super().shutdown()
        self._close_connections()

    def server_close(self) -> None:
        super().server_close()
        self._close_connections()

    def start_background(self) -> threading.Thread:
        """Serve from a daemon thread (tests, embedded use).

        The loop polls for :meth:`shutdown` every 50 ms instead of
        ``serve_forever``'s default 0.5 s, so stopping an embedded
        coordinator does not stall its caller.
        """
        thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05},
            name="fabric-coordinator", daemon=True,
        )
        thread.start()
        return thread


def serve(
    store_root,
    host: str = "127.0.0.1",
    port: int = 8642,
    verbose: bool = False,
) -> None:
    """Blocking entry point for ``repro fabric serve``."""
    coordinator = FabricCoordinator(store_root, host=host, port=port, verbose=verbose)
    print(
        f"[fabric coordinator] serving store {coordinator.store_root} "
        f"at {coordinator.url} (Ctrl-C to stop)",
        flush=True,
    )
    try:
        coordinator.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.server_close()


__all__ = [
    "API_PREFIX",
    "FabricCoordinator",
    "PROTOCOL",
    "serve",
]
