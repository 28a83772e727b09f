"""Client side of the coordinator protocol.

Three layers, each thin:

- :class:`CoordinatorClient` — the JSON/HTTP transport.  One method,
  :meth:`~CoordinatorClient.call`, POSTs (or GETs) a route under
  ``/api/v1/`` and retries connection-level failures with exponential
  backoff until a **retry window** elapses — that window is what rides
  out a coordinator restart.  When it runs dry the call raises
  :class:`CoordinatorUnreachable` (a
  :class:`~repro.fabric.lease.FabricBackendError`), which the worker
  loop treats as "fall out cleanly".  A reply the coordinator *did*
  produce but that signals an error (4xx/5xx) raises
  :class:`CoordinatorError` immediately — that is a bug or a protocol
  mismatch, and retrying would not change the answer.

- :class:`HTTPLeaseManager` — the lease backend over that transport:
  the same method surface as the file
  :class:`~repro.fabric.lease.LeaseManager`, so ``WorkQueue`` and
  ``FabricWorker`` run unmodified.  Its :meth:`leases_map` returns the
  coordinator's whole lease table in one round trip (the file backend
  declines with None and lets the queue stat per-point).

- :class:`RemoteStore` — a :class:`~repro.analysis.store.ResultStore`
  whose *authoritative* reads and writes go over the wire while its
  ``root`` points at a worker-local **spool** directory.  The spool is
  where the execution layer parks per-point state that never needs the
  network: snapshot checkpoints (``snapshots/``, resumed by the same
  worker after SIGKILL; a point reclaimed by a *different* host re-runs
  from scratch and, being deterministic, lands the identical result),
  telemetry series, and the full-result sidecars (workload, scenario,
  transient, burst) the executors write through a local ``ResultStore``.  When a point
  completes, :meth:`RemoteStore.put` uploads the result *and* the
  point's spooled sidecars in one request, so the coordinator's store
  ends up entry-for-entry identical to a shared-directory drain.
"""

from __future__ import annotations

import json
import os
import socket
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.analysis.store import ResultStore
from repro.engine.metrics import LoadPoint
from repro.engine.runspec import RunSpec
from repro.fabric.lease import (
    DEFAULT_TTL,
    FabricBackendError,
    Lease,
    default_worker_id,
)
from repro.fabric.coordinator.server import API_PREFIX, PROTOCOL


class CoordinatorError(FabricBackendError):
    """The coordinator answered, and the answer is an error."""


class CoordinatorUnreachable(CoordinatorError):
    """No answer from the coordinator within the retry window."""


class CoordinatorClient:
    """JSON/HTTP transport to one ``repro fabric serve`` process.

    Parameters
    ----------
    url:
        Coordinator base URL, e.g. ``http://db-host:8642``.
    timeout:
        Per-request socket timeout, seconds.
    retry_window:
        Total seconds to keep retrying connection-level failures
        (refused, reset, DNS, timeout) before raising
        :class:`CoordinatorUnreachable`.  Sized to ride out a
        coordinator restart; lower it in tests.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 10.0,
        retry_window: float = 60.0,
    ) -> None:
        self.base = url.rstrip("/")
        self.timeout = timeout
        self.retry_window = retry_window

    def call(self, route: str, body: dict | None = None) -> dict:
        """One round trip: POST ``body`` (or GET when None) to ``route``."""
        url = f"{self.base}{API_PREFIX}{route}"
        payload = None if body is None else json.dumps(body).encode()
        deadline = time.monotonic() + self.retry_window
        delay = 0.1
        while True:
            request = urllib.request.Request(
                url,
                data=payload,
                headers={"Content-Type": "application/json"},
                method="GET" if payload is None else "POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    return json.loads(resp.read().decode())
            except urllib.error.HTTPError as exc:
                # The coordinator spoke: deterministic failure, no retry.
                try:
                    detail = json.loads(exc.read().decode()).get("error", "")
                except (ValueError, OSError):
                    detail = ""
                raise CoordinatorError(
                    f"{route}: HTTP {exc.code} from {self.base}"
                    + (f": {detail}" if detail else "")
                ) from None
            except (urllib.error.URLError, OSError, ValueError) as exc:
                # Connection-level trouble (or a half-written reply from
                # a dying server): back off and retry inside the window.
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CoordinatorUnreachable(
                        f"{route}: coordinator {self.base} unreachable for "
                        f"{self.retry_window:.0f}s ({exc})"
                    ) from None
                time.sleep(min(delay, remaining))
                delay = min(2.0, delay * 2)

    def ping(self) -> dict:
        """Handshake; raises on protocol mismatch."""
        reply = self.call("ping")
        if reply.get("protocol") != PROTOCOL:
            raise CoordinatorError(
                f"coordinator {self.base} speaks protocol "
                f"{reply.get('protocol')!r}, this client {PROTOCOL!r}"
            )
        return reply


class HTTPLeaseManager:
    """Lease backend over a :class:`CoordinatorClient`.

    Method-for-method the surface of the file
    :class:`~repro.fabric.lease.LeaseManager`; every call is one
    coordinator round trip carrying this worker's identity, and the
    coordinator's own file backend arbitrates the races.
    """

    def __init__(
        self,
        client: CoordinatorClient,
        worker_id: str | None = None,
        ttl: float = DEFAULT_TTL,
    ) -> None:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.client = client
        self.worker_id = worker_id if worker_id is not None else default_worker_id()
        self.ttl = ttl

    def _ident(self) -> dict:
        return {
            "worker": self.worker_id,
            "ttl": self.ttl,
            "host": socket.gethostname(),
            "pid": os.getpid(),
        }

    @staticmethod
    def _lease(reply: dict) -> Lease | None:
        data = reply.get("lease")
        return None if data is None else Lease.from_jsonable(data)

    # ------------------------------------------------------------------
    def current(self, fingerprint: str) -> Lease | None:
        reply = self.client.call(
            "lease", {**self._ident(), "fingerprint": fingerprint}
        )
        return self._lease(reply)

    def try_claim(
        self,
        fingerprint: str,
        label: str = "",
        attempt: int = 1,
        group: str = "",
        host: str | None = None,
        pid: int | None = None,
    ) -> Lease | None:
        body = {
            **self._ident(),
            "fingerprint": fingerprint,
            "label": label,
            "attempt": attempt,
            "group": group,
        }
        if host is not None:
            body["host"] = host
        if pid is not None:
            body["pid"] = pid
        return self._lease(self.client.call("claim", body))

    def reclaim(self, stale: Lease, label: str = "", group: str = "") -> Lease | None:
        body = {
            **self._ident(),
            "stale": stale.to_jsonable(),
            "label": label,
            "group": group,
        }
        return self._lease(self.client.call("reclaim", body))

    def renew(self, lease: Lease, attempt: int | None = None) -> Lease | None:
        body = {**self._ident(), "lease": lease.to_jsonable(), "attempt": attempt}
        return self._lease(self.client.call("renew", body))

    def release(self, lease: Lease) -> bool:
        reply = self.client.call(
            "release", {**self._ident(), "lease": lease.to_jsonable()}
        )
        return bool(reply.get("released"))

    def drop(self, fingerprint: str) -> bool:
        reply = self.client.call(
            "drop", {**self._ident(), "fingerprint": fingerprint}
        )
        return bool(reply.get("dropped"))

    # ------------------------------------------------------------------
    def live_leases(self) -> list[Lease]:
        reply = self.client.call("leases")
        return [Lease.from_jsonable(data) for data in reply.get("leases", [])]

    def leases_map(self) -> dict[str, Lease] | None:
        """The coordinator's whole lease table, one round trip."""
        return {lease.fingerprint: lease for lease in self.live_leases()}

    # ------------------------------------------------------------------
    def put_worker_stats(self, worker_id: str, payload: dict) -> None:
        self.client.call(
            "workers/put",
            {**self._ident(), "worker": worker_id, "payload": payload},
        )

    def list_worker_stats(self) -> list[dict]:
        reply = self.client.call("workers")
        return [data for data in reply.get("workers", []) if isinstance(data, dict)]

    def prune_worker(self, worker_id: str) -> bool:
        reply = self.client.call(
            "workers/prune", {**self._ident(), "worker": worker_id}
        )
        return bool(reply.get("pruned"))


class RemoteStore(ResultStore):
    """A ResultStore whose authority lives behind the coordinator.

    ``root`` is a worker-local spool (checkpoints, telemetry, sidecar
    staging — see the module docstring); results, failure records and
    resolution probes go over the wire.  The execution layer and
    :class:`~repro.fabric.queue.WorkQueue` use it exactly like a shared
    store.
    """

    #: Spool subdirectories never uploaded with a result: ``objects``
    #: holds nothing in a spool, and the store's non-entry kinds
    #: (snapshots, telemetry, leases, workers) are worker-local state.
    _NO_UPLOAD = ("objects",)

    def __init__(self, client: CoordinatorClient, spool: str | os.PathLike) -> None:
        super().__init__(spool)
        self.client = client

    # -- resolution probes (remote) ------------------------------------
    def has(self, fingerprint: str) -> bool:
        return self.resolved_many([fingerprint])[fingerprint] == "result"

    def has_sidecar(self, kind: str, fingerprint: str) -> bool:
        reply = self.client.call(
            "has_sidecar", {"kind": kind, "fingerprint": fingerprint}
        )
        return bool(reply.get("present"))

    def resolved_many(
        self, fingerprints: list[str], failure_kind: str = "failures"
    ) -> dict[str, str | None]:
        if not fingerprints:
            return {}
        reply = self.client.call(
            "resolved",
            {"fingerprints": list(fingerprints), "failure_kind": failure_kind},
        )
        resolved = reply.get("resolved", {})
        return {fp: resolved.get(fp) for fp in fingerprints}

    # -- authoritative reads/writes (remote) ---------------------------
    def get(self, spec: RunSpec) -> LoadPoint | None:
        reply = self.client.call("get", {"spec": spec.to_jsonable()})
        data = reply.get("point")
        if data is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return LoadPoint.from_jsonable(data)

    def put(self, spec: RunSpec, point: LoadPoint, wall_time: float | None = None):
        fingerprint = spec.fingerprint()
        self.client.call(
            "result",
            {
                "spec": spec.to_jsonable(),
                "point": point.to_jsonable(),
                "wall_time": wall_time,
                "sidecars": self._spooled_sidecars(fingerprint),
            },
        )
        self.stats.writes += 1
        return self.path_for(fingerprint)

    def get_sidecar(self, kind: str, spec: RunSpec) -> dict | None:
        reply = self.client.call(
            "get_sidecar", {"kind": kind, "spec": spec.to_jsonable()}
        )
        payload = reply.get("payload")
        if payload is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def put_sidecar(self, kind: str, spec: RunSpec, payload: dict):
        self.client.call(
            "sidecar",
            {"kind": kind, "spec": spec.to_jsonable(), "payload": payload},
        )
        self.stats.writes += 1
        return self.sidecar_path(kind, spec.fingerprint())

    # ------------------------------------------------------------------
    def _spooled_sidecars(self, fingerprint: str) -> dict:
        """Payloads the executors staged locally for this point.

        The per-point execution path writes non-steady full-result
        sidecars through a plain ResultStore over the spool root; they ship with
        the result so the coordinator's store carries full provenance.
        """
        sidecars: dict[str, dict] = {}
        for kind in self.entry_kinds():
            if kind in self._NO_UPLOAD:
                continue
            path = self.sidecar_path(kind, fingerprint)
            try:
                entry = json.loads(path.read_text())
                sidecars[kind] = entry["payload"]
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return sidecars


def open_coordinator(
    url: str,
    spool: str | os.PathLike,
    *,
    worker_id: str | None = None,
    lease_ttl: float = DEFAULT_TTL,
    timeout: float = 10.0,
    retry_window: float = 60.0,
) -> tuple[RemoteStore, HTTPLeaseManager]:
    """One-call client setup: ping, spool store, lease backend.

    The returned pair plugs straight into
    :class:`~repro.fabric.queue.WorkQueue` (``store=``, ``leases=``) or
    :func:`~repro.fabric.worker.drain` (``store=``, ``leases=``).
    """
    client = CoordinatorClient(url, timeout=timeout, retry_window=retry_window)
    # Handshake with a short window: a wrong URL should fail in seconds,
    # while the long window is reserved for riding out restarts mid-run.
    CoordinatorClient(
        url, timeout=timeout, retry_window=min(5.0, retry_window)
    ).ping()
    Path(spool).mkdir(parents=True, exist_ok=True)
    store = RemoteStore(client, spool)
    leases = HTTPLeaseManager(client, worker_id=worker_id, ttl=lease_ttl)
    return store, leases


__all__ = [
    "CoordinatorClient",
    "CoordinatorError",
    "CoordinatorUnreachable",
    "HTTPLeaseManager",
    "RemoteStore",
    "open_coordinator",
]
