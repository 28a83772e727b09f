"""Distributed sweep fabric: N hosts drain one campaign, no server.

The run layer already owns every coordination primitive a fleet needs:

- the **content-addressed result store** is the ground truth of what is
  done — a point whose fingerprint has a store entry never runs again,
  so a worker joining late (or rejoining after a crash) simply skips
  finished work;
- the **RunSpec fingerprint** is the unit of work identity — the same
  string on every host, because it hashes the spec's canonical JSON,
  not anything process-local;
- **snapshot checkpoints** make workers preemptible — a point killed
  mid-run resumes from its last checkpoint on whichever host picks it
  up next, with a bit-identical final result.

What was missing is mutual exclusion: two workers must not *start* the
same point at the same time (harmless for correctness — results are
deterministic and written atomically, so double execution produces
byte-identical entries — but wasteful).  :mod:`repro.fabric` adds it as
a **lease protocol** over the shared store directory itself (an
NFS-style shared filesystem; no coordinator process):

- :mod:`repro.fabric.lease` — ``<store>/leases/<fp>.json`` claimed via
  atomic exclusive create, carrying worker id, heartbeat timestamp and
  attempt count; stale leases (missed heartbeats) are reclaimed with
  the attempt count carried forward, so a point that keeps killing its
  workers exhausts a bounded attempt budget and is *recorded* as failed
  instead of wedging the fleet.
- :mod:`repro.fabric.queue` — :class:`WorkQueue` enumerates a grid's
  fingerprints and treats the store as the authority: claimable =
  no result, no failure record, no live lease.
- :mod:`repro.fabric.worker` — :class:`FabricWorker` loops
  claim -> run (through the orchestrator's own per-point worker path,
  honoring ``--snapshot-every``) -> write result -> release, emitting
  fleet-aware :class:`~repro.engine.progress.SweepProgress` snapshots.

Deployment story: run ``repro fabric work <campaign> --store <shared>``
once per host (or ``repro campaign run <campaign> --fabric``); every
process is a peer, the store directory is the entire control plane.

For fleets that *cannot* mount one directory, the same protocol runs
behind a socket: :mod:`repro.fabric.coordinator` serves the lease
surface and the store traffic over HTTP (``repro fabric serve``), and
workers select it with ``--coordinator URL`` — ``WorkQueue`` and
``FabricWorker`` are identical in both modes, swapped at the lease
backend seam (:class:`~repro.fabric.lease.LeaseManager` vs
:class:`~repro.fabric.coordinator.client.HTTPLeaseManager`).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "lease": (
        "FAILURE_KIND", "LEASE_DIR", "FabricBackendError", "Lease", "LeaseManager",
        "lease_path", "read_lease",
    ),
    "queue": (
        "Claim", "QueueStatus", "WorkQueue", "affinity_group", "fleet_status", "reap",
    ),
    "worker": ("FabricSummary", "FabricWorker", "drain"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
