"""HTTP coordinator for fleets without a shared filesystem.

Server side (:mod:`~repro.fabric.coordinator.server`): ``repro fabric
serve`` owns a standard store directory and exposes the lease protocol
plus store traffic over JSON/HTTP.  Client side
(:mod:`~repro.fabric.coordinator.client`): :class:`HTTPLeaseManager`
and :class:`RemoteStore` implement the fabric's two seams over the
socket, so :class:`~repro.fabric.queue.WorkQueue` and
:class:`~repro.fabric.worker.FabricWorker` run unmodified — select the
mode with ``--coordinator URL``.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "client": (
        "CoordinatorClient", "CoordinatorError", "CoordinatorUnreachable",
        "HTTPLeaseManager", "RemoteStore", "open_coordinator",
    ),
    "server": ("API_PREFIX", "PROTOCOL", "FabricCoordinator", "serve"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
