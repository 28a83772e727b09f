"""Router and flow-control substrate.

This package implements the hardware model of §V of the paper:

- :mod:`repro.network.packet` — packets (8 phits by default) with the
  OFAR header flags (one global misroute per packet, one local misroute
  per group) and escape-ring state;
- :mod:`repro.network.buffers` — input FIFO buffers with per-VC
  phit-occupancy accounting;
- :mod:`repro.network.arbiter` — least-recently-served (LRS) arbiters;
- :mod:`repro.network.allocator` — the iterative separable batch
  allocator (3 iterations, no internal speedup);
- :mod:`repro.network.router` — the input-buffered virtual cut-through
  router with credit-based flow control;
- :mod:`repro.network.network` — assembly of routers, links, nodes and
  the (physical or embedded) escape ring into one simulable network.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "packet": ("Packet",),
    "buffers": ("Buffer",),
    "arbiter": ("LRSArbiter",),
    "router": ("Router", "OutputChannel"),
    "network": ("Network",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
