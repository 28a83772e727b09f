"""Topology substrate: the dragonfly graph and its Hamiltonian escape ring.

The dragonfly topology (Kim et al., ISCA 2008) is a two-level hierarchical
direct network: routers within a group form a complete graph over *local*
links, and groups form a complete graph over *global* links.  This package
provides:

- :class:`~repro.topology.dragonfly.Dragonfly` — the parametrized topology,
  the palmtree global-link arrangement and the minimal-path oracle;
- :class:`~repro.topology.hamiltonian.HamiltonianRing` — a Hamiltonian
  cycle over all routers built only from existing links, used as the OFAR
  escape subnetwork (physical or embedded).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "dragonfly": ("Dragonfly", "PortKind"),
    "hamiltonian": ("HamiltonianRing",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
