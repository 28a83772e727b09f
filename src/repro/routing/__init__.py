"""Routing mechanisms evaluated in the paper.

Baselines (deadlock-free through an ascending order of VCs):

- :class:`~repro.routing.minimal.MinimalRouting` (*MIN*),
- :class:`~repro.routing.valiant.ValiantRouting` (*VAL*),
- :class:`~repro.routing.ugal.UGALRouting` (*UGAL-L*, extension baseline),
- :class:`~repro.routing.piggyback.PiggybackRouting` (*PB*).

The paper's contribution, *OFAR* (and its *OFAR-L* ablation without
local misrouting), lives in :mod:`repro.core.ofar` and relies on the
escape subnetwork instead of VC ordering.

Use :func:`make_routing` to construct the algorithm named by a
:class:`~repro.engine.config.SimulationConfig`.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "base": ("RoutingAlgorithm",),
    "minimal": ("MinimalRouting",),
    "valiant": ("ValiantRouting",),
    "ugal": ("UGALRouting",),
    "piggyback": ("PiggybackRouting",),
    "par": ("PARRouting",),
    "factory": ("make_routing",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
