"""The routing algorithm named by a configuration."""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.core.ofar import OFARRouting
from repro.routing.base import RoutingAlgorithm
from repro.routing.minimal import MinimalRouting
from repro.routing.par import PARRouting
from repro.routing.piggyback import PiggybackRouting
from repro.routing.ugal import UGALRouting
from repro.routing.valiant import ValiantRouting

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import Network


def make_routing(network: "Network", rng: random.Random) -> RoutingAlgorithm:
    """Instantiate the routing algorithm named in the network's config."""
    name = network.config.routing
    if name == "min":
        return MinimalRouting(network, rng)
    if name == "val":
        return ValiantRouting(network, rng)
    if name == "ugal":
        return UGALRouting(network, rng)
    if name == "pb":
        return PiggybackRouting(network, rng)
    if name == "par":
        return PARRouting(network, rng)
    if name == "ofar":
        return OFARRouting(network, rng, allow_local_misroute=True)
    if name == "ofar-l":
        return OFARRouting(network, rng, allow_local_misroute=False)
    raise ValueError(f"unknown routing {name!r}")
