"""PB: Piggybacking — UGAL-L plus group-broadcast saturation flags.

Jiang, Kim & Dally (ISCA 2009) extend UGAL-L with remote information:
each router continuously tells the other routers of its group whether
each of its global channels is saturated, piggybacking the flags on
regular packets.  The injection decision then combines the (possibly
stale) remote flags with the local queue comparison:

- minimal global channel flagged, Valiant's not  -> route nonminimally;
- Valiant's global channel flagged, minimal's not -> route minimally;
- otherwise                                        -> UGAL-L comparison.

Modelling note (documented divergence): instead of simulating the
piggyback encoding we refresh a per-group flag table every
``pb_update_period`` cycles (default: the local link latency).  Remote
routers therefore act on information that is up to one local-link
latency stale — the same information at the same staleness as the
original scheme, without simulating the carrier packets.

A global channel is flagged saturated when the estimated occupancy of
its downstream buffer exceeds ``pb_threshold`` (fraction of capacity).
The paper tuned PB's thresholds empirically, as we do (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.routing.base import RoutingAlgorithm

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import Network


class PiggybackRouting(RoutingAlgorithm):
    """The PB mechanism of §V."""

    name = "pb"
    stall_is_final = True
    route = RoutingAlgorithm.route_ordered_minimal

    def __init__(self, network: "Network", rng: random.Random) -> None:
        super().__init__(network, rng)
        # One flag per (router, global slot); index rid * h + k.  This is
        # the *broadcast* (group-visible) state, refreshed in tick().
        self._flags = [False] * (self.topo.num_routers * self.topo.h)
        self._last_update = -1

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        period = self.config.pb_period
        if self._last_update >= 0 and cycle - self._last_update < period:
            return
        self._last_update = cycle
        h = self.topo.h
        threshold = self.config.pb_threshold
        flags = self._flags
        node_ports = self.topo.node_ports
        local_ports = self.topo.local_ports
        for rt in self.network.routers:
            base = rt.rid * h
            for k in range(h):
                ch = rt.out[node_ports + local_ports + k]
                flags[base + k] = ch.occupancy_fraction() > threshold

    def channel_flag(self, group: int, dst_group: int) -> bool:
        """Broadcast saturation flag of the global channel
        ``group -> dst_group`` (as seen by every router of ``group``)."""
        owner_r, k = self.topo.group_route(group, dst_group)
        owner_rid = self.topo.router_id(group, owner_r)
        return self._flags[owner_rid * self.topo.h + k]

    # ------------------------------------------------------------------
    def on_inject(self, pkt) -> None:
        if pkt.dst_group == pkt.src_group:
            return  # intra-group traffic is minimal
        mg = self.pick_intermediate_group(pkt)
        src_group = pkt.src_group
        flag_min = self.channel_flag(src_group, pkt.dst_group)
        flag_val = self.channel_flag(src_group, mg)
        if flag_min and not flag_val:
            nonmin = True
        elif flag_val and not flag_min:
            nonmin = False
        else:
            rt = self.network.routers[self.topo.node_router(pkt.src)]
            q_min = self.output_occupancy_phits(
                rt, self.topo.min_output_port(rt.rid, pkt.dst)
            )
            q_val = self.output_occupancy_phits(
                rt, self.topo.min_output_port_to_group(rt.rid, mg)
            )
            nonmin = q_min > 2 * q_val + self.config.ugal_offset
        if nonmin:
            pkt.intermediate_group = mg
