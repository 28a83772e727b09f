"""UGAL-L: source-adaptive routing on local (injection-router) state.

At injection, a random Valiant path is drawn and compared against the
minimal path using only the occupancy of the candidate output queues at
the injection router (Kim et al., ISCA 2008): route minimally iff

    q_min <= 2 * q_val + offset        [phits]

The factor 2 accounts for the Valiant path being roughly twice as long;
``offset`` (config ``ugal_offset``) biases toward minimal at low load.
The decision is final — no in-transit adaptation — and deadlock freedom
again comes from the ascending VC order.

UGAL-L is not plotted in the paper's figures but is the decision core of
PB (which extends it with remote saturation flags), so it is provided
both as a building block and as an extra baseline.
"""

from __future__ import annotations

from repro.routing.base import RoutingAlgorithm


class UGALRouting(RoutingAlgorithm):
    """UGAL-L as described with the dragonfly (ISCA 2008)."""

    name = "ugal"
    stall_is_final = True
    route = RoutingAlgorithm.route_ordered_minimal

    def on_inject(self, pkt) -> None:
        if pkt.dst_group == pkt.src_group:
            return  # intra-group traffic is minimal
        mg = self.pick_intermediate_group(pkt)
        rt = self.network.routers[self.topo.node_router(pkt.src)]
        q_min = self.output_occupancy_phits(rt, self.topo.min_output_port(rt.rid, pkt.dst))
        q_val = self.output_occupancy_phits(
            rt, self.topo.min_output_port_to_group(rt.rid, mg)
        )
        if q_min > 2 * q_val + self.config.ugal_offset:
            pkt.intermediate_group = mg
