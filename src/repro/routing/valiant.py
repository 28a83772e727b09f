"""VAL: Valiant randomized routing.

Every packet is first sent minimally to a uniformly random intermediate
group (different from both the source and the destination group, the
general case of §III), then minimally to its destination — the path
template ``l1 - g1 - l2 - g2 - l3``.  This balances global-link load
under adversarial patterns at the cost of doubling global utilization,
bounding throughput at 0.5 phit/(node·cycle); and, as §III shows, it
still collapses to ``1/h`` under ``ADV+h`` because the intermediate
local hop ``l2`` concentrates on single local links.
"""

from __future__ import annotations

from repro.routing.base import RoutingAlgorithm


class ValiantRouting(RoutingAlgorithm):
    """The VAL mechanism of §V."""

    name = "val"
    stall_is_final = True
    route = RoutingAlgorithm.route_ordered_minimal

    def on_inject(self, pkt) -> None:
        # Traffic internal to the source group is routed minimally:
        # sending it across two global links would only waste bandwidth
        # and there is no single-bottleneck to spread (the paper applies
        # Valiant to inter-group traffic).
        if pkt.dst_group != pkt.src_group:
            pkt.intermediate_group = self.pick_intermediate_group(pkt)
