"""PAR: Progressive Adaptive Routing (Jiang, Kim & Dally, ISCA 2009).

PAR sits between UGAL-L and OFAR, and the paper's introduction singles
it out: it is the *only* prior mechanism that can revisit the
misrouting decision after injection — but just within the source group,
and it pays with an **additional local VC** (4 instead of 3) because
the diverted path takes two local hops in the source group
(``l-l-g-l-g-l``) while still relying on an ascending VC order.

Implementation: a packet starts minimal; at the first time it is routed
at each source-group router (while it has taken no global hop and not
yet diverted), the router compares the occupancy of the minimal output
against the occupancy toward a randomly drawn intermediate group, and
diverts iff ``q_min > 2*q_val + offset`` (the same UGAL comparison as at
injection).  Once diverted — or once the packet leaves the source group
— the decision is final.

The ascending VC map generalizes to *per-class hop indices*: local hop
``i`` uses local VC ``i`` (0..3), global hop ``j`` uses global VC ``j``
(0..1); indices strictly increase along any legal PAR path, so the
channel dependency graph stays acyclic.

PAR is an extension baseline (the paper's figures do not include it);
it is exercised by the ablation benchmarks to show where source-group
adaptivity alone runs out: it cannot avoid saturated local links in
*intermediate* groups, so it collapses at ADV+h just like VAL/PB.
"""

from __future__ import annotations

from repro.network.router import KIND_MIN, Router
from repro.routing.base import RoutingAlgorithm
from repro.topology.dragonfly import PortKind


class PARRouting(RoutingAlgorithm):
    """Progressive Adaptive Routing (needs 4 local / 2 global VCs)."""

    name = "par"
    # ``_maybe_divert`` acts once per router, before the first request
    # (the memo it checks is written by that request), so a re-ask is
    # the same fixed (port, VC) request.
    stall_is_final = True

    def ordered_vc(self, pkt, out_kind: PortKind) -> int:
        """Per-class hop-index VC map (one more local VC than VAL)."""
        if out_kind is PortKind.NODE:
            return 0
        if out_kind is PortKind.LOCAL:
            return pkt.local_hops
        return pkt.global_hops

    def _maybe_divert(self, rt: Router, pkt) -> None:
        """Re-evaluate min-vs-Valiant once per source-group router."""
        if (
            pkt.global_hops > 0
            or pkt.intermediate_group >= 0
            or rt.group != pkt.src_group
            or pkt.dst_group == rt.group
        ):
            return
        if pkt.cache_rid == rt.rid:
            return  # already evaluated at this router
        mg = self.pick_intermediate_group(pkt)
        q_min = self.output_occupancy_phits(
            rt, self.topo.min_output_port(rt.rid, pkt.dst)
        )
        q_val = self.output_occupancy_phits(
            rt, self.topo.min_output_port_to_group(rt.rid, mg)
        )
        if q_min > 2 * q_val + self.config.ugal_offset:
            pkt.intermediate_group = mg

    def route(self, rt: Router, in_port: int, in_vc: int, pkt, cycle: int):
        self._maybe_divert(rt, pkt)
        port = self.min_output(rt, pkt)
        ch = rt.out[port]
        vc = self.ordered_vc(pkt, ch.kind)
        if rt.min_available(port, cycle, vc, pkt.size):
            return (port, vc, KIND_MIN)
        return None
