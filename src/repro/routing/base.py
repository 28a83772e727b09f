"""Base class and shared helpers for routing algorithms.

A routing algorithm answers one question per allocation iteration: for
the head packet of a given input (port, VC), which single output request
``(out_port, out_vc, kind)`` should be placed this iteration — or none?
The allocator re-asks on every iteration of every cycle while the packet
waits, so adaptive algorithms (OFAR) can change their answer as ports
get claimed, credits drain, and occupancies move; a routing whose answer
cannot change within a cycle sets ``stall_is_final`` to skip the re-ask.

Shared machinery:

- the minimal-output oracle, Valiant-phase aware (packets with a live
  ``intermediate_group`` are routed toward that group first);
- the ascending-VC map used by every baseline for deadlock freedom
  (local hop -> VC = number of global hops taken so far; global hop ->
  VC = global-hop index), per §I of the paper.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.network.router import CODE_NODE, KIND_MIN, Router
from repro.topology.dragonfly import PortKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import Network
    from repro.network.packet import Packet


class RoutingAlgorithm(ABC):
    """Strategy object shared by all routers of one simulation."""

    #: Human-readable mechanism name (matches the config string).
    name: str = "?"

    #: The allocator may stop after a collision-free pass even if some
    #: head stalled (see ``Router.allocate``).  True for routings whose
    #: only request is one fixed (port, VC) per head.
    stall_is_final = False

    def __init__(self, network: "Network", rng: random.Random) -> None:
        self.network = network
        self.topo = network.topo
        self.config = network.config
        self.rng = rng
        # Minimal-output memo tables: the topology oracle is a pure
        # closed form, so (router, destination) pairs can be tabulated
        # as they occur.  Keys are flattened ints (cheaper to hash than
        # tuples on the allocator's hot path).
        self._min_port_cache: dict[int, int] = {}
        self._group_port_cache: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_inject(self, pkt: "Packet") -> None:
        """Injection-time decision (Valiant/UGAL/PB pick a path here)."""

    def tick(self, cycle: int) -> None:
        """Called once per cycle before allocation (PB broadcasts here)."""

    @abstractmethod
    def route(
        self, rt: Router, in_port: int, in_vc: int, pkt: "Packet", cycle: int
    ) -> tuple[int, int, int] | None:
        """Output request for the head packet, or None to stall."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def min_output(self, rt: Router, pkt: "Packet") -> int:
        """Preferred output port: minimal toward the packet's current
        target (its Valiant intermediate group if still pending,
        otherwise the destination node).

        Memoized on the packet: the answer only changes when the packet
        moves to another router or completes its Valiant phase, while
        the allocator re-asks on every iteration of every cycle.
        """
        ig = pkt.intermediate_group
        rid = rt.rid
        if pkt.cache_rid == rid and pkt.cache_ig == ig:
            return pkt.cache_port
        topo = self.topo
        if ig >= 0 and ig != rt.group:
            key = rid * topo.num_groups + ig
            port = self._group_port_cache.get(key)
            if port is None:
                port = topo.min_output_port_to_group(rid, ig)
                self._group_port_cache[key] = port
        else:
            key = rid * topo.num_nodes + pkt.dst
            port = self._min_port_cache.get(key)
            if port is None:
                port = topo.min_output_port(rid, pkt.dst)
                self._min_port_cache[key] = port
        pkt.cache_rid = rid
        pkt.cache_ig = ig
        pkt.cache_port = port
        return port

    def ordered_vc(self, pkt: "Packet", out_kind: PortKind) -> int:
        """Ascending-VC assignment (deadlock freedom for the baselines).

        Local links are used on odd hops of the canonical
        ``l1-g1-l2-g2-l3`` template and global links on even hops, so the
        number of global hops already taken indexes the next VC on
        either link class.  Shorter paths skip indices, preserving the
        ascending order (see §I).
        """
        if out_kind is PortKind.NODE:
            return 0
        return pkt.global_hops

    def route_ordered_minimal(
        self, rt: Router, in_port: int, in_vc: int, pkt: "Packet", cycle: int
    ) -> tuple[int, int, int] | None:
        """Request the minimal output on the ordered VC, or stall.

        This is the whole per-hop behaviour of MIN, VAL, UGAL-L and PB
        (their only routing freedom is exercised at injection time), so
        they bind it directly as ``route``.  It is ``min_output`` +
        ``ordered_vc`` + ``min_available`` in one frame: the memo hit,
        the base VC map and the port test are inlined, as
        ``OFARRouting.route`` inlines its helpers.
        """
        if pkt.cache_rid == rt.rid and pkt.cache_ig == pkt.intermediate_group:
            port = pkt.cache_port
        else:
            port = self.min_output(rt, pkt)
        ch = rt.out[port]
        vc = 0 if ch.kind_code == CODE_NODE else pkt.global_hops
        if (
            not ch.failed
            and ch.busy_until <= cycle
            and port not in rt._claimed_out
            and ch.credits[vc] >= pkt.size
        ):
            return (port, vc, KIND_MIN)
        return None

    # ------------------------------------------------------------------
    # Injection-time occupancy probes (UGAL-L and PB)
    # ------------------------------------------------------------------
    def output_occupancy_phits(self, rt: Router, port: int) -> int:
        """Estimated downstream occupancy of a port's data VCs, in phits
        (derived from outstanding credits at the sender)."""
        ch = rt.out[port]
        free = sum(ch.credits[v] for v in ch.data_vcs)
        return ch.data_capacity - free

    def pick_intermediate_group(self, pkt: "Packet") -> int:
        """Random intermediate group different from source and
        destination groups (the general Valiant case of §III)."""
        num_groups = self.topo.num_groups
        if num_groups <= 2:
            raise ValueError("Valiant misrouting needs at least 3 groups")
        while True:
            g = self.rng.randrange(num_groups)
            if g != pkt.src_group and g != pkt.dst_group:
                return g
