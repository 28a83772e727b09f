"""The input-buffered virtual cut-through router of §V.

Model summary (all paper defaults):

- input FIFO buffers per (port, VC); 3 VCs on local and injection ports,
  2 on global ports;
- credit-based flow control: the sender tracks free space of the
  downstream buffer per VC; credits are debited at grant time and
  returned (with the link's latency) when the packet later leaves the
  downstream buffer;
- no internal speedup: one packet transfer may start per input port and
  per output port per cycle, and a transfer of an ``s``-phit packet
  keeps both ports and the link busy for ``s`` cycles;
- an iterative separable batch allocator (default 3 iterations) with
  least-recently-served arbiters at the input stage (VC selection per
  input port) and the output stage (input selection per output port);
- the routing decision of a head packet is (re-)evaluated on every
  allocation iteration of every cycle while the packet waits, which is
  what enables OFAR's on-the-fly adaptivity (routings with one fixed
  request stop after a collision-free iteration, see ``allocate``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.arbiter import LRSArbiter
from repro.network.buffers import Buffer
from repro.topology.dragonfly import PortKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.routing.base import RoutingAlgorithm

# Request kinds: what a grant means for the packet's header state.
KIND_MIN = 0  # minimal (or Valiant-phase minimal) hop
KIND_MIS_LOCAL = 1  # OFAR nonminimal local hop
KIND_MIS_GLOBAL = 2  # OFAR nonminimal global hop
KIND_RING_ENTER = 3  # deflection into the escape ring (needs a bubble)
KIND_RING_MOVE = 4  # advance along the escape ring
KIND_RING_EXIT = 5  # leave the escape ring through a minimal output

# OutputChannel.kind_code values (see OutputChannel.__init__).
CODE_NODE = 0
CODE_LOCAL = 1
CODE_GLOBAL = 2
CODE_RING = 3

_KIND_CODES = {
    PortKind.NODE: CODE_NODE,
    PortKind.LOCAL: CODE_LOCAL,
    PortKind.GLOBAL: CODE_GLOBAL,
    PortKind.RING: CODE_RING,
}

KIND_NAMES = {
    KIND_MIN: "min",
    KIND_MIS_LOCAL: "misroute-local",
    KIND_MIS_GLOBAL: "misroute-global",
    KIND_RING_ENTER: "ring-enter",
    KIND_RING_MOVE: "ring-move",
    KIND_RING_EXIT: "ring-exit",
}


class PendingSet(dict):
    """Insertion-ordered set of (port, vc) keys with history-independent
    iteration order.

    The allocator iterates ``Router.pending`` to build its request list,
    so iteration order is behaviorally significant.  A builtin ``set``
    iterates in hash-table order, which depends on the table's entire
    insert/discard history and therefore cannot be reconstructed from
    the current elements alone — that would make bit-exact
    snapshot/restore unsound.  A dict iterates in pure insertion order,
    fully determined by the key sequence, so a restored router resumes
    with exactly the iteration order the original would have had.
    Set-style mutators cover the existing call sites; hot paths use raw
    dict operations (``pending[key] = None`` / ``pending.pop(key,
    None)``).
    """

    __slots__ = ()

    def add(self, key: tuple[int, int]) -> None:
        self[key] = None

    def discard(self, key: tuple[int, int]) -> None:
        self.pop(key, None)

    def update(self, keys) -> None:  # a set-of-tuples, not a mapping
        for key in keys:
            self[key] = None


class OutputChannel:
    """Sender-side view of one outgoing channel of a router.

    Tracks the credit count per downstream VC, the serialization state
    of the physical channel and, for channels that carry the embedded
    escape ring, which VC index is the ring VC.
    """

    __slots__ = (
        "port",
        "kind",
        "latency",
        "dest_router",
        "dest_port",
        "dest_node",
        "num_vcs",
        "capacity",
        "credits",
        "busy_until",
        "ring_vc",
        "kind_code",
        "data_vcs",
        "data_capacity",
        "nd",
        "dv0",
        "dv1",
        "dv2",
        "dest_rt",
        "dest_bufs",
        "dest_keys",
        "sent_phits",
        "job_phits",
        "failed",
    )

    def __init__(
        self,
        port: int,
        kind: PortKind,
        latency: int,
        num_vcs: int,
        capacity: int,
        dest_router: int = -1,
        dest_port: int = -1,
        dest_node: int = -1,
        ring_vc: int = -1,
    ) -> None:
        self.port = port
        self.kind = kind
        # Small-int mirror of ``kind`` (index into _KIND_CODES) for the
        # grant executor's hot path — int compares beat enum identity
        # chains there.
        self.kind_code = _KIND_CODES[kind]
        self.latency = latency
        self.dest_router = dest_router
        self.dest_port = dest_port
        self.dest_node = dest_node
        self.num_vcs = num_vcs
        self.capacity = capacity  # phits per VC
        self.credits = [capacity] * num_vcs
        self.busy_until = 0
        self.ring_vc = ring_vc
        # Data VCs exclude the embedded ring VC (if any): misrouting
        # thresholds and VC selection must not consume escape resources.
        self.data_vcs = [v for v in range(num_vcs) if v != ring_vc]
        self.data_capacity = capacity * len(self.data_vcs)
        # Unrolled mirrors of ``data_vcs`` for the routing hot path: the
        # credit-sum and best-VC scans over 1-3 data VCs are executed
        # hundreds of times per cycle, and indexing ``dv0``/``dv1``/
        # ``dv2`` directly beats iterating the list.  ``nd`` is the
        # data-VC count; unused slots hold -1.
        dv = self.data_vcs
        self.nd = len(dv)
        self.dv0 = dv[0] if len(dv) > 0 else -1
        self.dv1 = dv[1] if len(dv) > 1 else -1
        self.dv2 = dv[2] if len(dv) > 2 else -1
        self.sent_phits = 0
        # Per-job phit counts (multi-job workloads only): job index ->
        # phits this channel carried for that job.  Stays empty for
        # single-tenant traffic (packets with job == -1).
        self.job_phits: dict[int, int] = {}
        # Destination-side views, wired by Network after construction
        # for inter-router channels (None for ejection channels and
        # stand-alone unit tests): the receiving Router, its per-VC
        # input-buffer list and shared (port, vc) pending-key tuples.
        self.dest_rt = None
        self.dest_bufs = None
        self.dest_keys = None
        # Fault injection (§VII reliability): a failed channel accepts
        # no transfers and reports full occupancy, so adaptive routing
        # steers around it.
        self.failed = False

    def occupancy_fraction(self) -> float:
        """Estimated downstream occupancy of the *data* VCs, as a
        fraction in [0, 1], derived from outstanding credits.

        This is the Q value used by the misrouting thresholds of §IV-B;
        using a fraction makes local (32-phit) and global (256-phit)
        FIFOs comparable, as the paper prescribes.
        """
        if self.failed or self.data_capacity == 0:
            return 1.0
        credits = self.credits
        nd = self.nd
        if nd == 3:
            free = credits[self.dv0] + credits[self.dv1] + credits[self.dv2]
        elif nd == 2:
            free = credits[self.dv0] + credits[self.dv1]
        elif nd == 1:
            free = credits[self.dv0]
        else:
            free = 0
            for v in self.data_vcs:
                free += credits[v]
        return 1.0 - free / self.data_capacity

    def best_data_vc(self, size: int) -> int:
        """Data VC with the most credits, requiring at least ``size``.

        Returns -1 when no data VC can hold a whole packet (VCT) or the
        channel has failed (a failed link can never accept a packet, so
        it must count as hard-blocked for escape-ring purposes).
        Ties break toward the lowest VC index for determinism.
        """
        if self.failed:
            return -1
        credits = self.credits
        nd = self.nd
        # Unrolled first-max scans (ties toward the earliest data VC,
        # exactly like the generic loop below).
        if nd == 3:
            best = self.dv0
            best_credits = credits[best]
            c = credits[self.dv1]
            if c > best_credits:
                best_credits = c
                best = self.dv1
            c = credits[self.dv2]
            if c > best_credits:
                best_credits = c
                best = self.dv2
            return best if best_credits >= size else -1
        if nd == 2:
            c0 = credits[self.dv0]
            c1 = credits[self.dv1]
            if c1 > c0:
                return self.dv1 if c1 >= size else -1
            return self.dv0 if c0 >= size else -1
        if nd == 1:
            return self.dv0 if credits[self.dv0] >= size else -1
        best = -1
        best_credits = size - 1
        for v in self.data_vcs:
            c = credits[v]
            if c > best_credits:
                best_credits = c
                best = v
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OutputChannel(port={self.port}, {self.kind.value}, "
            f"credits={self.credits}, busy_until={self.busy_until})"
        )


class Router:
    """One dragonfly router: input buffers, credits and the allocator."""

    __slots__ = (
        "rid",
        "group",
        "index",
        "in_bufs",
        "in_kind",
        "in_kind_codes",
        "in_busy",
        "upstream",
        "up_credit",
        "out",
        "pending",
        "scheduled",
        "_in_arbiters",
        "_out_arbiters",
        "iterations",
        "packet_size",
        "read_ports",
        "_claimed_out",
        "_matched_in",
        "congestion_cache",
    )

    def __init__(
        self,
        rid: int,
        group: int,
        index: int,
        packet_size: int,
        iterations: int,
        read_ports: int = 1,
    ) -> None:
        self.rid = rid
        self.group = group
        self.index = index
        self.packet_size = packet_size
        self.iterations = iterations
        self.read_ports = read_ports
        self.in_bufs: list[list[Buffer]] = []
        self.in_kind: list[PortKind] = []
        # Small-int mirror (see _KIND_CODES) for hot-path comparisons.
        self.in_kind_codes: list[int] = []
        # Per input port: busy-until time of each read slot.  A port can
        # start one transfer per free slot per cycle (§VIII multi-read-
        # port extension; the classic router has one slot).
        self.in_busy: list[list[int]] = []
        # (upstream router id, upstream output port) per input port, or
        # None for injection and physical-ring-head ports handled elsewhere.
        self.upstream: list[tuple[int, int] | None] = []
        # (upstream output channel, reverse latency) per input port,
        # precomputed by the Network once wiring is complete (the grant
        # executor's credit return needs both every transfer).
        self.up_credit: list[tuple[OutputChannel, int] | None] = []
        self.out: list[OutputChannel | None] = []
        self.pending: PendingSet = PendingSet()
        # Whether the network's active-set scheduler currently tracks
        # this router (kept in lockstep with ``pending`` by Network).
        self.scheduled = False
        self._in_arbiters: dict[int, LRSArbiter] = {}
        self._out_arbiters: dict[int, LRSArbiter] = {}
        self._claimed_out: set[int] = set()
        self._matched_in: set[tuple[int, int]] = set()
        # (cycle, mean occupancy) memo for congestion-controlled injection.
        self.congestion_cache: tuple[int, float] = (-1, 0.0)

    # ------------------------------------------------------------------
    # Wiring (done once by Network)
    # ------------------------------------------------------------------
    def add_input_port(
        self,
        kind: PortKind,
        num_vcs: int,
        capacity: int,
        upstream: tuple[int, int] | None,
    ) -> int:
        """Append an input port; returns its index."""
        port = len(self.in_bufs)
        self.in_bufs.append([Buffer(capacity) for _ in range(num_vcs)])
        self.in_kind.append(kind)
        self.in_kind_codes.append(_KIND_CODES[kind])
        self.in_busy.append([0] * self.read_ports)
        self.upstream.append(upstream)
        return port

    def add_output_channel(self, channel: OutputChannel) -> None:
        """Register the output channel for ``channel.port`` (ports must be
        added in index order, possibly with None gaps filled first)."""
        while len(self.out) <= channel.port:
            self.out.append(None)
        self.out[channel.port] = channel

    # ------------------------------------------------------------------
    # Allocation-time predicates used by routing algorithms
    # ------------------------------------------------------------------
    def free_read_slots(self, port: int, cycle: int) -> int:
        """Read slots of an input port that can start a transfer now."""
        count = 0
        for t in self.in_busy[port]:
            if t <= cycle:
                count += 1
        return count

    def occupy_read_slot(self, port: int, cycle: int) -> None:
        """Claim one free read slot for a transfer starting this cycle."""
        slots = self.in_busy[port]
        for i, t in enumerate(slots):
            if t <= cycle:
                slots[i] = cycle + self.packet_size
                return
        raise AssertionError(f"no free read slot on router {self.rid} port {port}")

    def out_port_free(self, port: int, cycle: int) -> bool:
        """Output port can start a new transfer this cycle."""
        ch = self.out[port]
        return (
            ch is not None
            and not ch.failed
            and ch.busy_until <= cycle
            and port not in self._claimed_out
        )

    def min_available(self, port: int, cycle: int, vc: int, size: int) -> bool:
        """Port free and the given VC has room for a whole packet."""
        if not self.out_port_free(port, cycle):
            return False
        return self.out[port].credits[vc] >= size

    # ------------------------------------------------------------------
    # The separable iterative batch allocator
    # ------------------------------------------------------------------
    def allocate(self, cycle: int, routing: "RoutingAlgorithm", network) -> int:
        """Run one cycle of allocation; returns the number of grants.

        ``network.execute_grant(router, in_port, in_vc, out_port,
        out_vc, kind, cycle)`` is invoked for every grant; the network
        layer executes the transfer (credit bookkeeping, event
        scheduling, metric updates).

        The iterations stop early after a pass without an input or
        output collision if no head stalled, or if the routing sets
        ``stall_is_final``.  Such a routing's only request is one fixed
        (port, VC); within a cycle grants only take credits, set
        ``busy_until`` and claim ports, so a head that stalled stays
        stalled, and a collision-free pass has no losers.  Every head
        the next pass could ask is then matched, read-busy or stalled,
        and it would request nothing — for any read-port count.  After
        a collision the loop goes on: an input-stage loser may win
        elsewhere.
        """
        pending = self.pending
        if not pending:
            return 0
        in_bufs = self.in_bufs
        in_busy = self.in_busy
        route = routing.route
        single_read = self.read_ports == 1
        if len(pending) == 1:
            # Fast path: one waiting head packet means at most one grant
            # and no arbitration, so the whole proposals/winners
            # machinery reduces to a single route call.  (On iteration 2
            # the matched pair would be skipped and the loop would break
            # with no further requests — identical behavior.)
            for key in pending:
                break
            in_port, in_vc = key
            if single_read:
                if in_busy[in_port][0] > cycle:
                    return 0
            elif self.free_read_slots(in_port, cycle) <= 0:
                return 0
            fifo = in_bufs[in_port][in_vc]._fifo
            if not fifo:
                return 0
            req = route(self, in_port, in_vc, fifo[0], cycle)
            if req is None:
                return 0
            network.execute_grant(self, in_port, in_vc, req[0], req[1], req[2], cycle)
            return 1
        # Both sets are empty on entry: every exit below clears them.
        claimed_out = self._claimed_out
        # (port, vc) pairs granted this cycle; with one read port the
        # ``ready`` mask below already excludes a granted port.
        matched_vc = self._matched_in
        execute_grant = network.execute_grant
        stall_is_final = getattr(routing, "stall_is_final", False)
        grants = 0
        # Read budget: bit p of ``ready`` is set while input port p can
        # still start a transfer this cycle.  It is computed the first
        # time the port is seen; with several read ports ``reads_left``
        # counts the port's free slots down, one per grant.
        checked = 0  # ports whose read budget was computed this cycle
        ready = 0
        reads_left: dict[int, int] = {}
        reqs: list[tuple[int, int, int, int, int]] = []
        for _ in range(self.iterations):
            # Stage 1 collects every request into a flat list while two
            # int bitmasks watch for input (same in_port twice) and
            # output (same out_port twice) collisions.  Without one — the
            # overwhelmingly common case — every request wins both
            # arbiters trivially, so the requests are the winners, in
            # order; with one, _arbitrate runs the separable stages over
            # the same list.
            conflict = False
            stalled = False
            seen_in = 0
            seen_out = 0
            reqs.clear()
            for key in pending:
                if not single_read and key in matched_vc:
                    continue
                in_port, in_vc = key
                bit = 1 << in_port
                if not checked & bit:
                    checked |= bit
                    if single_read:
                        if in_busy[in_port][0] <= cycle:
                            ready |= bit
                    else:
                        left = self.free_read_slots(in_port, cycle)
                        if left:
                            ready |= bit
                            reads_left[in_port] = left
                if not ready & bit:
                    continue
                fifo = in_bufs[in_port][in_vc]._fifo
                if not fifo:
                    continue
                req = route(self, in_port, in_vc, fifo[0], cycle)
                if req is None:
                    stalled = True
                    continue
                out_port, out_vc, kind = req
                reqs.append((in_port, in_vc, out_port, out_vc, kind))
                out_bit = 1 << out_port
                if seen_in & bit or seen_out & out_bit:
                    conflict = True
                seen_in |= bit
                seen_out |= out_bit
            if not reqs:
                break
            winners = self._arbitrate(reqs) if conflict else reqs
            for in_port, in_vc, out_port, out_vc, kind in winners:
                claimed_out.add(out_port)
                if single_read:
                    ready &= ~(1 << in_port)
                else:
                    matched_vc.add((in_port, in_vc))
                    left = reads_left[in_port] - 1
                    reads_left[in_port] = left
                    if not left:
                        ready &= ~(1 << in_port)
                grants += 1
                execute_grant(self, in_port, in_vc, out_port, out_vc, kind, cycle)
            if not conflict and (not stalled or stall_is_final):
                # No request lost, and a re-ask of the stalled heads
                # could only stall again (see the docstring): skip the
                # pass.  Otherwise an input-stage loser may win
                # elsewhere.  A stalled OFAR head cannot: with one
                # packet size no grant this cycle frees its minimal
                # channel's data VCs, and its misroute and ring
                # candidates only shrink.  It is still re-asked because
                # each ask counts ``ring_entry_stalls`` (state_digest).
                break
        claimed_out.clear()
        matched_vc.clear()
        return grants

    def _arbitrate(
        self, reqs: list[tuple[int, int, int, int, int]]
    ) -> list[tuple[int, int, int, int, int]]:
        """The separable stages over one iteration's colliding requests.

        Input stage: each input port picks one of its requesting VCs.
        Output stage: each output port not claimed by an earlier
        iteration picks one of the inputs whose pick targets it.  Both
        stages use LRS arbiters, consulted only when there is more than
        one candidate.  Returns the winning ``(in_port, in_vc, out_port,
        out_vc, kind)`` requests in grant order (first appearance of the
        output port).  Granting the winners touches neither the arbiters
        nor ``_claimed_out``, so the caller may execute them afterwards.
        """
        proposals: dict[int, list[tuple[int, int, int, int]]] = {}
        for in_port, in_vc, out_port, out_vc, kind in reqs:
            proposals.setdefault(in_port, []).append((in_vc, out_port, out_vc, kind))
        candidates: dict[int, list[tuple[int, int, int, int]]] = {}
        for in_port, vc_reqs in proposals.items():
            if len(vc_reqs) == 1:
                in_vc, out_port, out_vc, kind = vc_reqs[0]
            else:
                in_vc, out_port, out_vc, kind = _lrs_pick(
                    self._in_arbiters, in_port, vc_reqs
                )
            candidates.setdefault(out_port, []).append((in_port, in_vc, out_vc, kind))
        claimed_out = self._claimed_out
        winners = []
        for out_port, cands in candidates.items():
            if out_port in claimed_out:
                continue
            if len(cands) == 1:
                in_port, in_vc, out_vc, kind = cands[0]
            else:
                in_port, in_vc, out_vc, kind = _lrs_pick(
                    self._out_arbiters, out_port, cands
                )
            winners.append((in_port, in_vc, out_port, out_vc, kind))
        return winners

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Router(rid={self.rid}, g={self.group}, r={self.index})"


def _lrs_pick(arbiters: dict[int, LRSArbiter], key: int, cands: list[tuple]) -> tuple:
    """The candidate whose first field wins the LRS arbiter ``arbiters[key]``
    (created on the key's first contention)."""
    arb = arbiters.get(key)
    if arb is None:
        arb = arbiters[key] = LRSArbiter()
    won = arb.grant([c[0] for c in cands])
    return next(c for c in cands if c[0] == won)
