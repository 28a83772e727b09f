"""Unit tests for OutputChannel and the router's separable allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.buffers import Buffer
from repro.network.packet import Packet
from repro.network.router import (
    KIND_MIN,
    OutputChannel,
    Router,
)
from repro.topology.dragonfly import PortKind


def mk_packet(pid=0, size=8, dst=99):
    return Packet(
        pid=pid, src=0, dst=dst, size=size, created_cycle=0,
        dst_router=dst // 2, dst_group=0, src_group=0,
    )


class TestOutputChannel:
    def mk(self, num_vcs=3, capacity=32, ring_vc=-1, kind=PortKind.LOCAL):
        return OutputChannel(
            port=2, kind=kind, latency=10, num_vcs=num_vcs, capacity=capacity,
            dest_router=1, dest_port=3, ring_vc=ring_vc,
        )

    def test_initial_credits_full(self):
        ch = self.mk()
        assert ch.credits == [32, 32, 32]
        assert ch.occupancy_fraction() == 0.0

    def test_occupancy_fraction(self):
        ch = self.mk()
        ch.credits = [32, 16, 0]
        assert ch.occupancy_fraction() == pytest.approx(0.5)

    def test_ring_vc_excluded_from_data(self):
        ch = self.mk(num_vcs=4, ring_vc=3)
        assert ch.data_vcs == [0, 1, 2]
        assert ch.data_capacity == 96
        ch.credits = [0, 0, 0, 32]  # only the ring VC has room
        assert ch.occupancy_fraction() == 1.0
        assert ch.best_data_vc(8) == -1

    def test_best_data_vc_max_credits(self):
        ch = self.mk()
        ch.credits = [10, 24, 24]
        assert ch.best_data_vc(8) == 1  # tie toward lowest index

    def test_best_data_vc_requires_whole_packet(self):
        ch = self.mk()
        ch.credits = [7, 6, 5]
        assert ch.best_data_vc(8) == -1
        assert ch.best_data_vc(5) == 0


class StubRouting:
    """Routes every head packet to a fixed output (port, vc)."""

    def __init__(self, out_port, out_vc=0):
        self.out_port = out_port
        self.out_vc = out_vc

    def route(self, rt, in_port, in_vc, pkt, cycle):
        if not rt.min_available(self.out_port, cycle, self.out_vc, pkt.size):
            return None
        return (self.out_port, self.out_vc, KIND_MIN)


class RecordingNetwork:
    """Captures grants and mimics the credit/busy side effects."""

    def __init__(self):
        self.grants = []

    def execute_grant(self, rt, in_port, in_vc, out_port, out_vc, kind, cycle):
        pkt = rt.in_bufs[in_port][in_vc].pop()
        if not rt.in_bufs[in_port][in_vc]:
            rt.pending.discard((in_port, in_vc))
        ch = rt.out[out_port]
        ch.busy_until = cycle + pkt.size
        rt.occupy_read_slot(in_port, cycle)
        ch.credits[out_vc] -= pkt.size
        self.grants.append((in_port, in_vc, out_port, out_vc, kind, pkt.pid))


def mk_router(num_inputs=3, num_vcs=2, capacity=32, iterations=3, read_ports=1):
    rt = Router(rid=0, group=0, index=0, packet_size=8, iterations=iterations,
                read_ports=read_ports)
    for _ in range(num_inputs):
        rt.add_input_port(PortKind.LOCAL, num_vcs, capacity, upstream=None)
    for port in range(num_inputs):
        rt.add_output_channel(
            OutputChannel(
                port=port, kind=PortKind.LOCAL, latency=10,
                num_vcs=num_vcs, capacity=capacity, dest_router=9, dest_port=0,
            )
        )
    return rt


class TestAllocator:
    def test_idle_router_no_grants(self):
        rt = mk_router()
        net = RecordingNetwork()
        assert rt.allocate(0, StubRouting(0), net) == 0

    def test_single_packet_granted(self):
        rt = mk_router()
        net = RecordingNetwork()
        rt.in_bufs[0][0].push(mk_packet(1))
        rt.pending.add((0, 0))
        assert rt.allocate(0, StubRouting(2), net) == 1
        assert net.grants == [(0, 0, 2, 0, KIND_MIN, 1)]
        assert not rt.pending

    def test_output_conflict_one_winner(self):
        rt = mk_router()
        net = RecordingNetwork()
        for in_port in (0, 1):
            rt.in_bufs[in_port][0].push(mk_packet(in_port))
            rt.pending.add((in_port, 0))
        grants = rt.allocate(0, StubRouting(2), net)
        # Only one packet can win output 2 this cycle.
        assert grants == 1
        assert len(rt.pending) == 1

    def test_distinct_outputs_parallel_grants(self):
        rt = mk_router()
        net = RecordingNetwork()

        class PerInputRouting:
            def route(self, rt, in_port, in_vc, pkt, cycle):
                return (in_port, 0, KIND_MIN)  # input i -> output i

        for in_port in range(3):
            rt.in_bufs[in_port][0].push(mk_packet(in_port))
            rt.pending.add((in_port, 0))
        assert rt.allocate(0, PerInputRouting(), net) == 3

    def test_input_port_serialization(self):
        """Two VCs of one input port: only one grant per cycle."""
        rt = mk_router()
        net = RecordingNetwork()

        class PerVcRouting:
            def route(self, rt, in_port, in_vc, pkt, cycle):
                return (in_vc, 0, KIND_MIN)  # vc0 -> out0, vc1 -> out1

        rt.in_bufs[0][0].push(mk_packet(10))
        rt.in_bufs[0][1].push(mk_packet(11))
        rt.pending.update({(0, 0), (0, 1)})
        assert rt.allocate(0, PerVcRouting(), net) == 1

    def test_busy_input_port_skipped(self):
        rt = mk_router()
        net = RecordingNetwork()
        rt.in_bufs[0][0].push(mk_packet(1))
        rt.pending.add((0, 0))
        rt.in_busy[0][0] = 5
        assert rt.allocate(0, StubRouting(1), net) == 0
        assert rt.allocate(5, StubRouting(1), net) == 1

    def test_busy_output_port_skipped(self):
        rt = mk_router()
        net = RecordingNetwork()
        rt.in_bufs[0][0].push(mk_packet(1))
        rt.pending.add((0, 0))
        rt.out[1].busy_until = 4
        assert rt.allocate(0, StubRouting(1), net) == 0
        assert rt.allocate(4, StubRouting(1), net) == 1

    def test_no_credits_no_grant(self):
        rt = mk_router()
        net = RecordingNetwork()
        rt.in_bufs[0][0].push(mk_packet(1))
        rt.pending.add((0, 0))
        rt.out[1].credits[0] = 7  # less than a packet
        assert rt.allocate(0, StubRouting(1), net) == 0

    def test_iterations_fill_freed_inputs(self):
        """A loser of iteration 1 can win a different output later only
        if its routing proposes one — with a fixed route it stays put."""
        rt = mk_router()
        net = RecordingNetwork()
        for in_port in (0, 1):
            rt.in_bufs[in_port][0].push(mk_packet(in_port))
            rt.pending.add((in_port, 0))

        class AdaptiveRouting:
            def route(self, rt, in_port, in_vc, pkt, cycle):
                # Prefer output 2; fall back to output 0 if claimed.
                if rt.out_port_free(2, cycle):
                    return (2, 0, KIND_MIN)
                if rt.out_port_free(0, cycle):
                    return (0, 0, KIND_MIN)
                return None

        grants = rt.allocate(0, AdaptiveRouting(), net)
        assert grants == 2
        out_ports = sorted(g[2] for g in net.grants)
        assert out_ports == [0, 2]

    def test_fifo_order_within_vc(self):
        rt = mk_router()
        net = RecordingNetwork()
        rt.in_bufs[0][0].push(mk_packet(1))
        rt.in_bufs[0][0].push(mk_packet(2))
        rt.pending.add((0, 0))
        rt.allocate(0, StubRouting(1), net)
        assert (0, 0) in rt.pending  # second packet still queued
        rt.allocate(8, StubRouting(1), net)
        assert [g[5] for g in net.grants] == [1, 2]

    def test_lrs_fairness_across_inputs(self):
        """Over many cycles, contending inputs share one output fairly."""
        rt = mk_router(num_inputs=2, capacity=1024)
        net = RecordingNetwork()
        for _ in range(20):
            rt.in_bufs[0][0].push(mk_packet(0))
            rt.in_bufs[1][0].push(mk_packet(1))
        rt.pending.update({(0, 0), (1, 0)})
        cycle = 0
        while rt.pending and cycle < 1000:
            rt.out[0].credits[0] = 1024  # endless credits
            rt.allocate(cycle, StubRouting(0), net)
            cycle += 8
        winners = [g[0] for g in net.grants]
        assert winners.count(0) == winners.count(1) == 20


class PreferenceRouting:
    """Each head asks for the first of its preferred (port, vc) outputs
    that is still available; a head with no preferences (or whose
    preferences are all taken) stalls.  Like every real routing
    algorithm it never names a busy, claimed or credit-starved output.
    """

    def __init__(self, prefs):
        self.prefs = prefs

    def route(self, rt, in_port, in_vc, pkt, cycle):
        for out_port, out_vc in self.prefs[(in_port, in_vc)]:
            if rt.min_available(out_port, cycle, out_vc, pkt.size):
                return (out_port, out_vc, KIND_MIN)
        return None


PORTS = 4
VCS = 3
key_st = st.tuples(st.integers(0, PORTS - 1), st.integers(0, VCS - 1))


class TestAllocatorConflictFreedom:
    """Whatever heads wait, with whatever busy read slots and output
    preferences, one cycle of allocation never grants an output port
    twice, an input port more often than its read ports, or a (port, vc)
    twice — for every read-port and iteration count."""

    @given(
        read_ports=st.integers(1, 3),
        iterations=st.integers(1, 3),
        heads=st.dictionaries(
            key_st,
            st.tuples(st.integers(1, 3), st.lists(key_st, max_size=3)),
            min_size=1,
            max_size=PORTS * VCS,
        ),
        busy=st.lists(st.integers(0, 8), min_size=PORTS * 3, max_size=PORTS * 3),
        steps=st.lists(st.integers(1, 8), min_size=1, max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_grants_never_double_book(self, read_ports, iterations, heads, busy, steps):
        rt = mk_router(num_inputs=PORTS, num_vcs=VCS, capacity=1024,
                       iterations=iterations, read_ports=read_ports)
        for port in range(PORTS):
            rt.in_busy[port] = busy[port * 3:port * 3 + read_ports]
        pid = 0
        for key, (packets, _) in heads.items():
            for _ in range(packets):
                rt.in_bufs[key[0]][key[1]].push(mk_packet(pid))
                pid += 1
            rt.pending.add(key)
        routing = PreferenceRouting({key: prefs for key, (_, prefs) in heads.items()})
        net = RecordingNetwork()
        cycle = 0
        for step in steps:
            before = len(net.grants)
            granted = rt.allocate(cycle, routing, net)
            grants = net.grants[before:]
            assert granted == len(grants)
            outs = [g[2] for g in grants]
            assert len(set(outs)) == len(outs)
            ins = [g[0] for g in grants]
            assert all(ins.count(p) <= read_ports for p in ins)
            vcs = [g[:2] for g in grants]
            assert len(set(vcs)) == len(vcs)
            assert not rt._claimed_out and not rt._matched_in
            cycle += step


class TestEarlyExitNeverChangesAGrant:
    """For a fixed-request routing (at most one preference per head),
    stopping after a collision-free pass with stalled heads
    (``stall_is_final``) grants exactly what running every iteration
    grants: same grants in the same order, same arbiter state, read
    slots, credits and pending order, cycle after cycle."""

    @given(
        read_ports=st.integers(1, 3),
        iterations=st.integers(1, 3),
        credits=st.sampled_from([8, 16, 32]),
        heads=st.dictionaries(
            key_st,
            st.tuples(st.integers(1, 3), st.lists(key_st, max_size=1)),
            min_size=1,
            max_size=PORTS * VCS,
        ),
        busy=st.lists(st.integers(0, 8), min_size=PORTS * 3, max_size=PORTS * 3),
        steps=st.lists(st.integers(1, 8), min_size=1, max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_grants_with_and_without(
        self, read_ports, iterations, credits, heads, busy, steps
    ):
        prefs = {key: want for key, (_, want) in heads.items()}
        runs = []
        for final in (False, True):
            rt = mk_router(num_inputs=PORTS, num_vcs=VCS, capacity=1024,
                           iterations=iterations, read_ports=read_ports)
            for port in range(PORTS):
                rt.in_busy[port] = busy[port * 3:port * 3 + read_ports]
                rt.out[port].credits = [credits] * VCS  # drained by grants
            pid = 0
            for key, (packets, _) in heads.items():
                for _ in range(packets):
                    rt.in_bufs[key[0]][key[1]].push(mk_packet(pid))
                    pid += 1
                rt.pending.add(key)
            routing = PreferenceRouting(prefs)
            routing.stall_is_final = final
            net = RecordingNetwork()
            trace = []
            cycle = 0
            for step in steps:
                trace.append((
                    rt.allocate(cycle, routing, net),
                    list(net.grants),
                    {p: dict(a._last_grant) for p, a in rt._in_arbiters.items()},
                    {p: dict(a._last_grant) for p, a in rt._out_arbiters.items()},
                    [list(slots) for slots in rt.in_busy],
                    [list(ch.credits) for ch in rt.out],
                    list(rt.pending),
                ))
                cycle += step
            runs.append(trace)
        assert runs[0] == runs[1]


class TestMultiReadArbitration:
    def test_input_lrs_alternates_between_colliding_vcs(self):
        """Two VCs of a 2-read port want the same output: one wins per
        cycle (the output is the limit, not the read ports), and the
        input-stage LRS arbiter hands the turn back and forth."""
        rt = mk_router(capacity=1024, read_ports=2)
        net = RecordingNetwork()
        for vc in (0, 1):
            for _ in range(4):
                rt.in_bufs[0][vc].push(mk_packet(vc))
        rt.pending.update([(0, 0), (0, 1)])
        for cycle in range(0, 48, 8):
            assert rt.allocate(cycle, StubRouting(2), net) == 1
        assert [g[1] for g in net.grants] == [0, 1, 0, 1, 0, 1]
        assert list(rt._in_arbiters) == [0] and not rt._out_arbiters
