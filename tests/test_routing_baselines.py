"""Behavioural tests for MIN, VAL, UGAL-L: path shape, VC order and the
one-call route."""

import random

import pytest

from repro.engine.config import SimulationConfig
from repro.engine.simulator import Simulator
from repro.network.packet import Packet
from repro.network.router import KIND_MIN
from repro.routing.base import RoutingAlgorithm
from repro.topology.dragonfly import PortKind


def deliver_one(routing, src, dst, h=2, **overrides):
    """Run a single packet to its destination; returns (packet, cycles)."""
    cfg = SimulationConfig.small(h=h, routing=routing, **overrides)
    sim = Simulator(cfg)
    pkt = sim.create_packet(src, dst)
    end = sim.run_until_drained(100_000)
    assert pkt.ejected_cycle >= 0
    return pkt, end


class TestMinimalPaths:
    def test_same_router(self):
        pkt, _ = deliver_one("min", 0, 1)
        assert pkt.hops == 0
        assert pkt.local_hops == pkt.global_hops == 0

    def test_same_group(self):
        cfg = SimulationConfig.small(h=2)
        p = cfg.h  # nodes per router
        pkt, _ = deliver_one("min", 0, p * 1)  # router 1, same group
        assert pkt.hops == 1
        assert (pkt.local_hops, pkt.global_hops) == (1, 0)

    def test_intergroup_at_most_three_hops(self):
        pkt, _ = deliver_one("min", 0, 71)  # h=2: last node, last group
        assert pkt.hops <= 3
        assert pkt.global_hops == 1

    def test_min_never_misroutes(self):
        pkt, _ = deliver_one("min", 3, 50)
        assert pkt.misroutes_local == pkt.misroutes_global == 0
        assert not pkt.used_ring

    def test_min_latency_includes_serialization(self):
        """One local hop: inject(8) + wire(2) + arrive(8 with tail) +
        eject(1+8) — latency must be at least the serialized path."""
        cfg = SimulationConfig.small(h=2)
        pkt, _ = deliver_one("min", 0, cfg.h * 1)
        assert pkt.latency >= 2 * cfg.packet_size + cfg.local_latency


class TestValiantPaths:
    def test_intergroup_five_hops_max(self):
        pkt, _ = deliver_one("val", 0, 71)
        assert pkt.hops <= 5
        assert pkt.global_hops == 2  # always two global hops inter-group

    def test_intragroup_is_minimal(self):
        """VAL routes intra-group traffic minimally (no intermediate)."""
        cfg = SimulationConfig.small(h=2)
        pkt, _ = deliver_one("val", 0, cfg.h * 2)  # router 2, group 0
        assert pkt.global_hops == 0
        assert pkt.hops == 1

    def test_intermediate_group_consumed(self):
        pkt, _ = deliver_one("val", 0, 71)
        assert pkt.intermediate_group == -1  # cleared on arrival

    def test_valiant_spreads_intermediates(self):
        """Across many packets the intermediate groups vary."""
        cfg = SimulationConfig.small(h=2, routing="val")
        sim = Simulator(cfg)
        intermediates = set()
        pkts = [sim.create_packet(0, 71) for _ in range(30)]
        # Capture the Valiant target at injection time.
        orig = sim.routing.on_inject

        def spy(pkt):
            orig(pkt)
            intermediates.add(pkt.intermediate_group)

        sim.routing.on_inject = spy
        sim.run_until_drained(200_000)
        intermediates.discard(-1)
        assert len(intermediates) >= 3

    def test_intermediate_excludes_src_dst(self):
        cfg = SimulationConfig.small(h=2, routing="val")
        sim = Simulator(cfg)
        seen = []
        orig = sim.routing.on_inject

        def spy(pkt):
            orig(pkt)
            seen.append(pkt.intermediate_group)

        sim.routing.on_inject = spy
        for _ in range(20):
            pkt = sim.create_packet(0, 71)
        sim.run_until_drained(200_000)
        src_g, dst_g = 0, sim.network.topo.node_group(71)
        for ig in seen:
            assert ig not in (src_g, dst_g)


class TestUGAL:
    def test_low_load_prefers_minimal(self):
        """With empty queues, UGAL-L must route minimally."""
        pkt, _ = deliver_one("ugal", 0, 71)
        assert pkt.global_hops == 1
        assert pkt.intermediate_group == -1

    def test_congested_min_path_goes_valiant(self):
        """Artificially exhaust the minimal output's credits: the next
        injected packet must choose the Valiant path."""
        cfg = SimulationConfig.small(h=2, routing="ugal")
        sim = Simulator(cfg)
        topo = sim.network.topo
        dst = 71
        rt = sim.network.routers[0]
        mp = topo.min_output_port(0, dst)
        ch = rt.out[mp]
        for vc in ch.data_vcs:
            ch.credits[vc] = 0
        pkt = sim.create_packet(0, dst)
        sim.routing.on_inject(pkt)
        assert pkt.intermediate_group >= 0


class TestOrderedVCs:
    def test_vc_map_values(self):
        """The ascending VC map: local VC = #globals so far, global VC =
        global hop index (paper §I)."""
        cfg = SimulationConfig.small(h=2, routing="val")
        sim = Simulator(cfg)
        algo: RoutingAlgorithm = sim.routing
        pkt = sim.create_packet(0, 71)
        assert algo.ordered_vc(pkt, PortKind.LOCAL) == 0
        assert algo.ordered_vc(pkt, PortKind.GLOBAL) == 0
        pkt.global_hops = 1
        assert algo.ordered_vc(pkt, PortKind.LOCAL) == 1
        assert algo.ordered_vc(pkt, PortKind.GLOBAL) == 1
        pkt.global_hops = 2
        assert algo.ordered_vc(pkt, PortKind.LOCAL) == 2
        assert algo.ordered_vc(pkt, PortKind.NODE) == 0

    @pytest.mark.parametrize("routing", ["min", "val", "ugal", "pb"])
    def test_granted_vcs_follow_order(self, routing, monkeypatch):
        """Instrument grants: every hop's VC must match the map."""
        from repro.network.network import Network
        from repro.traffic.generators import BernoulliTraffic
        from repro.traffic.patterns import make_pattern
        import random as _random

        cfg = SimulationConfig.small(h=2, routing=routing)
        sim = Simulator(cfg)
        violations = []
        orig = Network.execute_grant

        def checked(net, rt, in_port, in_vc, out_port, out_vc, kind, cycle):
            pkt = rt.in_bufs[in_port][in_vc].head()
            ch = rt.out[out_port]
            if ch.kind is PortKind.LOCAL and out_vc != pkt.global_hops:
                violations.append((pkt.pid, "local", out_vc, pkt.global_hops))
            if ch.kind is PortKind.GLOBAL and out_vc != pkt.global_hops:
                violations.append((pkt.pid, "global", out_vc, pkt.global_hops))
            return orig(net, rt, in_port, in_vc, out_port, out_vc, kind, cycle)

        monkeypatch.setattr(Network, "execute_grant", checked)
        pattern = make_pattern(sim.network.topo, _random.Random(5), "UN")
        sim.generator = BernoulliTraffic(pattern, 0.3, 8, sim.network.topo.num_nodes, 11)
        sim.run(400)
        assert violations == []


def _clone(pkt):
    twin = Packet(pkt.pid, pkt.src, pkt.dst, pkt.size, pkt.created_cycle,
                  pkt.dst_router, pkt.dst_group, pkt.src_group)
    for slot in Packet.__slots__:
        setattr(twin, slot, getattr(pkt, slot))
    return twin


def _composed_route(algo, rt, pkt, cycle):
    """The helper composition the one-call route inlines."""
    port = algo.min_output(rt, pkt)
    vc = algo.ordered_vc(pkt, rt.out[port].kind)
    if rt.min_available(port, cycle, vc, pkt.size):
        return (port, vc, KIND_MIN)
    return None


class TestOneCallRoute:
    """``route`` of the VC-ordered routings equals ``min_output`` +
    ``ordered_vc`` + ``min_available`` — same request, same packet memo
    writes — over random channel state and packet headers."""

    @pytest.mark.parametrize("routing", ["min", "val", "ugal", "pb", "par"])
    def test_route_equals_helper_composition(self, routing):
        overrides = {"local_vcs": 4} if routing == "par" else {}
        sim = Simulator(SimulationConfig.small(h=2, routing=routing, **overrides))
        algo, net, topo = sim.routing, sim.network, sim.network.topo
        rng = random.Random(routing)
        seen = set()
        for trial in range(600):
            rt = rng.choice(net.routers)
            src = rng.randrange(topo.num_nodes)
            dst = rng.choice([n for n in range(topo.num_nodes) if n != src
                              and (topo.node_router(n) == rt.rid or rng.random() < 0.2)])
            pkt = sim.create_packet(src, dst)
            live = [g for g in range(topo.num_groups)
                    if g not in (pkt.src_group, pkt.dst_group)]
            pkt.intermediate_group = rng.choice([-1, -1, rt.group, rng.choice(live)])
            # The port route will use: the memo's on a hit (possibly a
            # port the oracle would not pick, to prove the hit is used).
            hit = rng.random() < 0.5
            if hit:
                port = rng.choice([p for p, ch in enumerate(rt.out) if ch is not None
                                   and ch.kind is not PortKind.RING])
                pkt.cache_rid, pkt.cache_ig, pkt.cache_port = (
                    rt.rid, pkt.intermediate_group, port)
            else:
                pkt.cache_rid, pkt.cache_ig, pkt.cache_port = rng.choice([
                    (-1, -2, -1),
                    (rt.rid, pkt.intermediate_group + 1, 0),
                    ((rt.rid + 1) % topo.num_routers, pkt.intermediate_group, 0),
                ])
                port = algo.min_output(rt, _clone(pkt))
            ch = rt.out[port]
            # Headers whose ordered VC exists on that channel (a packet
            # ejects after up to two global hops, on VC 0); PAR's local
            # VC follows local_hops, not global_hops.
            pkt.global_hops = rng.randrange(3 if ch.kind is PortKind.NODE else ch.num_vcs)
            if routing == "par":
                pkt.global_hops = 1  # past the source group: no diversion
                pkt.local_hops = rng.choice([h for h in range(ch.num_vcs) if h != 1])
            ch.credits = [rng.choice([0, pkt.size - 1, pkt.size, ch.capacity])
                          for _ in ch.credits]
            ch.busy_until = sim.cycle + rng.choice([-3, 0, 1, 5])
            ch.failed = rng.random() < 0.1
            rt._claimed_out.clear()
            if rng.random() < 0.2:
                rt._claimed_out.add(port)
            got_pkt, want_pkt = _clone(pkt), _clone(pkt)
            got = algo.route(rt, 0, 0, got_pkt, sim.cycle)
            want = _composed_route(algo, rt, want_pkt, sim.cycle)
            assert got == want, (trial, routing)
            assert [getattr(got_pkt, s) for s in Packet.__slots__] == \
                [getattr(want_pkt, s) for s in Packet.__slots__]
            if routing == "par" and got is not None and ch.kind is PortKind.LOCAL:
                assert got[1] == pkt.local_hops != pkt.global_hops
            seen.add((ch.kind, hit, got is None))
        kinds = {PortKind.NODE, PortKind.LOCAL, PortKind.GLOBAL}
        assert {(k, h, s) for k in kinds for h in (True, False) for s in (True, False)} <= seen
