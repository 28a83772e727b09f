"""Extension experiment: task-mapping randomization vs network-level OFAR.

§III argues against Bhatele et al.'s mitigation of dragonfly hotspots —
randomizing the task-to-node mapping — because "randomizing the task
mapping breaks the benefits of locality among neighbor tasks allocated
in the same router", and claims "a proper solution should be applied at
the network level".  This study quantifies that claim with a 2-D
stencil halo exchange:

- **MIN + sequential mapping** — fast local exchanges, but hot local
  links throttle the rest (the DEF mapping of the SC'11 paper);
- **MIN + random mapping** — hotspots gone, locality gone: every
  exchange crosses the network;
- **OFAR + sequential mapping** — the paper's answer: keep locality,
  let the network route around the hot links.

Reported per configuration: accepted throughput, mean latency, and the
mean hop counts (the locality signature: sequential mappings keep most
exchanges within a router or group).
"""

from __future__ import annotations

import random

from repro.analysis.results import Table
from repro.engine.runner import _pattern_rng
from repro.engine.simulator import Simulator
from repro.experiments.common import Scale, scale_from_cli
from repro.traffic.applications import StencilPattern
from repro.traffic.generators import BernoulliTraffic


CASES = [
    ("min", "sequential"),
    ("min", "random"),
    ("pb", "sequential"),
    ("ofar", "sequential"),
    ("ofar", "random"),
]


def run(scale: Scale, load: float = 0.5, dims: tuple[int, ...] | None = None) -> Table:
    table = Table(
        f"Extension — 2-D stencil: mapping randomization vs OFAR "
        f"(h={scale.h}, load={load})"
    )
    for routing, mapping in CASES:
        cfg = scale.config(routing)
        sim = Simulator(cfg)
        topo = sim.network.topo
        pattern = StencilPattern(
            topo, _pattern_rng(cfg, 0xD1), dims=dims, mapping=mapping
        )
        sim.generator = BernoulliTraffic(
            pattern, load, cfg.packet_size, topo.num_nodes, cfg.seed ^ 0x99
        )
        sim.warm_up(scale.warmup)
        sim.run(scale.measure)
        pt = sim.metrics.load_point(load, sim.cycle)
        table.add(
            routing=routing,
            mapping=mapping,
            throughput=round(pt.throughput, 4),
            latency=round(pt.avg_latency, 1),
            hops=round(pt.avg_hops, 2),
            global_hops=round(pt.avg_global_hops, 3),
        )
    return table


if __name__ == "__main__":
    print(run(scale_from_cli(__doc__)).to_text())
