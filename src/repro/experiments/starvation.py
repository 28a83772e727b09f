"""Extension experiment: the §IV-A starvation argument, measured.

§IV-A motivates an asymmetric misroute-type policy: injection-queue
packets misroute *globally*, but in-transit packets misroute *locally
first*.  The paper's reasoning: under adversarial traffic one router
per group (R_out) owns the saturated global link; if the packets parked
in its 2h-1 local queues all took the remaining h-1 global ports,
those would saturate and the h nodes attached to R_out could never
inject — starvation.

This experiment runs ADV+h at a saturating load with per-source-node
accounting and compares the paper's policy against the naive
"global-first" ablation on:

- Jain's fairness index over per-node delivered throughput;
- the worst node's share of the ideal equal share (0 = starved);
- total throughput (the policies should be close here — fairness is
  where they differ).
"""

from __future__ import annotations

from repro.analysis.results import Table
from repro.engine.runner import _pattern_rng
from repro.engine.simulator import Simulator
from repro.experiments.common import Scale, scale_from_cli
from repro.traffic.generators import BernoulliTraffic
from repro.traffic.patterns import make_pattern


def run_policy(scale: Scale, policy: str, load: float) -> dict:
    cfg = scale.config("ofar", ofar_transit_misroute=policy)
    sim = Simulator(cfg)
    sim.metrics.record_per_source = True
    topo = sim.network.topo
    pattern = make_pattern(topo, _pattern_rng(cfg, 0xF1), f"ADV+{scale.h}")
    sim.generator = BernoulliTraffic(
        pattern, load, cfg.packet_size, topo.num_nodes, cfg.seed ^ 0x2D2D
    )
    sim.warm_up(scale.warmup)
    sim.run(scale.measure)
    m = sim.metrics
    point = m.load_point(load, sim.cycle)
    return {
        "policy": policy,
        "load": load,
        "throughput": round(point.throughput, 4),
        "jain": round(m.jain_index(topo.num_nodes), 4),
        "worst_share": round(m.worst_source_share(topo.num_nodes), 3),
        "latency": round(point.avg_latency, 1),
    }


def run(scale: Scale, loads: list[float] | None = None) -> Table:
    if loads is None:
        loads = [0.3, 0.45]
    table = Table(
        f"Extension — §IV-A starvation study (ADV+{scale.h}, h={scale.h}, "
        f"per-node fairness)"
    )
    for load in loads:
        for policy in ("local-first", "global-first"):
            table.add_row(run_policy(scale, policy, load))
    return table


if __name__ == "__main__":
    print(run(scale_from_cli(__doc__)).to_text())
