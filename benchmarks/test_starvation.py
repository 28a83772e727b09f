"""Benchmark: §IV-A misroute-type policy (starvation study).

The paper's local-first policy for in-transit packets is justified as
starvation avoidance.  Measured at this scale (``campaigns/
starvation.yaml``), the dominant effect is latency: global-first floods
the h-1 cold global ports of the hot router and every packet queues
behind the flood (+30-40% latency); per-node fairness stays high for
both because the escape ring backstops true starvation, with the worst
node's share degrading for global-first as load rises.
"""

from conftest import figure, run_once


def test_transit_misroute_policy(benchmark, medium):
    table = run_once(benchmark, figure, "starvation", medium.name, load=[0.45])["table"]
    benchmark.extra_info["rows"] = table.rows
    rows = {
        r["ofar_transit_misroute"]: dict(r, worst_share=r["worst_src"])
        for r in table.rows
    }
    local = rows["local-first"]
    glob = rows["global-first"]
    # The paper's policy: no throughput cost...
    assert local["throughput"] >= 0.97 * glob["throughput"]
    # ...clearly better latency...
    assert local["latency"] < 0.92 * glob["latency"]
    # ...and no node starves outright under either (the escape ring
    # backstop), with the paper's policy at least as protective.
    assert local["worst_share"] > 0.3
    assert local["worst_share"] >= glob["worst_share"] - 0.05
