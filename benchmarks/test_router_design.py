"""Benchmark: the §VIII router-design conjecture, quantified.

"Input buffers with 2 or 3 read ports could provide a more scalable and
efficient design" — possible only because OFAR's deadlock freedom does
not come from VCs.  At equal total buffering:

- single-VC + 1 read port (control) loses throughput/latency to HOL
  blocking under adversarial load;
- single-VC + 2-3 read ports matches the classic 3-VC design's
  throughput at equal or better latency.
"""

from conftest import figure, run_once


def test_router_designs(benchmark, small):
    table = run_once(benchmark, figure, "router_design", "small")["table"]
    benchmark.extra_info["rows"] = table.rows
    rows = {
        (r["variant"], r["pattern"], r["load"]): r for r in table.rows
    }
    adv = f"ADV+{small.h}"
    hi = 0.45
    classic = rows[("classic-3vc", adv, hi)]
    lean1 = rows[("lean-1R", adv, hi)]
    lean2 = rows[("lean-2R", adv, hi)]
    lean3 = rows[("lean-3R", adv, hi)]
    # The control shows HOL blocking: worse latency than classic.
    assert lean1["latency"] > 1.3 * classic["latency"]
    # 2-3 read ports recover the classic design's throughput...
    assert lean2["throughput"] > 0.97 * classic["throughput"]
    assert lean3["throughput"] > 0.97 * classic["throughput"]
    # ...at equal or better latency (the §VIII "more efficient").
    assert lean2["latency"] <= 1.05 * classic["latency"]
    assert lean3["latency"] <= lean2["latency"] * 1.1
