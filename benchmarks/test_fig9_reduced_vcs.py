"""Benchmark: regenerate Fig. 9 — congestion with reduced VCs.

Paper claim (§VII): with 2 local / 1 global VCs and an embedded ring
(no congestion management), the canonical network can congest under
high adversarial load: throughput degrades vs the fully-provisioned
configuration and the escape ring usage rises sharply.
"""

from conftest import figure, run_once


def test_fig9_reduced_vcs(benchmark):
    loads = [0.15, 0.3, 0.5]
    table = run_once(benchmark, figure, "fig9", "medium", load=loads)["pivot"]
    benchmark.extra_info["rows"] = table.rows
    # At low load the reduced configuration keeps up.
    for row in table.rows:
        if row["load"] <= 0.15:
            assert row["reduced_thr"] > 0.8 * row["full_thr"], row
    # Under high adversarial load, congestion shows: reduced throughput
    # drops measurably below the full configuration for ADV patterns.
    degraded = [
        r for r in table.rows
        if r["load"] >= 0.5 and r["pattern"].startswith("ADV")
    ]
    assert degraded
    assert any(r["reduced_thr"] < 0.8 * r["full_thr"] for r in degraded), degraded
    # ...and the escape ring works visibly harder.
    assert any(
        r["reduced_ring"] > 2 * r["full_ring"] + 0.01 for r in degraded
    ), degraded
