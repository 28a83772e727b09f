"""Benchmark: regenerate Fig. 8 — physical vs embedded escape ring.

Paper claim (§VII): the two implementations are indistinguishable,
because the escape network resolves deadlocks instead of carrying
traffic (ring usage stays marginal below saturation).
"""

from conftest import figure, run_once


def test_fig8_ring_equivalence(benchmark):
    loads = [0.1, 0.25, 0.4, 0.5]
    table = run_once(benchmark, figure, "fig8", "medium", load=loads)["pivot"]
    benchmark.extra_info["rows"] = table.rows
    for row in table.rows:
        if row["load"] <= 0.4:
            # At and below saturation the implementations are
            # equivalent (the paper's Fig. 8 claim).  Past saturation
            # at this scale the physical ring's dedicated bandwidth
            # shows — the §VII congestion caveat; see EXPERIMENTS.md.
            assert abs(row["physical_thr"] - row["embedded_thr"]) < 0.02, row
            lo, hi = sorted((row["physical_lat"], row["embedded_lat"]))
            assert hi < 1.25 * lo, row
        else:
            assert row["physical_thr"] > 0.3 and row["embedded_thr"] > 0.3, row
    # The ring is rarely used below saturation.
    below = [r for r in table.rows if r["load"] <= 0.25]
    for row in below:
        assert row["physical_ring"] < 0.05
        assert row["embedded_ring"] < 0.05
