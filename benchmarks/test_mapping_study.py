"""Benchmark: the §III mapping-vs-network argument, quantified.

The paper (discussing Bhatele et al., SC 2011) argues that randomizing
the task mapping removes dragonfly hotspots but "breaks the benefits of
locality", and that "a proper solution should be applied at the network
level".  With a 2-D stencil halo exchange (``campaigns/mapping.yaml``):

- MIN + sequential mapping is throttled by hot local links;
- MIN + random mapping trades the hotspot for lost locality (more
  global hops, higher latency at low load);
- OFAR + sequential mapping must beat both: hotspots routed around,
  locality preserved.
"""

from conftest import figure_run, run_once

from repro.campaign import emit


def test_mapping_vs_network_level(benchmark, medium):
    run = run_once(benchmark, figure_run, "mapping", medium.name)
    table = dict(emit(run))["table"]
    benchmark.extra_info["rows"] = table.rows
    # The table has no global-hop column; each point's LoadPoint has it.
    rows = {}
    for row, point in zip(table.rows, run.outcomes):
        mapping = row["pattern"].split(":")[1]
        rows[(row["routing"], mapping)] = dict(
            row, global_hops=round(point.avg_global_hops, 3)
        )
    min_seq = rows[("min", "sequential")]
    min_rnd = rows[("min", "random")]
    ofar_seq = rows[("ofar", "sequential")]
    ofar_rnd = rows[("ofar", "random")]
    # Sequential mapping keeps exchanges local (the locality signature).
    assert min_seq["global_hops"] < 0.7 * min_rnd["global_hops"]
    # OFAR at the network level beats MIN with either mapping.
    assert ofar_seq["throughput"] >= min_seq["throughput"]
    assert ofar_seq["throughput"] >= 0.95 * min_rnd["throughput"]
    # ...while keeping the locality that random mapping destroys.
    assert ofar_seq["global_hops"] < 0.8 * ofar_rnd["global_hops"]
    assert ofar_seq["latency"] < min_seq["latency"]
