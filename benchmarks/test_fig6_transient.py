"""Benchmark: regenerate Fig. 6 — latency evolution under transients.

Paper claims (§VI-B): on ADV+2 -> UN every mechanism converges almost
immediately; on UN -> ADV+2 and ADV+2 -> ADV+h OFAR adapts nearly
instantaneously while PB suffers an adaptation period (its remote flags
take time to propagate and its misrouting is decided only at
injection).
"""

from conftest import figure, run_once


def test_fig6_transients(benchmark, medium):
    table = run_once(benchmark, figure, "fig6", "medium")["table"]
    benchmark.extra_info["rows"] = table.rows
    rows = {(r["transition"], r["routing"]): r for r in table.rows}
    h = medium.h

    # ADV+2 -> UN: everyone settles fast (links suddenly uncongested).
    for routing in ("pb", "ofar", "ofar-l"):
        r = rows[("ADV+2->UN", routing)]
        assert r["settle_cycles"] is not None

    # The hard transition (ADV+2 -> ADV+h): OFAR's spike is no worse
    # than PB's and it settles at a latency level no higher than PB's.
    hard = f"ADV+2->ADV+{h}"
    pb, ofar = rows[(hard, "pb")], rows[(hard, "ofar")]
    assert ofar["settled_latency"] <= pb["settled_latency"] * 1.1
    assert ofar["spike_latency"] <= pb["spike_latency"] * 1.2
