"""Benchmark: regenerate Fig. 3 — latency/throughput under UN traffic.

Paper claims (§VI-A): OFAR's low-load latency is competitive with MIN
and it saturates later than PB; PB pays extra latency for unnecessary
misrouting; OFAR vs OFAR-L differ negligibly under UN.
"""

from conftest import figure, run_once


def test_fig3_uniform(benchmark):
    loads = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    tables = run_once(benchmark, figure, "fig3", "medium", load=loads)
    curves = tables["series_table"].rows
    benchmark.extra_info["rows"] = curves
    sat = {r["series"]: r["saturation_thr"] for r in tables["summary"].rows}
    # OFAR latency at low load is competitive with MIN (within 40%).
    assert curves[0]["load"] == 0.1
    assert curves[0]["ofar_lat"] < 1.4 * curves[0]["min_lat"]
    # OFAR saturation throughput at least matches MIN and PB.
    assert sat["ofar"] >= 0.95 * sat["min"]
    assert sat["ofar"] >= 0.95 * sat["pb"]
    # Local misrouting makes no significant difference under UN.
    assert abs(sat["ofar"] - sat["ofar-l"]) < 0.08
