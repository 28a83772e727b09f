"""Benchmark: the §VII congestion-management extension.

Closing the paper's future-work loop: without congestion control the
embedded-ring configurations collapse past saturation under ADV+h
(Fig. 9's phenomenon); with simple injection restriction they hold
near-saturation throughput and barely touch the escape ring.
"""

from conftest import figure, run_once


def test_congestion_control_prevents_collapse(benchmark):
    # Columns: False_* = congestion_control off, True_* = on.
    table = run_once(benchmark, figure, "congestion", "medium", load=[0.5])["pivot"]
    benchmark.extra_info["rows"] = table.rows
    assert [row["variant"] for row in table.rows] == ["full-vcs", "reduced-vcs"]
    for row in table.rows:
        # Without the mechanism: collapse (this IS the Fig. 9 story).
        assert row["False_thr"] < 0.2, row
        # With it: an order of magnitude recovered, back near the
        # saturation region...
        assert row["True_thr"] > 10 * row["False_thr"], row
        assert row["True_thr"] > 0.2, row
        # ...and the escape ring returns to last-resort duty.
        assert row["True_ring"] < row["False_ring"], row
