"""Benchmark: regenerate Fig. 7 — burst consumption time vs PB.

Paper claims (§VI-C): OFAR consumes every burst faster than PB
(normalized time 0.43-0.82, mean ~0.70), and full OFAR always finishes
no later than OFAR-L.  The uniform burst is where the gap is smallest.
"""

from conftest import figure, run_once


def test_fig7_bursts(benchmark):
    table = run_once(benchmark, figure, "fig7", "medium")["burst_table"]
    mean = sum(r["ofar_norm"] for r in table.rows) / len(table.rows)
    assert f"mean OFAR time vs PB {mean:.3f}" in table.title
    benchmark.extra_info["rows"] = table.rows
    benchmark.extra_info["ofar_mean_norm"] = mean

    adversarial = [r for r in table.rows if r["pattern"].startswith("ADV")]
    # OFAR finishes adversarial bursts faster than PB.
    for row in adversarial:
        assert row["ofar_norm"] < 1.0, f"{row['pattern']}: OFAR {row['ofar_norm']}x PB"
    # Full OFAR is never meaningfully slower than OFAR-L.
    for row in table.rows:
        assert row["ofar_norm"] <= row["ofar-l_norm"] * 1.05, (
            f"{row['pattern']}: OFAR {row['ofar_norm']} vs OFAR-L {row['ofar-l_norm']}"
        )
    # Mean speedup in the paper's ballpark (<= ~0.9 given smaller bursts).
    assert mean < 0.95
