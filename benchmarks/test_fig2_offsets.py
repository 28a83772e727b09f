"""Benchmark: regenerate Fig. 2b — VAL throughput vs ADV offset.

Paper claim: deep throughput valleys at offsets N = n*h (local-link
concentration), high plateaus elsewhere; the valley floor tracks the
1/h law.  The analytic companion column must agree with simulation on
*where* the valleys are.
"""

from conftest import figure, run_once


def test_fig2b_offset_valleys(benchmark, medium):
    h = medium.h
    offsets = list(range(1, 2 * h + 1))  # two h-multiples + the points between
    table = run_once(
        benchmark, figure, "fig2", "medium", pattern=[f"ADV+{n}" for n in offsets]
    )["offsets"]
    benchmark.extra_info["rows"] = table.rows
    thr = {row["offset"]: row["throughput"] for row in table.rows}
    bound = {row["offset"]: row["l2_bound"] for row in table.rows}
    predicted = {row["offset"]: row["predicted"] for row in table.rows}
    # Valleys at multiples of h: measured throughput at n*h must be
    # below every non-multiple offset's throughput.
    valley = max(thr[n] for n in offsets if n % h == 0)
    plateau = min(thr[n] for n in offsets if n % h != 0 and bound[n] >= 0.45)
    assert valley < plateau, (
        f"ADV+n*h valleys ({valley}) should undercut benign offsets ({plateau})"
    )
    # The analytic bound is an upper bound on measured throughput
    # (allowing a little measurement slack).
    for n in offsets:
        assert thr[n] <= bound[n] * 1.15 + 0.02
        # The Monte-Carlo prediction is the tighter companion: measured
        # throughput tracks it (it can overshoot a little — flows that
        # avoid the hottest link keep delivering past its fair share).
        assert thr[n] <= predicted[n] * 1.4 + 0.02
        assert thr[n] >= predicted[n] * 0.45
