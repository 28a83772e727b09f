"""Benchmark: regenerate Fig. 5 — the worst case, ADV+h.

The paper's centrepiece claim: VAL, PB and OFAR-L collapse toward the
1/h local-link bound, while full OFAR (local misrouting) clearly
exceeds it, heading toward the 0.5 global limit (paper at h=6:
OFAR 0.36 vs 0.166 for the rest).
"""

from conftest import figure, run_once

from repro.analysis.bounds import local_link_advh_bound


def test_fig5_advh(benchmark, medium):
    loads = [0.1, 0.2, 0.3, 0.4, 0.5]
    tables = run_once(benchmark, figure, "fig5", "medium", load=loads)
    benchmark.extra_info["rows"] = tables["series_table"].rows
    summary = {r["series"]: r for r in tables["bound_summary"].rows}
    sat = {name: r["saturation_thr"] for name, r in summary.items()}
    bound = local_link_advh_bound(medium.h)  # 1/3 at h=3
    # OFAR clearly exceeds the local-link bound...
    assert summary["ofar"]["above_local_bound"] == "yes"
    assert sat["ofar"] > bound * 1.1, f"OFAR {sat['ofar']} vs bound {bound}"
    # ...and clearly beats every mechanism without local misrouting.
    for other in ("val", "pb", "ofar-l"):
        assert sat["ofar"] > 1.1 * sat[other], (
            f"OFAR {sat['ofar']} should beat {other} {sat[other]} by >10%"
        )
    # The non-local-misroute mechanisms sit near or below the bound.
    for other in ("val", "ofar-l"):
        assert sat[other] < bound * 1.25, (
            f"{other} {sat[other]} should be capped by the 1/h bound {bound}"
        )
