"""Extension experiment: congestion management by injection restriction.

§VII observes that when the canonical network congests completely, only
the low-capacity escape ring keeps delivering, collapsing throughput
(Fig. 9) — and defers congestion management to future work ("Ongoing
work includes the use of congestion avoidance mechanisms").  This
driver closes that loop with the simplest mechanism in the §VII spirit
of restricted injection: a node may not inject while its router's mean
output occupancy exceeds a threshold.

Two stress cases are compared with and without the mechanism:

- the fully-provisioned embedded-ring OFAR at ADV+h past saturation;
- the Fig. 9 reduced-VC configuration at the same load.

Both collapse without congestion control and hold near-saturation
throughput with it.

:func:`run_timeline` shows the collapse *happening*: an in-run
telemetry series (:mod:`repro.telemetry`) of escape-ring occupancy,
bubble stalls and injection backlog over the measurement window, with
and without the mechanism, so the steady-state table's endpoint numbers
get a time axis.
"""

from __future__ import annotations

from repro.analysis.results import Table
from repro.experiments.common import Scale, cli_scale, run_specs


def run(scale: Scale, loads: list[float] | None = None) -> Table:
    if loads is None:
        loads = [0.3, 0.5]
    pattern = f"ADV+{scale.h}"
    table = Table(
        f"Extension — injection-restriction congestion control ({pattern}, h={scale.h})"
    )
    cases = [
        ("full-vcs", {}),
        ("reduced-vcs", dict(local_vcs=2, global_vcs=1, injection_vcs=2)),
    ]
    points = iter(run_specs([
        scale.spec("ofar", pattern, load,
                   escape="embedded", congestion_control=cc, **overrides)
        for _, overrides in cases for load in loads for cc in (False, True)
    ]))
    for name, overrides in cases:
        for load in loads:
            row: dict = {"config": name, "load": load}
            for cc in (False, True):
                pt = next(points)
                tag = "cc" if cc else "none"
                row[f"{tag}_thr"] = round(pt.throughput, 4)
                row[f"{tag}_ring"] = round(pt.ring_fraction, 4)
            table.add_row(row)
    return table


def run_timeline(
    scale: Scale, load: float = 0.5, interval: int | None = None
) -> Table:
    """Windowed congestion telemetry, with vs without injection restriction.

    One row per sampling window: escape-ring occupancy (packets on a
    ring at the sample instant), bubble-entry stalls and mean per-node
    injection backlog in the window, for the same past-saturation ADV+h
    point run with congestion control off (``none_*``) and on
    (``cc_*``).  Without the mechanism the backlog and ring pressure
    climb monotonically (the collapse of Fig. 9); with it they plateau.
    """
    from repro.engine.execute import execute_outcome
    from repro.telemetry.config import TelemetryConfig

    if interval is None:
        interval = max(50, scale.measure // 8)
    pattern = f"ADV+{scale.h}"
    table = Table(
        f"Congestion timeline — ring/backlog over time ({pattern} at {load}, h={scale.h})"
    )
    runs = {}
    for cc in (False, True):
        spec = scale.spec(
            "ofar", pattern, load, escape="embedded", congestion_control=cc
        )
        outcome = execute_outcome(spec, telemetry=TelemetryConfig(interval=interval))
        runs["cc" if cc else "none"] = outcome.series
    for none_s, cc_s in zip(runs["none"].samples, runs["cc"].samples):
        table.add_row({
            "cycle": none_s.cycle,
            "none_ring": none_s.ring_packets,
            "none_stalls": none_s.bubble_stalls,
            "none_backlog": none_s.injection_backlog,
            "cc_ring": cc_s.ring_packets,
            "cc_stalls": cc_s.bubble_stalls,
            "cc_backlog": cc_s.injection_backlog,
        })
    return table


if __name__ == "__main__":
    scale = cli_scale(__doc__)
    print(run(scale).to_text())
    print(run_timeline(scale).to_text())
