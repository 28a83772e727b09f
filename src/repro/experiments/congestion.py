"""Congestion-collapse timeline: the §VII extension over time.

The steady-state comparison — embedded-ring OFAR under ADV+h past
saturation, with and without injection restriction, fully provisioned
and with the Fig. 9 reduced VCs — is ``campaigns/congestion.yaml``.
:func:`run_timeline` shows the collapse *happening*: an in-run
telemetry series (:mod:`repro.telemetry`) of escape-ring occupancy,
bubble stalls and injection backlog over the measurement window, with
and without the mechanism, so the campaign table's endpoint numbers
get a time axis.
"""

from __future__ import annotations

from repro.analysis.results import Table
from repro.experiments.common import Scale, scale_from_cli


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
    print(run_timeline(scale_from_cli(__doc__)).to_text())
