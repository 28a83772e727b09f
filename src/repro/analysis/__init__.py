"""Analytical companions to the simulator.

- :mod:`repro.analysis.bounds` — closed-form throughput bounds and the
  §VII cost model of the physical escape ring;
- :mod:`repro.analysis.offsets` — static analysis of how ADV+N traffic
  concentrates on intermediate-group local links under Valiant routing
  (the Fig. 2a/2b mechanism);
- :mod:`repro.analysis.static_load` — Monte-Carlo per-link load
  prediction for arbitrary patterns under the MIN/VAL templates
  (predicts saturation without simulating);
- :mod:`repro.analysis.linkstats` — per-link utilization measured from
  a live simulation;
- :mod:`repro.analysis.plots` — terminal (ASCII) charts;
- :mod:`repro.analysis.results` — tabular result containers and
  CSV/markdown emission for the campaign emitters and studies.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "bounds": (
        "min_adversarial_bound", "valiant_bound", "local_link_advh_bound",
        "ring_added_link_fraction", "ring_added_global_wires", "original_global_wires",
        "max_edge_disjoint_rings",
    ),
    "offsets": (
        "l2_link_concentration", "max_l2_concentration", "valiant_offset_bound",
        "offset_bound_table",
    ),
    "results": ("Series", "Table"),
    "static_load": ("analyze", "predicted_saturation", "StaticLoadReport"),
    "latency_model": ("LatencyModel",),
    "linkstats": ("LinkMonitor", "LinkStats"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
