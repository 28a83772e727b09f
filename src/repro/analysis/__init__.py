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

from repro.analysis.bounds import (
    min_adversarial_bound,
    valiant_bound,
    local_link_advh_bound,
    ring_added_link_fraction,
    ring_added_global_wires,
    original_global_wires,
    max_edge_disjoint_rings,
)
from repro.analysis.offsets import (
    l2_link_concentration,
    max_l2_concentration,
    valiant_offset_bound,
    offset_bound_table,
)
from repro.analysis.results import Series, Table
from repro.analysis.static_load import analyze, predicted_saturation, StaticLoadReport
from repro.analysis.latency_model import LatencyModel
from repro.analysis.linkstats import LinkMonitor, LinkStats

__all__ = [
    "analyze",
    "predicted_saturation",
    "StaticLoadReport",
    "LatencyModel",
    "LinkMonitor",
    "LinkStats",
    "min_adversarial_bound",
    "valiant_bound",
    "local_link_advh_bound",
    "ring_added_link_fraction",
    "ring_added_global_wires",
    "original_global_wires",
    "max_edge_disjoint_rings",
    "l2_link_concentration",
    "max_l2_concentration",
    "valiant_offset_bound",
    "offset_bound_table",
    "Series",
    "Table",
]
