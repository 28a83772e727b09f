"""MIN: deterministic minimal routing.

Every packet follows the unique minimal inter-group path
(``l1 - g1 - l2``, at most 3 hops).  Deadlock freedom comes from the
ascending VC order.  MIN is the latency reference under uniform traffic
and the pathological case under adversarial traffic, where all traffic
from a group contends for a single global link (throughput bound
``1/(2h^2)``, §III).
"""

from __future__ import annotations

from repro.routing.base import RoutingAlgorithm


class MinimalRouting(RoutingAlgorithm):
    """The MIN mechanism of §V."""

    name = "min"
    stall_is_final = True
    route = RoutingAlgorithm.route_ordered_minimal
