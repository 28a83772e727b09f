"""Synthetic traffic: destination patterns and injection processes.

Patterns (§V): uniform random (*UN*), adversarial (*ADV+N*: every node
of group ``i`` targets a random node of group ``i+N``), the local
adversarial pattern of §III (every node targets the next router of its
own group), and weighted mixes (*MIX1/2/3* of the burst study).

Injection processes: Bernoulli steady traffic at a controlled load,
transient pattern switches, and fixed-size bursts.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "patterns": (
        "TrafficPattern", "UniformPattern", "AdversarialPattern",
        "AdversarialLocalPattern", "MixPattern", "make_pattern",
    ),
    "generators": ("TrafficGenerator", "BernoulliTraffic", "TransientTraffic", "BurstTraffic"),
    "applications": ("StencilPattern", "ShiftPattern", "PermutationPattern", "near_square_dims"),
    "trace": (
        "TraceEvent", "TraceRecorder", "TraceTraffic", "load_trace", "save_trace",
        "synthesize_phases",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
