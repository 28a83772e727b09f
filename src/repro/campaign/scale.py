"""Scale presets: network size + window lengths.

A campaign's ``scale:`` key and every ``--scale`` flag name one of
these.  ``tiny`` (h=2, seconds, used by the test suite), ``small``
(h=2), ``medium`` (h=3, the default for benchmarks), ``large`` (h=4),
``paper`` (h=6 with the exact §V parameters — slow in pure Python;
provided for offline full-scale runs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.config import SimulationConfig


@dataclass(frozen=True)
class Scale:
    """Size/duration preset for an experiment.

    ``paper_params`` selects the exact §V configuration (10/100-cycle
    links, 32/256-phit FIFOs); otherwise the proportionally shortened
    ``SimulationConfig.small`` parameters are used so that warm-up
    windows and credit round-trips stay balanced at small h.
    """

    name: str
    h: int
    warmup: int
    measure: int
    paper_params: bool = False
    burst_packets_per_node: int = 20
    transient_warmup: int = 2_000
    transient_post: int = 2_500

    def config(self, routing: str, **overrides) -> SimulationConfig:
        if self.paper_params:
            return SimulationConfig.paper(routing=routing, **overrides)
        return SimulationConfig.small(h=self.h, routing=routing, **overrides)

    def loads(self, saturating: float = 0.56, points: int = 7) -> list[float]:
        """A default load sweep reaching past saturation."""
        step = saturating / (points - 1)
        return [round(step * i, 4) for i in range(1, points)] + [
            round(saturating * 1.3, 4)
        ]


TINY = Scale("tiny", h=2, warmup=300, measure=400, burst_packets_per_node=5,
             transient_warmup=600, transient_post=800)
SMALL = Scale("small", h=2, warmup=1_000, measure=1_200, burst_packets_per_node=20,
              transient_warmup=1_500, transient_post=2_000)
MEDIUM = Scale("medium", h=3, warmup=1_000, measure=1_200, burst_packets_per_node=20,
               transient_warmup=1_500, transient_post=2_000)
LARGE = Scale("large", h=4, warmup=1_500, measure=2_000, burst_packets_per_node=30,
              transient_warmup=2_500, transient_post=3_000)
PAPER = Scale("paper", h=6, warmup=20_000, measure=20_000, paper_params=True,
              burst_packets_per_node=2_000, transient_warmup=30_000,
              transient_post=30_000)

#: Every preset by name, smallest first: the one table ``--scale``
#: choices are derived from.
SCALES = {s.name: s for s in (TINY, SMALL, MEDIUM, LARGE, PAPER)}


def get_scale(name: str) -> Scale:
    """Scale preset by name."""
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; choose from {sorted(SCALES)}") from None
