"""Destination patterns (§V of the paper).

A pattern maps a source node to a destination node, drawing from the
supplied RNG.  Patterns are cheap closed forms over the dragonfly's
node numbering; they never return the source itself.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology.dragonfly import Dragonfly


class TrafficPattern(ABC):
    """Maps source nodes to destination nodes."""

    #: Short name used in experiment tables ("UN", "ADV+2", ...).
    name: str = "?"

    def __init__(self, topo: Dragonfly, rng: random.Random) -> None:
        self.topo = topo
        self.rng = rng

    @abstractmethod
    def dest(self, src: int) -> int:
        """Destination node for a packet generated at ``src``."""


class UniformPattern(TrafficPattern):
    """UN: uniform over all nodes except the source itself.

    The paper's definition explicitly *includes* the source group (and
    the source router), only the source node is excluded.
    """

    name = "UN"

    def dest(self, src: int) -> int:
        n = self.topo.num_nodes
        # Draw from [0, n-1) and skip over src: uniform over n-1 nodes.
        d = self.rng.randrange(n - 1)
        return d + 1 if d >= src else d


class AdversarialPattern(TrafficPattern):
    """ADV+N: every node of group ``i`` targets a random node of group
    ``i + N``.

    ``ADV+1`` causes the least local-link congestion; ``ADV+n*h``
    concentrates all misrouted traffic of an intermediate group onto
    single local links (§III), which is the worst case.
    """

    def __init__(self, topo: Dragonfly, rng: random.Random, offset: int) -> None:
        super().__init__(topo, rng)
        if not 1 <= offset < topo.num_groups:
            raise ValueError(
                f"ADV offset must be in [1, {topo.num_groups - 1}], got {offset}"
            )
        self.offset = offset
        self.name = f"ADV+{offset}"
        self._nodes_per_group = topo.p * topo.a

    def dest(self, src: int) -> int:
        npg = self._nodes_per_group
        dst_group = (src // npg + self.offset) % self.topo.num_groups
        return dst_group * npg + self.rng.randrange(npg)


class AdversarialLocalPattern(TrafficPattern):
    """ADV-LOCAL: every node targets a random node of the *next router
    of its own group*.

    This is the §III motivation case for local-link saturation under
    minimal routing: all ``h`` nodes of a router compete for the single
    1-phit/cycle local link to the neighbour router, limiting minimal
    throughput to ``1/h``.
    """

    name = "ADV-LOCAL"

    def dest(self, src: int) -> int:
        topo = self.topo
        router = topo.node_router(src)
        g, r = topo.router_group(router), topo.router_index(router)
        nxt = topo.router_id(g, (r + 1) % topo.a)
        return nxt * topo.p + self.rng.randrange(topo.p)


class MixPattern(TrafficPattern):
    """Weighted mixture of patterns, chosen independently per packet.

    Used by the burst study (Fig. 7): MIX1 = 80% UN / 10% ADV+1 /
    10% ADV+h, MIX2 = 60/20/20, MIX3 = 20/40/40.
    """

    def __init__(
        self,
        topo: Dragonfly,
        rng: random.Random,
        parts: list[tuple[TrafficPattern, float]],
        name: str = "MIX",
    ) -> None:
        super().__init__(topo, rng)
        if not parts:
            raise ValueError("MixPattern needs at least one component")
        total = sum(w for _, w in parts)
        if total <= 0:
            raise ValueError("mixture weights must sum to a positive value")
        self._patterns = [p for p, _ in parts]
        self._cum = []
        acc = 0.0
        for _, w in parts:
            acc += w / total
            self._cum.append(acc)
        self._cum[-1] = 1.0  # guard against float drift
        self.name = name

    def dest(self, src: int) -> int:
        x = self.rng.random()
        for pattern, edge in zip(self._patterns, self._cum):
            if x <= edge:
                return pattern.dest(src)
        return self._patterns[-1].dest(src)  # pragma: no cover - drift guard


#: Fig. 7's mixes: (UN, ADV+1, ADV+h) weights.
MIXES = {"MIX1": (0.8, 0.1, 0.1), "MIX2": (0.6, 0.2, 0.2), "MIX3": (0.2, 0.4, 0.4)}


def parse_pattern(spec: str) -> tuple[str, object]:
    """``(family, argument)`` of a pattern spec string, or ValueError.

    The one parser of pattern names: :func:`make_pattern` builds from
    its result, and campaign expansion calls it to refuse an unknown
    name before any point runs.  Needs no topology, so range checks
    against a network (an ADV offset's group count) stay with the
    builder.

    Accepted specs: ``"UN"``, ``"ADV+<n>"``, ``"ADV-LOCAL"``,
    ``"MIX1"``, ``"MIX2"``, ``"MIX3"`` (the Fig. 7 mixes, with
    ``ADV+h`` as the adversarial component, as in the paper) and
    ``"STENCIL:<sequential|random>"`` (a 2-D stencil halo exchange
    under that task mapping, §III's Bhatele et al. discussion).
    """
    name = spec.upper()
    if name in ("UN", "ADV-LOCAL"):
        return name, None
    if name in MIXES:
        return "MIX", MIXES[name]
    if name.startswith("ADV+") and name[4:].isdigit():
        return "ADV", int(name[4:])
    if name.startswith("STENCIL:") and name[8:].lower() in ("sequential", "random"):
        return "STENCIL", name[8:].lower()
    raise ValueError(f"unknown traffic pattern spec {spec!r}")


def make_pattern(topo: Dragonfly, rng: random.Random, spec: str) -> TrafficPattern:
    """Build a pattern from a short spec string (see :func:`parse_pattern`)."""
    family, arg = parse_pattern(spec)
    if family == "UN":
        return UniformPattern(topo, rng)
    if family == "ADV-LOCAL":
        return AdversarialLocalPattern(topo, rng)
    if family == "ADV":
        return AdversarialPattern(topo, rng, arg)
    if family == "STENCIL":
        from repro.traffic.applications import StencilPattern

        return StencilPattern(topo, rng, mapping=arg)
    w_un, w_adv1, w_advh = arg
    return MixPattern(
        topo,
        rng,
        [
            (UniformPattern(topo, rng), w_un),
            (AdversarialPattern(topo, rng, 1), w_adv1),
            (AdversarialPattern(topo, rng, topo.h), w_advh),
        ],
        name=spec.upper(),
    )
