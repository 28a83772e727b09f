"""Application-style traffic: stencils, shifts and permutations.

The paper's §III motivation leans on Bhatele et al. (SC 2011): real HPC
applications with near-neighbour exchanges, mapped sequentially onto a
dragonfly, load a few local links far above the rest, and randomizing
the task mapping removes the hotspot at the cost of destroying
locality.  These patterns make that scenario reproducible:

- :class:`StencilPattern` — a k-dimensional Cartesian halo exchange
  over MPI-style ranks with a pluggable task mapping (``sequential``
  keeps neighbours co-located; ``random`` is Bhatele's mitigation);
- :class:`ShiftPattern` — every node sends to ``node + k`` (a global
  cyclic shift, the classic neighbour data exchange in a 1-D
  decomposition);
- :class:`PermutationPattern` — a fixed random permutation, the
  standard "worst realistic" synthetic.

The mapping study (``campaigns/mapping.yaml``, through the
``STENCIL:<mapping>`` pattern name) uses the stencil to reproduce the
paper's argument that a *network-level* solution (OFAR) beats mapping
randomization because it keeps locality.
"""

from __future__ import annotations

import random

from repro.topology.dragonfly import Dragonfly
from repro.traffic.patterns import TrafficPattern


def near_square_dims(n: int, k: int = 2) -> tuple[int, ...]:
    """Factor ``n`` into ``k`` near-equal dimensions (largest first).

    Raises ValueError when ``n`` has no such factorization (e.g. a
    prime for k=2 would give a degenerate 1 x n grid, which is allowed —
    only n < 1 or k < 1 are rejected).
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if k == 1:
        return (n,)
    target = n ** (1 / k)
    best = min(
        (d for d in range(1, n + 1) if n % d == 0),
        key=lambda d: abs(d - target),
    )
    rest = near_square_dims(n // best, k - 1)
    return tuple(sorted((best, *rest), reverse=True))


class StencilPattern(TrafficPattern):
    """k-D Cartesian stencil halo exchange with a task mapping.

    Rank ``r`` lives at grid coordinates given by row-major order over
    ``dims``; each packet goes to one of its ``2k`` face neighbours
    (periodic boundaries), chosen uniformly.  ``mapping`` places ranks
    on nodes:

    - ``"sequential"`` — rank ``r`` on node ``r`` (locality-preserving;
      this is the DEF mapping whose hotspots §III discusses);
    - ``"random"`` — a seeded random permutation (Bhatele's RDN-style
      mitigation: hotspots vanish, locality too).
    """

    def __init__(
        self,
        topo: Dragonfly,
        rng: random.Random,
        dims: tuple[int, ...] | None = None,
        mapping: str = "sequential",
    ) -> None:
        super().__init__(topo, rng)
        n = topo.num_nodes
        if dims is None:
            dims = near_square_dims(n, 2)
        prod = 1
        for d in dims:
            prod *= d
        if prod != n:
            raise ValueError(
                f"dims {dims} must multiply to the node count {n}, got {prod}"
            )
        self.dims = tuple(dims)
        if mapping == "sequential":
            self._rank_to_node = list(range(n))
        elif mapping == "random":
            perm = list(range(n))
            random.Random(rng.randrange(2**31)).shuffle(perm)
            self._rank_to_node = perm
        else:
            raise ValueError(f"unknown mapping {mapping!r}")
        self._node_to_rank = [0] * n
        for rank, node in enumerate(self._rank_to_node):
            self._node_to_rank[node] = rank
        self.mapping = mapping
        self.name = f"STENCIL{'x'.join(map(str, dims))}-{mapping[:3]}"
        # Row-major strides.
        strides = []
        acc = 1
        for d in reversed(self.dims):
            strides.append(acc)
            acc *= d
        self._strides = list(reversed(strides))  # strides[i] for dims[i]

    def rank_coords(self, rank: int) -> tuple[int, ...]:
        """Grid coordinates of a rank (row-major)."""
        coords = []
        for dim, stride in zip(self.dims, self._strides):
            coords.append((rank // stride) % dim)
        return tuple(coords)

    def neighbor_rank(self, rank: int, axis: int, direction: int) -> int:
        """Rank of the +-1 neighbour along ``axis`` (periodic)."""
        dim, stride = self.dims[axis], self._strides[axis]
        coord = (rank // stride) % dim
        delta = ((coord + direction) % dim - coord) * stride
        return rank + delta

    def dest(self, src: int) -> int:
        rank = self._node_to_rank[src]
        axis = self.rng.randrange(len(self.dims))
        direction = 1 if self.rng.random() < 0.5 else -1
        nbr = self.neighbor_rank(rank, axis, direction)
        if nbr == rank:  # degenerate 1-wide dimension
            nbr = self.neighbor_rank(rank, axis, 1)
        dst = self._rank_to_node[nbr]
        if dst == src:  # 2-wide dimension wrapping onto itself
            other = self.neighbor_rank(rank, (axis + 1) % len(self.dims), 1)
            dst = self._rank_to_node[other]
        return dst if dst != src else (src + 1) % self.topo.num_nodes


class ShiftPattern(TrafficPattern):
    """Global cyclic shift: node ``i`` sends to ``i + shift`` (mod N).

    A shift equal to the nodes-per-group count reproduces ADV+1-like
    group pressure; a shift of ``p`` (nodes per router) reproduces the
    §III local-neighbour hotspot without any randomness.
    """

    def __init__(self, topo: Dragonfly, rng: random.Random, shift: int) -> None:
        super().__init__(topo, rng)
        if not 1 <= shift < topo.num_nodes:
            raise ValueError(f"shift must be in [1, {topo.num_nodes - 1}]")
        self.shift = shift
        self.name = f"SHIFT+{shift}"

    def dest(self, src: int) -> int:
        return (src + self.shift) % self.topo.num_nodes


class PermutationPattern(TrafficPattern):
    """A fixed random permutation without fixed points (derangement-ish:
    any fixed point is rotated onto its successor)."""

    def __init__(self, topo: Dragonfly, rng: random.Random, seed: int | None = None) -> None:
        super().__init__(topo, rng)
        n = topo.num_nodes
        perm_rng = random.Random(seed if seed is not None else rng.randrange(2**31))
        perm = list(range(n))
        perm_rng.shuffle(perm)
        for i in range(n):
            if perm[i] == i:
                j = (i + 1) % n
                perm[i], perm[j] = perm[j], perm[i]
        self._perm = perm
        self.name = "PERM"

    def dest(self, src: int) -> int:
        return self._perm[src]
