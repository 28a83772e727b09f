"""Simulation configuration.

:meth:`SimulationConfig.paper` reproduces the Methodology section (§V)
verbatim: a maximum-size dragonfly with ``h = 6`` (5,256 nodes, 876
routers in 73 groups), 8-phit packets, 10-cycle local and 100-cycle
global links, 32-phit local and 256-phit global FIFOs, 3 VCs on local
and injection ports, 2 on global ports, a 3-iteration separable LRS
allocator, and the variable misrouting threshold ``Th_min = 0``,
``Th_non-min = 0.9 * Q_min``.

:meth:`SimulationConfig.small` scales the network down (default
``h = 2``) for tests and laptop-scale experiment sweeps; every
topological law the paper studies is a function of ``h`` and holds at
these sizes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

ESCAPE_NONE = "none"
ESCAPE_PHYSICAL = "physical"
ESCAPE_EMBEDDED = "embedded"

ROUTINGS = ("min", "val", "ugal", "pb", "par", "ofar", "ofar-l")


@dataclass(frozen=True)
class ThresholdConfig:
    """Misrouting thresholds of §IV-B.

    Misrouting is considered only when the minimal output is unavailable
    (busy, claimed by another input this cycle, or without credits) and
    its estimated downstream occupancy ``Q_min`` is at least ``th_min``.
    A nonminimal output with occupancy ``Q`` is then eligible iff
    ``Q <= Th_non-min`` where::

        Th_non-min = relative_factor * Q_min     (variable policy)
        Th_non-min = th_nonmin                   (static policy)

    The paper's default is the variable policy with ``th_min = 0`` and
    ``relative_factor = 0.9``; §IV-B also discusses a static policy
    (``th_min = 1.0``, ``th_nonmin = 0.4``) which is provided for the
    ablation benchmarks.
    """

    th_min: float = 0.0
    relative_factor: float | None = 0.9
    th_nonmin: float = 0.4

    def nonmin_threshold(self, q_min: float) -> float:
        """Occupancy ceiling for eligible nonminimal outputs."""
        if self.relative_factor is not None:
            return self.relative_factor * q_min
        return self.th_nonmin

    def eligible(self, occupancy: float, q_min: float) -> bool:
        """Whether a nonminimal output with ``occupancy`` may be used.

        The variable policy compares *strictly* ("queues that have less
        than 0.9 times the occupancy of the minimal one", §IV-B/§V), so
        an idle minimal queue — ``Q_min = 0`` — admits no candidates and
        benign traffic is not misrouted.  The static policy is a plain
        ceiling (``Q <= Th_non-min``).
        """
        if self.relative_factor is not None:
            return occupancy < self.relative_factor * q_min
        return occupancy <= self.th_nonmin

    @classmethod
    def variable(cls, factor: float = 0.9, th_min: float = 0.0) -> "ThresholdConfig":
        """The paper's default variable policy."""
        return cls(th_min=th_min, relative_factor=factor)

    @classmethod
    def static(cls, th_min: float = 1.0, th_nonmin: float = 0.4) -> "ThresholdConfig":
        """The static policy example of §IV-B."""
        return cls(th_min=th_min, relative_factor=None, th_nonmin=th_nonmin)


@dataclass(frozen=True)
class SimulationConfig:
    """Complete parameter set for one simulation."""

    # --- topology -----------------------------------------------------
    h: int = 2
    # --- packets / links ----------------------------------------------
    packet_size: int = 8  # phits
    local_latency: int = 10  # cycles
    global_latency: int = 100  # cycles
    ejection_latency: int = 1  # router-to-node wire
    # --- buffering (phits per VC) ---------------------------------------
    local_buffer: int = 32
    global_buffer: int = 256
    injection_buffer: int = 32
    ring_buffer: int = 256  # physical escape ring FIFOs
    # --- virtual channels ----------------------------------------------
    local_vcs: int = 3
    global_vcs: int = 2
    injection_vcs: int = 3
    ring_vcs: int = 3  # physical ring ("same number of VCs for regularity")
    # --- router --------------------------------------------------------
    allocator_iterations: int = 3
    # §VIII "ongoing work" extension: input buffers with multiple read
    # ports.  A port with R read ports can launch up to R packets per
    # cycle (from different VCs) into the crossbar; since OFAR does not
    # rely on VCs for deadlock freedom, a 1-VC buffer with 2-3 read
    # ports is the paper's conjectured "more scalable and efficient
    # design".  Default 1 = the classic router used everywhere else.
    input_read_ports: int = 1
    # --- routing ---------------------------------------------------------
    routing: str = "ofar"
    thresholds: ThresholdConfig = field(default_factory=ThresholdConfig)
    # §IV-A misroute-type policy for *in-transit* (local/global queue)
    # packets in the source group: "local-first" is the paper's policy
    # ("packets in local queues are first misrouted locally, and then
    # globally"), which it argues prevents starvation of the nodes on
    # the hot router; "global-first" is the naive alternative, kept as
    # an ablation that makes that starvation measurable.
    ofar_transit_misroute: str = "local-first"
    escape: str = ESCAPE_PHYSICAL
    max_ring_exits: int = 4  # livelock bound of §IV-C
    # Cycles a head packet must stay blocked (minimal output out of
    # credits, no eligible misroute) before it requests the escape ring.
    # The paper requests the escape output as soon as a packet "cannot
    # advance", but with its deep 256-phit global FIFOs such hard
    # blocking is persistent when it happens; with scaled-down buffers a
    # momentary credit shortage would otherwise stampede traffic onto
    # the low-capacity ring and congest it.  One packet-time of
    # patience restores the paper's behaviour (ring used only as a last
    # resort) without affecting deadlock freedom — a blocked packet
    # still requests the ring eventually.
    escape_patience: int = 8
    # Number of edge-disjoint Hamiltonian escape rings (1..h).  More
    # than one ring is the §VII fault-tolerance extension: the escape
    # subnetwork stays functional while at least one ring is intact.
    escape_rings: int = 1
    # §VII "ongoing work" extension: simple congestion management by
    # injection restriction.  When enabled, a node may not inject while
    # the mean estimated occupancy of its router's local+global output
    # channels exceeds congestion_threshold.  This prevents the
    # post-saturation congestion collapse that Fig. 9 demonstrates
    # (and the paper defers to future work); disabled by default to
    # match the paper's evaluated configuration.
    congestion_control: bool = False
    congestion_threshold: float = 0.65
    # UGAL-L / PB injection decision: minimal iff q_min <= 2*q_val + offset
    # (phits; the nonminimal path is ~2x longer, hence the factor 2).
    ugal_offset: int = 8
    # PB: a global channel is flagged saturated when its estimated
    # downstream occupancy exceeds this fraction; flags reach the rest of
    # the group after pb_update_period cycles (the local link latency).
    pb_threshold: float = 0.35
    pb_update_period: int | None = None  # default: local_latency
    # --- misc -----------------------------------------------------------
    seed: int = 1
    deadlock_cycles: int = 20_000  # watchdog: no movement for this long

    def __post_init__(self) -> None:
        if self.routing not in ROUTINGS:
            raise ValueError(f"unknown routing {self.routing!r}; choose from {ROUTINGS}")
        if self.escape not in (ESCAPE_NONE, ESCAPE_PHYSICAL, ESCAPE_EMBEDDED):
            raise ValueError(f"unknown escape mode {self.escape!r}")
        if self.routing in ("ofar", "ofar-l") and self.escape == ESCAPE_NONE:
            raise ValueError("OFAR requires an escape subnetwork (physical or embedded)")
        if self.packet_size <= 0:
            raise ValueError("packet_size must be positive")
        if self.allocator_iterations < 1:
            raise ValueError("allocator_iterations must be >= 1")
        if self.input_read_ports < 1:
            raise ValueError("input_read_ports must be >= 1")
        if self.pb_update_period is not None and self.pb_update_period < 1:
            raise ValueError("pb_update_period must be >= 1 (or None)")
        if self.ofar_transit_misroute not in ("local-first", "global-first"):
            raise ValueError(
                "ofar_transit_misroute must be 'local-first' or 'global-first'"
            )
        for name, vcs, buf in (
            ("local", self.local_vcs, self.local_buffer),
            ("global", self.global_vcs, self.global_buffer),
            ("injection", self.injection_vcs, self.injection_buffer),
        ):
            if vcs < 1:
                raise ValueError(f"{name}_vcs must be >= 1")
            if buf < self.packet_size:
                raise ValueError(
                    f"{name}_buffer ({buf}) must hold a whole packet "
                    f"({self.packet_size} phits) for virtual cut-through"
                )
        if self.escape != ESCAPE_NONE and not 1 <= self.escape_rings <= self.h:
            raise ValueError(
                f"escape_rings must be in [1, h={self.h}], got {self.escape_rings}"
            )
        # Bubble flow control needs room for two whole packets in a ring
        # buffer, otherwise the escape network can never accept traffic
        # and loses its deadlock-freedom guarantee.
        if self.escape == ESCAPE_PHYSICAL and self.ring_buffer < 2 * self.packet_size:
            raise ValueError(
                f"ring_buffer ({self.ring_buffer}) must hold two packets "
                f"({2 * self.packet_size} phits) for bubble flow control"
            )
        if self.escape == ESCAPE_EMBEDDED:
            small = min(self.local_buffer, self.global_buffer)
            if small < 2 * self.packet_size:
                raise ValueError(
                    "an embedded escape ring needs local/global buffers of at "
                    f"least two packets ({2 * self.packet_size} phits) for "
                    "bubble flow control"
                )
        if self.routing in ("min", "val", "ugal", "pb", "par"):
            # Ascending-VC deadlock avoidance needs one VC per hop of the
            # longest path on each link class (paper §I); PAR pays one
            # extra local VC for its source-group divert (§II).
            need_local = {"min": 2, "par": 4}.get(self.routing, 3)
            need_global = 1 if self.routing == "min" else 2
            if self.local_vcs < need_local or self.global_vcs < need_global:
                raise ValueError(
                    f"routing {self.routing!r} needs >= {need_local} local and "
                    f">= {need_global} global VCs for deadlock freedom"
                )

    # ------------------------------------------------------------------
    @property
    def pb_period(self) -> int:
        """Effective PB broadcast period (defaults to the local latency)."""
        return self.pb_update_period if self.pb_update_period is not None else self.local_latency

    def with_routing(self, routing: str, **overrides) -> "SimulationConfig":
        """Copy with a different routing mechanism (and optional overrides).

        Baseline mechanisms do not use the escape subnetwork; it is
        disabled automatically unless explicitly overridden.
        """
        if "escape" not in overrides:
            if routing in ("ofar", "ofar-l"):
                overrides["escape"] = (
                    self.escape if self.escape != ESCAPE_NONE else ESCAPE_PHYSICAL
                )
            else:
                overrides["escape"] = ESCAPE_NONE
        return replace(self, routing=routing, **overrides)

    def replace(self, **overrides) -> "SimulationConfig":
        """Copy with arbitrary field overrides."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialization (experiment provenance, CLI --config)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """JSON representation (thresholds flattened into the object)."""
        data = asdict(self)
        return json.dumps(data, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimulationConfig":
        """Inverse of :meth:`to_json`; unknown keys are rejected."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
        th = data.pop("thresholds", None)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if th is not None:
            data["thresholds"] = ThresholdConfig(**th)
        return cls(**data)

    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, routing: str = "ofar", **overrides) -> "SimulationConfig":
        """The exact §V configuration (h=6; 5,256 nodes)."""
        base = dict(
            h=6,
            packet_size=8,
            local_latency=10,
            global_latency=100,
            local_buffer=32,
            global_buffer=256,
            injection_buffer=32,
            local_vcs=3,
            global_vcs=2,
            injection_vcs=3,
            allocator_iterations=3,
            routing=routing,
            thresholds=ThresholdConfig.variable(0.9),
            escape=ESCAPE_PHYSICAL if routing in ("ofar", "ofar-l") else ESCAPE_NONE,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def small(cls, h: int = 2, routing: str = "ofar", **overrides) -> "SimulationConfig":
        """A scaled-down network with the paper's router parameters.

        Latencies are shortened (2-cycle local, 10-cycle global wires)
        so that warm-up windows stay proportionate; buffer sizes are
        scaled with the shorter credit round-trip times.
        """
        base = dict(
            h=h,
            packet_size=8,
            local_latency=2,
            global_latency=10,
            local_buffer=16,
            global_buffer=48,
            injection_buffer=16,
            ring_buffer=48,
            local_vcs=3,
            global_vcs=2,
            injection_vcs=3,
            allocator_iterations=3,
            routing=routing,
            thresholds=ThresholdConfig.variable(0.9),
            escape=ESCAPE_PHYSICAL if routing in ("ofar", "ofar-l") else ESCAPE_NONE,
            deadlock_cycles=5_000,
        )
        base.update(overrides)
        return cls(**base)
