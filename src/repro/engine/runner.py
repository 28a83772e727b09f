"""Experiment runners: steady state, load sweeps, transients, bursts.

These wrap :class:`~repro.engine.simulator.Simulator` with the paper's
measurement protocols so campaigns, studies and benchmarks stay
declarative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.engine.backend import EngineBackend, resolve_backend
from repro.engine.config import SimulationConfig
from repro.engine.execute import execute_point
from repro.engine.metrics import LoadPoint
from repro.engine.runspec import RunSpec
from repro.engine.simulator import Simulator
from repro.traffic.generators import BernoulliTraffic, BurstTraffic, TransientTraffic
from repro.traffic.patterns import make_pattern

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.config import TelemetryConfig
    from repro.telemetry.sampler import TelemetrySeries


def _pattern_rng(config: SimulationConfig, salt: int) -> random.Random:
    """Dedicated RNG for destination choices, decoupled from the
    router-level RNG so routing decisions don't perturb the workload."""
    return random.Random((config.seed << 16) ^ salt)


def build_steady_sim(
    spec: RunSpec, backend: "EngineBackend | None" = None
) -> Simulator:
    """Fresh simulator + Bernoulli generator for one steady-state spec.

    The simulator class comes from the spec's engine backend
    (:func:`~repro.engine.backend.resolve_backend`); the generator
    wiring — pattern RNG salt, Bernoulli seed derivation, per-source
    recording — is backend-independent, which is what makes backends
    interchangeable at the trajectory level.

    Per-source ejected counts are always recorded so every steady point
    reports the Jain index / worst-source share in its LoadPoint; the
    counters are observation only (no RNG draws), so the rest of the
    point is unchanged.
    """
    if backend is None:
        backend = resolve_backend(spec)
    config = spec.config
    sim = backend.simulator(config, record_per_source=True)
    pattern = make_pattern(sim.network.topo, _pattern_rng(config, 0xA5), spec.pattern_spec)
    sim.generator = BernoulliTraffic(
        pattern, spec.load, config.packet_size, sim.network.topo.num_nodes,
        config.seed ^ 0x5A5A,
    )
    return sim


def run_spec(spec: RunSpec) -> LoadPoint:
    """Warm up, measure, and summarize one :class:`RunSpec` point.

    The in-process entry to the one point executor
    (:func:`repro.engine.execute.execute_point`), which the orchestrator
    and the fabric workers call too.  The engine executing the point is
    chosen by ``spec.backend``.  Multi-job and scenario specs report the
    *global* LoadPoint; use :func:`repro.workloads.runner.run_workload`
    / :func:`repro.cluster.runner.run_scenario` for the per-job
    breakdown.  Specs with ``max_windows`` set measure with the
    windowed-convergence protocol instead of one fixed window.
    """
    return execute_point(spec)


def run_load_sweep(
    config: SimulationConfig,
    pattern_spec: str,
    loads: list[float],
    warmup: int = 2_000,
    measure: int = 2_000,
) -> list[LoadPoint]:
    """One steady-state point per offered load (fresh simulator each).

    A thin wrapper over the orchestrator's in-process mode: identical
    results to calling :func:`run_spec` in a loop, with failures
    propagating as the original exception.
    """
    from repro.engine.orchestrator import Orchestrator

    specs = [RunSpec(config, pattern_spec, load, warmup, measure) for load in loads]
    return Orchestrator(workers=0, retries=0).run_points(specs)


@dataclass
class TransientResult:
    """Latency-vs-send-cycle series around a traffic pattern switch."""

    switch_cycle: int
    series: list[tuple[int, float]]  # (send cycle bucket, avg latency)
    # In-run telemetry covering the whole transient (None unless
    # run_transient was given a TelemetryConfig).
    telemetry: "TelemetrySeries | None" = None

    def average_latency(self, start: int, end: int) -> float:
        """Mean of the series over send cycles in [start, end)."""
        vals = [lat for cyc, lat in self.series if start <= cyc < end]
        if not vals:
            raise ValueError(f"no samples in [{start}, {end})")
        return sum(vals) / len(vals)

    def settle_cycle(self, target: float, after: int) -> int | None:
        """First send-cycle >= ``after`` from which latency stays <= target.

        Returns None when the series never settles.  This quantifies the
        'adaptation period' visible in Fig. 6.
        """
        settled_from = None
        for cyc, lat in self.series:
            if cyc < after:
                continue
            if lat <= target:
                if settled_from is None:
                    settled_from = cyc
            else:
                settled_from = None
        return settled_from

    def summarize(self, tail: int = 500) -> dict:
        """Fig. 6 summary: pre-switch level, post-switch spike, the
        settled level and the settle time back to within 1.5x of it."""
        switch = self.switch_cycle
        pre = self.average_latency(max(0, switch - tail), switch)
        spike = max(
            (lat for cyc, lat in self.series if cyc >= switch),
            default=float("nan"),
        )
        series_end = self.series[-1][0] if self.series else switch
        settled_level = self.average_latency(max(switch, series_end - tail), series_end + 1)
        settle = self.settle_cycle(target=1.5 * settled_level, after=switch)
        return {
            "pre_latency": round(pre, 1),
            "spike_latency": round(spike, 1),
            "settled_latency": round(settled_level, 1),
            "settle_cycles": (settle - switch) if settle is not None else None,
        }

    def settle_crosscheck(self, tail: int = 500) -> dict:
        """Latency-based vs utilization-based settle time.

        Requires a result produced with telemetry.  Both numbers use the
        same semantics (first point after the switch from which the
        signal stays within 1.5× its final level), so they should land
        within a sampling window of each other when latency and link
        load settle together — a disagreement means the network found a
        new equilibrium where one signal recovered but the other did not.
        """
        from repro.analysis.heatmap import settle_from_utilization

        if self.telemetry is None:
            raise ValueError("run the transient with a TelemetryConfig first")
        util_settle = settle_from_utilization(
            self.telemetry, after=self.switch_cycle, kind="local"
        )
        return {
            "settle_latency": self.summarize(tail=tail)["settle_cycles"],
            "settle_util": (
                util_settle - self.switch_cycle if util_settle is not None else None
            ),
        }


def _build_transient_sim(
    config: SimulationConfig,
    before_spec: str,
    after_spec: str,
    load: float,
    warmup: int,
    bucket: int,
    backend: str = "object",
) -> Simulator:
    """Fresh simulator + two-phase generator for one transient run."""
    from repro.engine.backend import get_backend

    sim = get_backend(backend).simulator(
        config, record_send_latency=True, send_bucket=bucket
    )
    topo = sim.network.topo
    phases = [
        (0, make_pattern(topo, _pattern_rng(config, 0xB0), before_spec)),
        (warmup, make_pattern(topo, _pattern_rng(config, 0xB1), after_spec)),
    ]
    sim.generator = TransientTraffic(
        phases, load, config.packet_size, topo.num_nodes, config.seed ^ 0x7171
    )
    return sim


def run_transient(
    config: SimulationConfig,
    before_spec: str,
    after_spec: str,
    load: float,
    warmup: int = 3_000,
    post: int = 3_000,
    drain_margin: int = 4_000,
    bucket: int = 20,
    telemetry: "TelemetryConfig | None" = None,
    backend: str = "object",
) -> TransientResult:
    """Fig. 6 protocol: warm up with one pattern, switch, watch latency.

    The returned series covers send cycles in [0, warmup + post); the
    simulation continues ``drain_margin`` extra cycles so late packets
    from the reported range are (almost) all accounted.

    With a ``telemetry`` config, a sampler watches the *whole* run
    (warm-up, switch, drain) so the utilization spike at the switch is
    in the series; sample cycles line up directly with send cycles
    (both count from 0) and ``switch_cycle`` marks the transition.
    """
    sim = _build_transient_sim(
        config, before_spec, after_spec, load, warmup, bucket, backend
    )
    sampler = None
    if telemetry is not None:
        from repro.telemetry.sampler import TelemetrySampler

        sampler = TelemetrySampler(sim, telemetry)
        sampler.attach()
    sim.run(warmup + post + drain_margin)
    series = [
        (cyc, lat) for cyc, lat in sim.metrics.send_latency_series() if cyc < warmup + post
    ]
    return TransientResult(
        switch_cycle=warmup,
        series=series,
        telemetry=sampler.finish() if sampler is not None else None,
    )


def run_transient_forked(
    config: SimulationConfig,
    before_spec: str,
    after_specs: list[str],
    load: float,
    warmup: int = 3_000,
    post: int = 3_000,
    drain_margin: int = 4_000,
    bucket: int = 20,
    backend: str = "object",
) -> list[TransientResult]:
    """Fig. 6 protocol over N after-patterns with ONE shared warm-up.

    Warms up a single simulator under ``before_spec``, snapshots the
    warmed state (:mod:`repro.snapshot`), and branches one measurement
    per entry of ``after_specs`` from it.  Each returned result is
    bit-identical to the corresponding individually-warmed
    :func:`run_transient` call, because nothing before the switch cycle
    depends on the after-pattern: the warm trajectory (before-pattern
    RNG, Bernoulli stream, router RNG) is shared, and the one piece of
    state that *is* after-pattern-specific — the salt-0xB1 pattern RNG,
    advanced only at pattern construction — is re-pinned to each fresh
    variant's own post-construction state after the overlay.

    Cost: ``warmup + N*(post + drain_margin)`` simulated cycles instead
    of ``N*(warmup + post + drain_margin)``.
    """
    if not after_specs:
        raise ValueError("after_specs must name at least one pattern")
    from repro.snapshot import Snapshot
    from repro.snapshot.codec import _walk_pattern_rngs

    base = _build_transient_sim(
        config, before_spec, after_specs[0], load, warmup, bucket, backend
    )
    base.run(warmup)
    snap = Snapshot.capture(base)

    results = []
    for after_spec in after_specs:
        sim = _build_transient_sim(
            config, before_spec, after_spec, load, warmup, bucket, backend
        )
        # The variant's own after-phase RNG state (post-construction —
        # e.g. a permutation pattern draws its mapping at build time).
        own = [
            (rng, rng.getstate())
            for rng in _walk_pattern_rngs(sim.generator.phases[1][1])
        ]
        snap.restore_into(sim)
        for rng, state in own:
            rng.setstate(state)
        sim.run(post + drain_margin)
        series = [
            (cyc, lat)
            for cyc, lat in sim.metrics.send_latency_series()
            if cyc < warmup + post
        ]
        results.append(TransientResult(switch_cycle=warmup, series=series))
    return results


@dataclass
class BurstResult:
    """Fig. 7 protocol result: time to consume a fixed backlog."""

    completion_cycle: int
    total_packets: int
    avg_latency: float
    avg_hops: float
    ring_fraction: float

    @property
    def packets_per_cycle(self) -> float:
        return self.total_packets / self.completion_cycle


def run_burst(
    config: SimulationConfig,
    pattern_spec: str,
    packets_per_node: int,
    max_cycles: int = 2_000_000,
    backend: str = "object",
) -> BurstResult:
    """Inject a fixed per-node backlog and time its full consumption."""
    from repro.engine.backend import get_backend

    sim = get_backend(backend).simulator(config)
    topo = sim.network.topo
    pattern = make_pattern(topo, _pattern_rng(config, 0xC2), pattern_spec)
    sim.generator = BurstTraffic(pattern, packets_per_node, topo.num_nodes)
    completion = sim.run_until_drained(max_cycles)
    m = sim.metrics
    # NaN, not 0.0, when nothing was ejected — same empty-window rule as
    # Metrics.load_point (a burst always ejects, but keep the emitters
    # honest).
    n = m.ejected_packets if m.ejected_packets > 0 else float("nan")
    return BurstResult(
        completion_cycle=completion,
        total_packets=m.ejected_packets,
        avg_latency=m.latency_sum / n,
        avg_hops=m.hops_sum / n,
        ring_fraction=m.ring_packets / n,
    )
