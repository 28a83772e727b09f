"""The single currency of the run layer: :class:`RunSpec`.

A steady-state simulation point is fully determined by five values —
the :class:`~repro.engine.config.SimulationConfig`, the traffic-pattern
spec string, the offered load, and the warm-up / measurement windows.
``RunSpec`` freezes them into one hashable value that the point
executor, the orchestrator, the fabric and the on-disk result store all
consume, so "the same point" means the same thing everywhere.  The
optional ``workload``, ``scenario``, ``transient`` and ``burst`` fields
make it a point of another kind (:func:`repro.engine.execute.kind_of`).

Two derived encodings matter:

- :meth:`RunSpec.fingerprint` — a stable content hash used as the
  result-store key.  Two specs collide iff they describe the same
  simulation, across processes and sessions (the hash covers a
  canonical JSON form, not Python object identity).
- :meth:`RunSpec.to_json` / :meth:`RunSpec.from_json` — a lossless
  round-trip used for provenance inside store entries.

Two fields are exceptions to "everything is identity": ``telemetry``
requests in-run observation (:mod:`repro.telemetry`) and ``backend``
selects the engine implementation (:mod:`repro.engine.backend`); both
are excluded from the encodings, because neither changes what the
simulation computes — samplers never perturb, and every registered
backend is proven bit-for-bit identical to the reference engine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.cluster.spec import ScenarioSpec
from repro.engine.config import SimulationConfig
from repro.telemetry.config import TelemetryConfig
from repro.workloads.spec import WorkloadSpec

# Bump when the meaning of a fingerprinted field changes so stale store
# entries become misses instead of wrong answers.
FINGERPRINT_VERSION = 1


@dataclass(frozen=True)
class TransientSpec:
    """A pattern switch (Fig. 6): ``before`` until cycle ``switch``, then
    ``after``; latency is reported per ``bucket`` send cycles over
    ``[0, switch + post)``."""

    before: str
    after: str
    switch: int
    post: int
    bucket: int = 20

    def __post_init__(self) -> None:
        for name in ("switch", "post", "bucket"):
            if getattr(self, name) < 1:
                raise ValueError(f"transient {name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class RunSpec:
    """One (config, pattern, load, windows) point of any kind."""

    config: SimulationConfig
    pattern_spec: str
    load: float
    warmup: int = 2_000
    measure: int = 2_000
    # Observation sidecar, NOT identity: a sampler never perturbs the
    # simulation, so ``telemetry`` is deliberately excluded from
    # ``to_jsonable()``/``fingerprint()`` — enabling it neither
    # invalidates cached results nor forks the store key.  (Rationale in
    # repro.telemetry.config.)
    telemetry: TelemetryConfig | None = None
    # Multi-job workload (repro.workloads).  Unlike telemetry this IS
    # identity — the jobs, their placement and their lifetimes determine
    # every number — so it participates in the JSON form and the
    # fingerprint.  The key is *omitted* when None, which keeps every
    # pre-existing single-tenant fingerprint unchanged.
    workload: WorkloadSpec | None = None
    # Windowed-convergence measurement (saturating sweeps).  When set,
    # the runner measures in ``measure``-cycle windows until consecutive
    # windows' throughputs agree (or ``max_windows`` elapse) instead of
    # one fixed window.  This changes the reported numbers, so like
    # ``workload`` it IS identity: fingerprinted when set, the key
    # omitted when None so fixed-window fingerprints are unchanged.
    max_windows: int | None = None
    # Cluster scenario (repro.cluster): churn + faults + scheduling over
    # the horizon.  Like ``workload`` this IS identity — the arrival
    # process, mix, scheduler and fault schedule determine every number
    # — and like it the key is omitted when None so every pre-existing
    # fingerprint is unchanged.
    scenario: ScenarioSpec | None = None
    # Engine backend selection, NOT identity: every registered backend
    # is proven bit-for-bit identical to the reference object engine
    # (tests/test_array_backend.py, determinism_fingerprint --backend),
    # so like ``telemetry`` it is excluded from ``to_jsonable()``/
    # ``fingerprint()`` — results computed by one backend are cache hits
    # for every other.
    backend: str = "object"
    # Pattern-switch (Fig. 6) and burst-consumption (Fig. 7) protocols.
    # Identity like ``workload``, the key omitted when None.  Both run
    # from cycle 0 (warmup=0); a burst — ``burst`` packets per node —
    # ends when the network drains, ``measure`` being its cycle budget.
    transient: TransientSpec | None = None
    burst: int | None = None

    def __post_init__(self) -> None:
        if self.load < 0:
            raise ValueError(f"load must be >= 0, got {self.load}")
        if self.warmup < 0 or self.measure < 0:
            raise ValueError("warmup and measure must be >= 0")
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError(f"backend must be a non-empty string, got {self.backend!r}")
        kinds = [k for k in ("workload", "scenario", "transient", "burst")
                 if getattr(self, k) is not None]
        if len(kinds) > 1:
            raise ValueError(f"a spec is one kind of point, got {kinds}")
        if self.max_windows is not None:
            if self.max_windows < 1:
                raise ValueError(
                    f"max_windows must be >= 1, got {self.max_windows}"
                )
            if kinds:
                raise ValueError(
                    "windowed convergence (max_windows) is a steady-state "
                    f"protocol; {kinds[0]} specs measure one fixed window"
                )
        if kinds:
            # Canonical encoding: a kind's own field carries what the
            # plain fields would, so those hold fixed sentinel values —
            # one point, one fingerprint.  Per kind: the (pattern_spec,
            # load, warmup) it must have, and whether the rest fits.
            t, s = self.transient, self.scenario
            pattern, load, warmup, fits = {
                "workload": ("workload", 0.0, self.warmup, True),
                "scenario": ("scenario", 0.0, 0, s is not None and self.measure == s.horizon),
                "transient": ("transient", self.load, 0,
                              t is not None and self.measure >= t.switch + t.post),
                "burst": (self.pattern_spec, 0.0, 0, (self.burst or 0) >= 1),
            }[kinds[0]]
            if (self.pattern_spec, self.load, self.warmup) != (pattern, load, warmup) \
                    or not fits:
                raise ValueError(
                    f"{kinds[0]} specs must use pattern_spec={pattern!r}, "
                    f"load={load}, warmup={warmup} and windows that fit the {kinds[0]} "
                    f"(use RunSpec.for_{kinds[0]})"
                )

    @classmethod
    def for_scenario(
        cls,
        config: SimulationConfig,
        scenario: ScenarioSpec,
        telemetry: TelemetryConfig | None = None,
        backend: str = "object",
    ) -> "RunSpec":
        """Canonical constructor for cluster-scenario specs."""
        return cls(
            config, "scenario", 0.0, 0, scenario.horizon, telemetry,
            scenario=scenario, backend=backend,
        )

    @classmethod
    def for_workload(
        cls,
        config: SimulationConfig,
        workload: WorkloadSpec,
        warmup: int = 2_000,
        measure: int = 2_000,
        telemetry: TelemetryConfig | None = None,
        backend: str = "object",
    ) -> "RunSpec":
        """Canonical constructor for multi-job specs."""
        return cls(
            config, "workload", 0.0, warmup, measure, telemetry, workload,
            backend=backend,
        )

    @classmethod
    def for_transient(
        cls,
        config: SimulationConfig,
        transient: TransientSpec,
        load: float,
        drain_margin: int = 4_000,
        telemetry: TelemetryConfig | None = None,
        backend: str = "object",
    ) -> "RunSpec":
        """Canonical constructor for pattern-switch specs: the run goes
        ``drain_margin`` cycles past the reported range so late packets
        from it are (almost) all accounted."""
        return cls(
            config, "transient", load, 0,
            transient.switch + transient.post + drain_margin, telemetry,
            backend=backend, transient=transient,
        )

    @classmethod
    def for_burst(
        cls,
        config: SimulationConfig,
        pattern_spec: str,
        packets_per_node: int,
        max_cycles: int = 2_000_000,
        backend: str = "object",
    ) -> "RunSpec":
        """Canonical constructor for burst-consumption specs."""
        return cls(
            config, pattern_spec, 0.0, 0, max_cycles, backend=backend,
            burst=packets_per_node,
        )

    # ------------------------------------------------------------------
    def label(self) -> str:
        """Short human-readable tag for logs and progress lines."""
        if self.scenario is not None:
            what = f"scenario[{self.scenario.scheduler},{self.scenario.horizon}cyc]"
        elif self.workload is not None:
            what = f"workload[{len(self.workload.jobs)} jobs]"
        elif self.transient is not None:
            what = f"{self.transient.before}->{self.transient.after}/{self.load:g}"
        elif self.burst is not None:
            what = f"{self.pattern_spec}/burst[{self.burst}]"
        else:
            what = f"{self.pattern_spec}/{self.load:g}"
        return f"{self.config.routing}/{what} (h={self.config.h})"

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_jsonable(self) -> dict:
        out = {
            "config": json.loads(self.config.to_json()),
            "pattern_spec": self.pattern_spec,
            "load": self.load,
            "warmup": self.warmup,
            "measure": self.measure,
        }
        if self.workload is not None:
            out["workload"] = self.workload.to_jsonable()
        if self.max_windows is not None:
            out["max_windows"] = self.max_windows
        if self.scenario is not None:
            out["scenario"] = self.scenario.to_jsonable()
        if self.transient is not None:
            out["transient"] = asdict(self.transient)
        if self.burst is not None:
            out["burst"] = self.burst
        return out

    @classmethod
    def from_jsonable(cls, data: dict) -> "RunSpec":
        if not isinstance(data, dict):
            raise ValueError("RunSpec JSON must be an object")
        # The optional keys, each with its decoder (scalars pass as is).
        decoders = {
            "workload": WorkloadSpec.from_jsonable,
            "scenario": ScenarioSpec.from_jsonable,
            "transient": lambda t: TransientSpec(**t),
            "max_windows": None,
            "burst": None,
        }
        unknown = set(data) - {
            "config", "pattern_spec", "load", "warmup", "measure", *decoders
        }
        if unknown:
            raise ValueError(f"unknown RunSpec keys: {sorted(unknown)}")
        return cls(
            config=SimulationConfig.from_json(json.dumps(data["config"])),
            pattern_spec=data["pattern_spec"],
            load=data["load"],
            warmup=data["warmup"],
            measure=data["measure"],
            **{k: decode(data[k]) if decode else data[k]
               for k, decode in decoders.items() if data.get(k) is not None},
        )

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_jsonable(json.loads(text))

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of this spec (the result-store key).

        The hash covers the canonical JSON form with sorted keys, so it
        is independent of field declaration order, process, platform and
        session.  Floats round-trip through ``repr`` inside ``json``, so
        distinct loads (0.1 vs 0.1000001) never collide.
        """
        payload = self.to_jsonable()
        payload["v"] = FINGERPRINT_VERSION
        blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
