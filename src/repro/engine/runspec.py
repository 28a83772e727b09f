"""The single currency of the run layer: :class:`RunSpec`.

A steady-state simulation point is fully determined by five values —
the :class:`~repro.engine.config.SimulationConfig`, the traffic-pattern
spec string, the offered load, and the warm-up / measurement windows.
``RunSpec`` freezes them into one hashable value that the point
executor, the orchestrator, the fabric and the on-disk result store all
consume, so "the same point" means the same thing everywhere.

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
from dataclasses import dataclass

from repro.cluster.spec import ScenarioSpec
from repro.engine.config import SimulationConfig
from repro.telemetry.config import TelemetryConfig
from repro.workloads.spec import WorkloadSpec

# Bump when the meaning of a fingerprinted field changes so stale store
# entries become misses instead of wrong answers.
FINGERPRINT_VERSION = 1


@dataclass(frozen=True)
class RunSpec:
    """One steady-state (config, pattern, load, windows) point."""

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

    def __post_init__(self) -> None:
        if self.load < 0:
            raise ValueError(f"load must be >= 0, got {self.load}")
        if self.warmup < 0 or self.measure < 0:
            raise ValueError("warmup and measure must be >= 0")
        if self.max_windows is not None:
            if self.max_windows < 1:
                raise ValueError(
                    f"max_windows must be >= 1, got {self.max_windows}"
                )
            if self.workload is not None:
                raise ValueError(
                    "windowed convergence (max_windows) is a steady-state "
                    "protocol; workload specs measure one fixed window"
                )
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError(f"backend must be a non-empty string, got {self.backend!r}")
        if self.workload is not None:
            # Canonical encoding: the jobs carry the patterns and loads,
            # so the single-tenant fields must hold fixed sentinel
            # values — otherwise one workload could fingerprint two ways.
            if self.pattern_spec != "workload" or self.load != 0.0:
                raise ValueError(
                    "workload specs must use pattern_spec='workload' and "
                    "load=0.0 (use RunSpec.for_workload)"
                )
        if self.scenario is not None:
            # Same canonical-sentinel rule as workload, plus the windows
            # are pinned to the scenario's own horizon: one scenario,
            # one fingerprint.
            if self.workload is not None:
                raise ValueError(
                    "a spec carries a workload or a scenario, never both "
                    "(the scenario compiles to its own workload)"
                )
            if self.max_windows is not None:
                raise ValueError(
                    "scenarios run a fixed horizon; max_windows does not "
                    "apply"
                )
            if (
                self.pattern_spec != "scenario"
                or self.load != 0.0
                or self.warmup != 0
                or self.measure != self.scenario.horizon
            ):
                raise ValueError(
                    "scenario specs must use pattern_spec='scenario', "
                    "load=0.0, warmup=0 and measure == scenario.horizon "
                    "(use RunSpec.for_scenario)"
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

    # ------------------------------------------------------------------
    def label(self) -> str:
        """Short human-readable tag for logs and progress lines."""
        if self.scenario is not None:
            return (
                f"{self.config.routing}/scenario[{self.scenario.scheduler},"
                f"{self.scenario.horizon}cyc] (h={self.config.h})"
            )
        if self.workload is not None:
            return (
                f"{self.config.routing}/workload[{len(self.workload.jobs)} jobs]"
                f" (h={self.config.h})"
            )
        return (
            f"{self.config.routing}/{self.pattern_spec}/{self.load:g}"
            f" (h={self.config.h})"
        )

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
        return out

    @classmethod
    def from_jsonable(cls, data: dict) -> "RunSpec":
        if not isinstance(data, dict):
            raise ValueError("RunSpec JSON must be an object")
        known = {
            "config", "pattern_spec", "load", "warmup", "measure",
            "workload", "max_windows", "scenario",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown RunSpec keys: {sorted(unknown)}")
        workload = data.get("workload")
        scenario = data.get("scenario")
        return cls(
            config=SimulationConfig.from_json(json.dumps(data["config"])),
            pattern_spec=data["pattern_spec"],
            load=data["load"],
            warmup=data["warmup"],
            measure=data["measure"],
            workload=WorkloadSpec.from_jsonable(workload)
            if workload is not None
            else None,
            max_windows=data.get("max_windows"),
            scenario=ScenarioSpec.from_jsonable(scenario)
            if scenario is not None
            else None,
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
