"""Cluster scenarios: job churn, pluggable scheduling, faults over live runs.

The subsystem in three layers, mirroring the workload package it builds
on:

- :mod:`repro.cluster.spec` — frozen, fingerprint-bearing descriptions
  (:class:`ScenarioSpec` and friends): arrival processes, job mixes,
  fault schedules, a scheduler choice.  Pure data, lossless JSON.
- :mod:`repro.cluster.schedule` — the discrete-event scheduling pass
  (:func:`compile_scenario`): FCFS / EASY-backfill place jobs through
  the stock placement policies and compile the scenario into a pinned
  :class:`~repro.workloads.spec.WorkloadSpec`, so churn rides on the
  :class:`~repro.workloads.composite.CompositeTraffic` lifecycle.
- :mod:`repro.cluster.runner` — execution (:func:`run_scenario`):
  advances the simulator between fault/sample boundaries, measures
  per-job outcomes and fault blast radii, emits a
  :class:`ScenarioResult` through the result-store sidecar API.
"""

from repro.cluster.schedule import (
    SCHEDULERS,
    CompiledScenario,
    Scheduler,
    compile_scenario,
    register_scheduler,
)
from repro.cluster.spec import (
    ArrivalSpec,
    FaultEvent,
    FaultScheduleSpec,
    JobMix,
    ScenarioSpec,
)

# The runner pulls in the engine run layer, which itself imports
# repro.cluster.spec (RunSpec embeds a ScenarioSpec) — resolve the cycle
# by loading the execution layer on first attribute access.
_RUNNER_EXPORTS = (
    "ScenarioResult",
    "run_scenario",
)


def __getattr__(name: str):
    if name in _RUNNER_EXPORTS:
        from repro.cluster import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArrivalSpec",
    "CompiledScenario",
    "FaultEvent",
    "FaultScheduleSpec",
    "JobMix",
    "SCHEDULERS",
    "ScenarioResult",
    "ScenarioSpec",
    "Scheduler",
    "compile_scenario",
    "register_scheduler",
    "run_scenario",
]
