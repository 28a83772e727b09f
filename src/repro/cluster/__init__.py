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

from repro._exports import lazy_exports

_EXPORTS = {
    "schedule": (
        "SCHEDULERS", "CompiledScenario", "Scheduler", "compile_scenario",
        "register_scheduler",
    ),
    "spec": ("ArrivalSpec", "FaultEvent", "FaultScheduleSpec", "JobMix", "ScenarioSpec"),
    "runner": ("ScenarioResult", "run_scenario"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
