"""Multi-job workloads: placement, composition, per-job attribution.

The subsystem splits into an engine-free description/composition layer
(imported eagerly — :class:`~repro.engine.runspec.RunSpec` embeds a
:class:`WorkloadSpec`, so these modules must not import the engine
back) and an execution layer (:mod:`repro.workloads.runner`, exported
lazily below to keep the import graph acyclic).
"""

from repro.workloads.composite import CompositeTraffic, build_job_generator, job_seed
from repro.workloads.jobpatterns import make_job_pattern
from repro.workloads.placement import place_jobs
from repro.workloads.spec import PLACEMENTS, JobSpec, WorkloadSpec

_RUNNER_EXPORTS = {
    "JobResult",
    "WorkloadResult",
    "build_workload_sim",
    "run_workload",
    "isolated_spec",
    "job_slowdowns",
    "jain_across_jobs",
}

__all__ = [
    "CompositeTraffic",
    "JobSpec",
    "PLACEMENTS",
    "WorkloadSpec",
    "build_job_generator",
    "job_seed",
    "make_job_pattern",
    "place_jobs",
    *sorted(_RUNNER_EXPORTS),
]


def __getattr__(name):
    # Lazy: runner imports the engine, which imports repro.workloads.spec.
    if name in _RUNNER_EXPORTS:
        from repro.workloads import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
