"""Multi-job workloads: placement, composition, per-job attribution.

The subsystem splits into an engine-free description/composition layer
(:class:`~repro.engine.runspec.RunSpec` embeds a :class:`WorkloadSpec`,
so these modules must not import the engine back) and an execution
layer (:mod:`repro.workloads.runner`).  Every export is lazy
(:mod:`repro._exports`), so importing ``repro.workloads.spec`` loads
neither the composition layer's traffic generators nor the runner.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "composite": ("CompositeTraffic", "build_job_generator", "job_seed"),
    "jobpatterns": ("make_job_pattern",),
    "placement": ("place_jobs",),
    "spec": ("PLACEMENTS", "JobSpec", "WorkloadSpec"),
    "runner": (
        "JobResult", "WorkloadResult", "build_workload_sim", "run_workload",
        "isolated_spec", "job_slowdowns", "jain_across_jobs",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
