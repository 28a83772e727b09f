"""Simulation engine: configuration, the single-cycle loop, metrics and
experiment runners (steady-state load sweeps, transients, bursts)."""

from repro._exports import lazy_exports

_EXPORTS = {
    "config": ("SimulationConfig", "ThresholdConfig"),
    "metrics": ("Metrics", "LoadPoint"),
    "runspec": ("RunSpec",),
    "simulator": ("Simulator", "DeadlockError"),
    "backend": (
        "EngineBackend", "available_backends", "default_backend", "get_backend",
        "register_backend", "resolve_backend", "set_default_backend",
    ),
    "runner": ("build_steady_sim", "run_spec", "run_load_sweep", "run_transient", "run_burst"),
    "orchestrator": ("Orchestrator", "OrchestratorError", "PointResult"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
