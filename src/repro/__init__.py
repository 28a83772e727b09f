"""OFAR — On-the-Fly Adaptive Routing in high-radix hierarchical networks.

A full reproduction of García et al., *On-the-Fly Adaptive Routing in
High-Radix Hierarchical Networks* (ICPP 2012): a cycle-driven dragonfly
network simulator with virtual cut-through routers, credit flow control
and a separable LRS allocator; the MIN/VAL/UGAL-L/PB baselines with
ascending-VC deadlock avoidance; and the OFAR mechanism itself —
in-transit adaptive misrouting protected by a Hamiltonian escape ring
with bubble flow control (physical or embedded).

Quickstart::

    from repro import RunSpec, SimulationConfig, run_spec

    cfg = SimulationConfig.small(h=2, routing="ofar")
    point = run_spec(RunSpec(cfg, "ADV+2", load=0.3))
    print(point.throughput, point.avg_latency)

The engine executing a point is a per-spec detail: ``RunSpec(...,
backend="array")`` selects the numpy struct-of-arrays engine, proven
bit-for-bit identical to the default object engine (see
:mod:`repro.engine.backend`).

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "engine.backend": (
        "EngineBackend", "available_backends", "get_backend", "register_backend",
        "resolve_backend",
    ),
    "engine.config": ("SimulationConfig", "ThresholdConfig"),
    "engine.metrics": ("LoadPoint", "Metrics"),
    "engine.runner": (
        "BurstResult", "TransientResult", "build_steady_sim", "run_burst",
        "run_load_sweep", "run_spec", "run_transient", "run_transient_forked",
    ),
    "engine.runspec": ("RunSpec",),
    "engine.simulator": ("DeadlockError", "Simulator"),
    "network.network": ("Network",),
    "snapshot": ("Snapshot",),
    "topology.dragonfly": ("Dragonfly",),
    "topology.hamiltonian": ("HamiltonianRing",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__ += ["__version__"]
