"""Import hygiene: commands that run no point load no simulator, and the
lazy package export tables (``repro._exports``) keep the public API."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Loaded only by code that executes a point.
HEAVY = (
    "numpy",
    "repro.engine.simulator",
    "repro.network.network",
    "repro.routing",
    "repro.traffic.generators",
)

#: Every package's ``__all__`` before the export tables, which must
#: all still import from the same package.
PUBLIC_API = {
    "repro": [
        "BurstResult", "DeadlockError", "Dragonfly", "EngineBackend",
        "HamiltonianRing", "LoadPoint", "Metrics", "Network", "RunSpec",
        "SimulationConfig", "Simulator", "Snapshot", "ThresholdConfig",
        "TransientResult", "__version__", "available_backends", "build_steady_sim",
        "get_backend", "register_backend", "resolve_backend", "run_burst",
        "run_load_sweep", "run_spec", "run_transient", "run_transient_forked",
    ],
    "repro.analysis": [
        "LatencyModel", "LinkMonitor", "LinkStats", "Series", "StaticLoadReport",
        "Table", "analyze", "l2_link_concentration", "local_link_advh_bound",
        "max_edge_disjoint_rings", "max_l2_concentration", "min_adversarial_bound",
        "offset_bound_table", "original_global_wires", "predicted_saturation",
        "ring_added_global_wires", "ring_added_link_fraction", "valiant_bound",
        "valiant_offset_bound",
    ],
    "repro.campaign": [
        "CampaignError", "CampaignPoint", "CampaignRun", "CampaignSpec",
        "EMITTERS", "MEDIUM", "PAPER", "SMALL", "Scale", "TINY", "deep_merge",
        "emit", "get_scale", "load_campaign", "load_mapping", "mean_ci",
        "run_campaign", "run_campaign_fabric", "t_critical", "validate_post",
    ],
    "repro.cluster": [
        "ArrivalSpec", "CompiledScenario", "FaultEvent", "FaultScheduleSpec",
        "JobMix", "SCHEDULERS", "ScenarioResult", "ScenarioSpec", "Scheduler",
        "compile_scenario", "register_scheduler", "run_scenario",
    ],
    "repro.core": ["OFARRouting"],
    "repro.engine": [
        "DeadlockError", "EngineBackend", "LoadPoint", "Metrics", "Orchestrator",
        "OrchestratorError", "PointResult", "RunSpec", "SimulationConfig",
        "Simulator", "ThresholdConfig", "available_backends", "build_steady_sim",
        "default_backend", "get_backend", "register_backend", "resolve_backend",
        "run_burst", "run_load_sweep", "run_spec", "run_transient",
        "set_default_backend",
    ],
    "repro.fabric": [
        "Claim", "FAILURE_KIND", "FabricBackendError", "FabricSummary",
        "FabricWorker", "LEASE_DIR", "Lease", "LeaseManager", "QueueStatus",
        "WorkQueue", "affinity_group", "drain", "fleet_status", "lease_path",
        "read_lease", "reap",
    ],
    "repro.fabric.coordinator": [
        "API_PREFIX", "CoordinatorClient", "CoordinatorError",
        "CoordinatorUnreachable", "FabricCoordinator", "HTTPLeaseManager",
        "PROTOCOL", "RemoteStore", "open_coordinator", "serve",
    ],
    "repro.network": ["Buffer", "LRSArbiter", "Network", "OutputChannel", "Packet", "Router"],
    "repro.routing": [
        "MinimalRouting", "PARRouting", "PiggybackRouting", "RoutingAlgorithm",
        "UGALRouting", "ValiantRouting", "make_routing",
    ],
    "repro.snapshot": [
        "SNAPSHOT_FORMAT", "Snapshot", "SnapshotError", "apply_state",
        "diff_states", "digest_of", "encode_state", "first_divergence",
        "state_digest",
    ],
    "repro.telemetry": [
        "BufferStats", "ClassStats", "SERIES_FORMAT", "TelemetryConfig",
        "TelemetrySample", "TelemetrySampler", "TelemetrySeries", "from_jsonl",
        "read_jsonl", "to_csv", "to_jsonl", "write_csv", "write_jsonl",
    ],
    "repro.topology": ["Dragonfly", "HamiltonianRing", "PortKind"],
    "repro.traffic": [
        "AdversarialLocalPattern", "AdversarialPattern", "BernoulliTraffic",
        "BurstTraffic", "MixPattern", "PermutationPattern", "ShiftPattern",
        "StencilPattern", "TraceEvent", "TraceRecorder", "TraceTraffic",
        "TrafficGenerator", "TrafficPattern", "TransientTraffic", "UniformPattern",
        "load_trace", "make_pattern", "near_square_dims", "save_trace",
        "synthesize_phases",
    ],
    "repro.workloads": [
        "CompositeTraffic", "JobResult", "JobSpec", "PLACEMENTS", "WorkloadResult",
        "WorkloadSpec", "build_job_generator", "build_workload_sim",
        "isolated_spec", "jain_across_jobs", "job_seed", "job_slowdowns",
        "make_job_pattern", "place_jobs", "run_workload",
    ],
}
PACKAGES = sorted(PUBLIC_API)


def python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this source tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)


def imported(*argv: str, cwd=None) -> set[str]:
    """``sys.modules`` after a fresh ``python -m repro ARGV`` (no ARGV:
    after ``import repro.cli``)."""
    run = (
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
    ) if argv else "import repro.cli\n"
    out = python("-c", f"import json, runpy, sys\n{run}"
                       "print(json.dumps(sorted(sys.modules)))", cwd=cwd).stdout
    return set(json.loads(out.splitlines()[-1]))


class TestStartupPath:
    def test_import_cli(self):
        modules = imported()
        assert "repro.cli" in modules
        assert modules.isdisjoint(HEAVY)

    def test_help(self):
        assert imported("--help").isdisjoint(HEAVY)

    def test_cached_campaign_run(self, tmp_path):
        from repro.cli import main

        camp = tmp_path / "c.json"
        camp.write_text(json.dumps({
            "name": "t", "scale": "tiny",
            "combination": {"routing": ["min"], "pattern": ["UN"], "load": [0.1, 0.2]},
        }))
        cmd = ["campaign", "run", str(camp), "--store", str(tmp_path / "store"),
               "--workers", "2"]
        main(cmd)  # fills the store
        modules = imported(*cmd, cwd=tmp_path)
        assert "repro.campaign.runner" in modules
        assert modules.isdisjoint(HEAVY)

    def test_preload_covers_a_point(self):
        # What the pool loads before forking is everything a child needs.
        out = python("-c", """
import sys
from repro.engine.config import SimulationConfig
from repro.engine.execute import execute_point, preload
from repro.engine.runspec import RunSpec
spec = RunSpec(SimulationConfig.small(h=2, routing="ofar"), "ADV+1", 0.1, 30, 30)
preload([spec])
before = set(sys.modules)
execute_point(spec)
print(sorted(set(sys.modules) - before))
""").stdout
        assert out.strip() == "[]"

    def test_old_cycle_resolves(self):
        # RunSpec embeds ScenarioSpec and WorkloadSpec; the runners import
        # the engine back.
        out = python("-c", """
import repro.engine.runspec
import repro.cluster, repro.workloads
print(repro.cluster.run_scenario.__module__, repro.workloads.run_workload.__module__,
      repro.workloads.WorkloadResult.__module__)
""").stdout
        assert out.split() == [
            "repro.cluster.runner", "repro.workloads.runner", "repro.workloads.runner"
        ]


class TestExportTables:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_table_defines_all(self, name):
        pkg = importlib.import_module(name)
        table = [n for names in pkg._EXPORTS.values() for n in names]
        assert [n for n in pkg.__all__ if n != "__version__"] == table
        for sub, names in pkg._EXPORTS.items():
            home = importlib.import_module(f"{name}.{sub}")
            for n in names:
                assert getattr(pkg, n) is getattr(home, n), (name, n)

    @pytest.mark.parametrize("name", PACKAGES)
    def test_star_dir_and_unknown(self, name):
        pkg = importlib.import_module(name)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert set(pkg.__all__) <= set(namespace)
        assert set(pkg.__all__) <= set(dir(pkg))
        with pytest.raises(AttributeError, match=re.escape(repr(name))):
            pkg.no_such_name

    @pytest.mark.parametrize("name", PACKAGES)
    def test_public_api_unchanged(self, name):
        pkg = importlib.import_module(name)
        for n in PUBLIC_API[name]:
            assert hasattr(pkg, n), (name, n)
        assert set(PUBLIC_API[name]) <= set(pkg.__all__)

    def test_one_lazy_mechanism(self):
        hand_rolled = [
            path for path in (SRC / "repro").rglob("*.py")
            if path.name != "_exports.py"
            and re.search(r"^def __getattr__", path.read_text(), re.M)
        ]
        assert hand_rolled == []
