"""Shared scaffolding of the run layer's front ends.

The :class:`Scale` presets (network size + window lengths, what a
campaign's ``scale:`` key and every ``--scale`` flag name) and THE
definition of the run layer's command-line surface:
:func:`add_run_args` declares the ``--workers/--resume/--store/
--no-cache/--progress/--timeout/--telemetry/--snapshot-every/
--backend/--fabric`` flags once, and :func:`orchestrator_from_args` /
:func:`fabric_options_from_args` interpret them, for ``repro sweep``,
``repro campaign run``, ``repro interference`` and ``repro fabric
work`` alike.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.engine.backend import default_backend, set_default_backend
from repro.engine.config import SimulationConfig
from repro.engine.orchestrator import Orchestrator
from repro.engine.runspec import RunSpec

#: Default result-store directory used by ``--resume`` when no
#: ``--store`` is given.
DEFAULT_STORE = ".repro-store"


@dataclass(frozen=True)
class Scale:
    """Size/duration preset for an experiment.

    ``paper_params`` selects the exact §V configuration (10/100-cycle
    links, 32/256-phit FIFOs); otherwise the proportionally shortened
    ``SimulationConfig.small`` parameters are used so that warm-up
    windows and credit round-trips stay balanced at small h.
    """

    name: str
    h: int
    warmup: int
    measure: int
    paper_params: bool = False
    burst_packets_per_node: int = 20
    transient_warmup: int = 2_000
    transient_post: int = 2_500

    def config(self, routing: str, **overrides) -> SimulationConfig:
        if self.paper_params:
            return SimulationConfig.paper(routing=routing, **overrides)
        return SimulationConfig.small(h=self.h, routing=routing, **overrides)

    def loads(self, saturating: float = 0.56, points: int = 7) -> list[float]:
        """A default load sweep reaching past saturation."""
        step = saturating / (points - 1)
        return [round(step * i, 4) for i in range(1, points)] + [
            round(saturating * 1.3, 4)
        ]

    def spec(self, routing: str, pattern: str, load: float,
             **config_overrides) -> RunSpec:
        """One steady-state :class:`RunSpec` at this scale's windows.

        The spec is stamped with the process-wide default engine backend
        (``--backend`` via :func:`orchestrator_from_args`), so the
        choice travels with the spec into orchestrator workers.
        """
        return RunSpec(
            self.config(routing, **config_overrides), pattern, load,
            self.warmup, self.measure, backend=default_backend(),
        )


TINY = Scale("tiny", h=2, warmup=300, measure=400, burst_packets_per_node=5,
             transient_warmup=600, transient_post=800)
SMALL = Scale("small", h=2, warmup=1_000, measure=1_200, burst_packets_per_node=20,
              transient_warmup=1_500, transient_post=2_000)
MEDIUM = Scale("medium", h=3, warmup=1_000, measure=1_200, burst_packets_per_node=20,
               transient_warmup=1_500, transient_post=2_000)
LARGE = Scale("large", h=4, warmup=1_500, measure=2_000, burst_packets_per_node=30,
              transient_warmup=2_500, transient_post=3_000)
PAPER = Scale("paper", h=6, warmup=20_000, measure=20_000, paper_params=True,
              burst_packets_per_node=2_000, transient_warmup=30_000,
              transient_post=30_000)

_SCALES = {s.name: s for s in (TINY, SMALL, MEDIUM, LARGE, PAPER)}


def get_scale(name: str) -> Scale:
    """Scale preset by name."""
    try:
        return _SCALES[name]
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; choose from {sorted(_SCALES)}") from None


# ----------------------------------------------------------------------
# Shared CLI options
# ----------------------------------------------------------------------

def add_run_args(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the shared run-execution flags to ``parser``.

    This is THE definition of the run layer's command-line surface:
    ``repro sweep``, ``repro campaign run``, ``repro interference`` and
    ``repro fabric work`` all call it, so the flag set cannot drift
    between entry points.  Parse results feed
    :func:`orchestrator_from_args`, which interprets every flag
    (including ``--backend``) in one place.
    """
    group = parser.add_argument_group("sweep execution")
    group.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for grid points (default: in-process sequential)",
    )
    group.add_argument(
        "--store", default=None, metavar="DIR",
        help="result-store directory for caching/checkpointing completed points",
    )
    group.add_argument(
        "--resume", action="store_true",
        help=f"resume from the result store (default dir {DEFAULT_STORE!r} "
             "when --store is not given): completed points are cache hits, "
             "only missing points run",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="ignore existing store entries (re-run and overwrite them)",
    )
    group.add_argument(
        "--progress", action="store_true",
        help="print one progress line per resolved point (stderr)",
    )
    group.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock limit, enforced by killing the point's "
             "worker process; without --workers one worker is used",
    )
    group.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="extra attempts after a failed/crashed/timed-out point (default 1)",
    )
    group.add_argument(
        "--telemetry", type=int, nargs="?", const=100, default=None,
        metavar="INTERVAL",
        help="record an in-run telemetry series per point (sampling window "
             "in cycles, default 100); series files land in the telemetry "
             "directory, keyed by spec fingerprint",
    )
    group.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="where per-point telemetry series go (default: "
             "<store>/telemetry, or .repro-store/telemetry without a store)",
    )
    group.add_argument(
        "--snapshot-every", type=int, default=None, metavar="CYCLES",
        help="checkpoint each in-flight point to the result store every "
             "CYCLES simulated cycles; a crashed/killed worker's retry "
             "resumes from its last checkpoint instead of cycle 0 "
             f"(implies a store, default dir {DEFAULT_STORE!r})",
    )
    group.add_argument(
        "--backend", default=None, metavar="NAME",
        help="engine backend executing each point (object | array); "
             "backends are bit-for-bit identical, so results and store "
             "keys do not depend on this choice (default: object)",
    )
    fabric = parser.add_argument_group(
        "distributed fabric",
        "cooperatively drain the grid with other hosts through one "
        "shared store directory (repro.fabric); run the same command "
        "on every host",
    )
    fabric.add_argument(
        "--fabric", action="store_true",
        help="join (or start) the fleet draining this grid: claim points "
             "via store leases, skip points the store already has, and "
             "wait for peers' in-flight points before reporting "
             f"(implies a store, default dir {DEFAULT_STORE!r})",
    )
    fabric.add_argument(
        "--lease-ttl", type=float, default=60.0, metavar="SECONDS",
        help="seconds without a heartbeat before a point's lease is "
             "considered stale and reclaimable (default 60)",
    )
    fabric.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="fleet-wide execution attempts per point before it is "
             "recorded as failed (default 3)",
    )
    fabric.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="this worker's identity in leases and status tables "
             "(default <hostname>-<pid>)",
    )
    fabric.add_argument(
        "--coordinator", default=None, metavar="URL",
        help="drain through a 'repro fabric serve' coordinator at URL "
             "instead of a shared store directory (no shared filesystem "
             "needed); --store then names this worker's local spool for "
             "checkpoints and telemetry (implies --fabric)",
    )
    return parser


def orchestration_options() -> argparse.ArgumentParser:
    """The argparse *parent* carrying the shared sweep-execution flags."""
    return add_run_args(argparse.ArgumentParser(add_help=False))


def _install_backend_from_args(args: argparse.Namespace) -> None:
    """``--backend`` becomes the process-wide default (or SystemExit)."""
    backend = getattr(args, "backend", None)
    if backend is not None:
        try:
            set_default_backend(backend)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None


def fabric_options_from_args(args: argparse.Namespace):
    """``(store, drain kwargs)`` for the ``--fabric`` execution path.

    Validates flag compatibility (``--workers``/``--no-cache``/
    ``--timeout`` conflict with cooperative draining), installs
    ``--backend`` as the process default, and resolves the shared store
    (``--store``, default :data:`DEFAULT_STORE`).  The returned kwargs
    feed :func:`repro.fabric.drain` (or, popped apart, a
    :class:`~repro.fabric.WorkQueue` + :class:`~repro.fabric.FabricWorker`
    pair for the long-lived ``repro fabric work`` command).
    """
    from repro.analysis.store import ResultStore
    from repro.engine.tracing import ConsoleProgress
    from repro.telemetry.config import TelemetryConfig

    if args.workers is not None:
        raise SystemExit(
            "--fabric runs one worker per process; for more workers run "
            "the same command again (on this host or any other sharing "
            "the store) instead of --workers"
        )
    if args.no_cache:
        raise SystemExit(
            "--fabric treats the store as the fleet's ground truth "
            "(cached = done); --no-cache would make workers repeat each "
            "other's points"
        )
    if args.timeout is not None:
        raise SystemExit(
            "--fabric has no per-point timeout (points run in-process); "
            "stuck workers are handled by lease expiry (--lease-ttl) "
            "and the fleet-wide --max-attempts budget"
        )
    _install_backend_from_args(args)
    telemetry = (
        TelemetryConfig(interval=args.telemetry)
        if getattr(args, "telemetry", None) is not None else None
    )
    coordinator = getattr(args, "coordinator", None)
    if coordinator:
        # HTTP mode: the authoritative store lives behind the
        # coordinator; --store names this worker's local spool.
        from repro.fabric.coordinator import open_coordinator
        from repro.fabric.lease import FabricBackendError

        try:
            store, leases = open_coordinator(
                coordinator, args.store or DEFAULT_STORE,
                worker_id=args.worker_id, lease_ttl=args.lease_ttl,
            )
        except FabricBackendError as exc:
            raise SystemExit(f"fabric error: {exc}") from None
    else:
        store = ResultStore(args.store or DEFAULT_STORE)
        leases = None
    options = dict(
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        snapshot_every=getattr(args, "snapshot_every", None),
        telemetry=telemetry,
        telemetry_dir=getattr(args, "telemetry_dir", None),
        poll=getattr(args, "poll", 1.0),
        max_points=getattr(args, "max_points", None),
        observer=ConsoleProgress() if args.progress else None,
        leases=leases,
    )
    return store, options


def orchestrator_from_args(args: argparse.Namespace) -> Orchestrator:
    """Interpret an :func:`add_run_args` namespace.

    With no flags this is an in-process orchestrator with no store.
    Besides building the orchestrator, this installs the requested
    engine backend as the process-wide default
    (:func:`repro.engine.backend.set_default_backend`), so every spec
    constructed afterwards — ``Scale.spec``, campaign expansion, the
    CLI — carries it.
    """
    from repro.analysis.store import ResultStore
    from repro.engine.tracing import ConsoleProgress

    from repro.telemetry.config import TelemetryConfig

    if getattr(args, "fabric", False) or getattr(args, "coordinator", None):
        # Commands that support cooperative draining branch to
        # fabric_options_from_args before ever building an orchestrator;
        # reaching here means this command cannot honor the flag.
        raise SystemExit(
            "--fabric/--coordinator are supported on 'repro sweep' and "
            "'repro campaign run' (and 'repro fabric work'); this "
            "command runs single-host"
        )
    _install_backend_from_args(args)
    snapshot_every = getattr(args, "snapshot_every", None)
    store_dir = args.store or (
        DEFAULT_STORE if (args.resume or snapshot_every is not None) else None
    )
    telemetry = (
        TelemetryConfig(interval=args.telemetry)
        if getattr(args, "telemetry", None) is not None else None
    )
    telemetry_dir = getattr(args, "telemetry_dir", None)
    if telemetry is not None and telemetry_dir is None and store_dir is None:
        # --telemetry with neither a store nor an explicit directory
        # still needs somewhere for the series files.
        telemetry_dir = f"{DEFAULT_STORE}/telemetry"
    workers = args.workers
    if args.timeout is not None:
        # The timeout is enforced by killing a stuck worker *process*;
        # in-process execution has nothing to kill.  Promote the default
        # to one worker, and refuse an explicit in-process request.
        if workers == 0:
            raise SystemExit(
                "--timeout cannot be enforced with --workers 0 (in-process "
                "execution has no worker process to kill); use --workers >= 1 "
                "or drop --timeout"
            )
        if workers is None:
            workers = 1
    return Orchestrator(
        workers=workers if workers is not None else 0,
        store=ResultStore(store_dir) if store_dir is not None else None,
        use_cache=not args.no_cache,
        retries=args.retries,
        timeout=args.timeout,
        observer=ConsoleProgress() if args.progress else None,
        telemetry=telemetry,
        telemetry_dir=telemetry_dir,
        snapshot_every=snapshot_every,
    )


def scale_from_cli(description: str) -> Scale:
    """Parse a study module's ``python -m repro.experiments.<study>
    [--scale NAME]`` command line."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--scale",
        default="medium",
        choices=sorted(_SCALES),
        help="network size / run length preset (default: medium, h=3)",
    )
    return get_scale(parser.parse_args().scale)
