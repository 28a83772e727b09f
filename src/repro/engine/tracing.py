"""Observability: per-packet hop tracing and sweep progress reporting.

Two of the run layer's three observability facilities live here; the
third is the in-run telemetry subsystem (:mod:`repro.telemetry`).  Each
watches a different timescale:

- :class:`Tracer` (per *event*) wraps a network's grant executor to
  record every hop of selected (or all) packets: (cycle, router, output
  port, port kind, VC, request kind).  Used by examples and tests to
  *show* a path — e.g. that an OFAR packet detoured around a hot link —
  instead of inferring it from counters.
- :class:`~repro.telemetry.sampler.TelemetrySampler` (per *window*,
  in :mod:`repro.telemetry`) snapshots windowed link utilization,
  buffer occupancy, ring pressure and latency digests every ``interval``
  cycles of a single run — the time-resolved middle ground between a
  hop trace and an end-of-run LoadPoint.
- :class:`SweepProgress` / :class:`ConsoleProgress` (per *grid point*)
  are the orchestrator's observability hook: after every resolved grid
  point the orchestrator emits a progress snapshot (done/cached/failed
  counts, rate, ETA, per-point wall time) to whatever observer the
  caller installed.  ``ConsoleProgress`` renders it as one stderr line
  per point; tests install plain lists.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, TextIO

from repro.network.network import Network
from repro.network.router import KIND_NAMES
from repro.topology.dragonfly import PortKind


@dataclass(frozen=True)
class Hop:
    """One recorded hop of one packet."""

    cycle: int
    router: int
    out_port: int
    port_kind: str
    out_vc: int
    kind: str  # min / misroute-local / misroute-global / ring-*

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"@{self.cycle:>6} r{self.router:<4} {self.port_kind}:{self.out_port}"
            f" vc{self.out_vc} [{self.kind}]"
        )


@dataclass
class PacketTrace:
    """All recorded hops of one packet, in order."""

    pid: int
    hops: list[Hop] = field(default_factory=list)

    def path(self) -> list[int]:
        """Routers visited (in grant order)."""
        return [h.router for h in self.hops]

    def kinds(self) -> list[str]:
        return [h.kind for h in self.hops]

    def misroutes(self) -> int:
        return sum(1 for h in self.hops if h.kind.startswith("misroute"))

    def used_ring(self) -> bool:
        return any(h.kind.startswith("ring") for h in self.hops)


class Tracer:
    """Records hop traces by intercepting ``Network.execute_grant``.

    Use as a context manager or call :meth:`detach` explicitly::

        with Tracer(sim.network, pids={pkt.pid}) as tracer:
            sim.run_until_drained(10_000)
        print(tracer.trace(pkt.pid).path())
    """

    def __init__(self, network: Network, pids: set[int] | None = None) -> None:
        self.network = network
        self.pids = pids  # None = trace everything
        self.traces: dict[int, PacketTrace] = {}
        self._original: Callable | None = None

    def __enter__(self) -> "Tracer":
        self.attach()
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    def attach(self) -> None:
        if self._original is not None:
            raise RuntimeError("tracer already attached")
        self._original = self.network.execute_grant
        original = self._original
        pids = self.pids
        traces = self.traces

        def traced(rt, in_port, in_vc, out_port, out_vc, kind, cycle):
            pkt = rt.in_bufs[in_port][in_vc].head()
            if pkt is not None and (pids is None or pkt.pid in pids):
                trace = traces.get(pkt.pid)
                if trace is None:
                    trace = traces[pkt.pid] = PacketTrace(pkt.pid)
                ch = rt.out[out_port]
                trace.hops.append(
                    Hop(
                        cycle=cycle,
                        router=rt.rid,
                        out_port=out_port,
                        port_kind=ch.kind.value,
                        out_vc=out_vc,
                        kind=KIND_NAMES[kind],
                    )
                )
            return original(rt, in_port, in_vc, out_port, out_vc, kind, cycle)

        self.network.execute_grant = traced  # type: ignore[method-assign]

    def detach(self) -> None:
        if self._original is not None:
            # Remove the instance-level override; the class method resumes.
            del self.network.__dict__["execute_grant"]
            self._original = None

    def trace(self, pid: int) -> PacketTrace:
        """Trace of one packet (empty if it never moved)."""
        return self.traces.get(pid, PacketTrace(pid))


# ----------------------------------------------------------------------
# Sweep progress (the orchestrator's observability hook)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepProgress:
    """One snapshot of an orchestrated sweep, emitted per resolved point.

    ``done + cached + failed`` counts resolved points; ``total`` is the
    grid size.  ``rate`` is *executed* points (``done + failed``) per
    second of wall time — cache hits resolve up front in microseconds
    and say nothing about how long the remaining simulations take — and
    ``eta_seconds`` the remaining-work extrapolation (0.0 once the grid
    is resolved, NaN before the first point has executed).

    Fleet-drained sweeps (:mod:`repro.fabric`) fill in the fleet
    fields: ``worker`` names the emitting worker, ``fleet_workers``
    counts the live workers draining the same store, and ``fleet_rate``
    is their combined points per second — which then drives the ETA,
    because the remaining work is shared.  Single-host runs keep the
    defaults (one anonymous worker, NaN fleet rate) and behave exactly
    as before.
    """

    total: int
    done: int  # freshly simulated
    cached: int  # served from the result store
    failed: int  # exhausted retries (recorded, not fatal)
    elapsed: float  # seconds since the grid started
    last_label: str  # RunSpec.label() of the point just resolved
    last_status: str  # "done" | "cached" | "failed"
    last_wall_time: float  # seconds spent on that point
    worker: str = ""  # emitting fabric worker id ("" = single-host)
    fleet_workers: int = 1  # live workers draining the same store
    fleet_rate: float = float("nan")  # fleet-wide points/sec (NaN = unknown)

    @property
    def resolved(self) -> int:
        return self.done + self.cached + self.failed

    @property
    def rate(self) -> float:
        executed = self.done + self.failed
        if executed == 0 or self.elapsed <= 0:
            return float("nan")
        return executed / self.elapsed

    @property
    def eta_seconds(self) -> float:
        if self.resolved >= self.total:
            return 0.0
        rate = self.fleet_rate if self.fleet_rate == self.fleet_rate else self.rate
        if rate != rate or rate == 0:
            return float("nan")
        return (self.total - self.resolved) / rate

    def render(self) -> str:
        rate, eta = self.rate, self.eta_seconds
        rate_text = f"{rate:.2f}" if rate == rate else "?"
        eta_text = f"{eta:.0f}s" if eta == eta else "?"
        line = (
            f"[sweep {self.resolved}/{self.total}] "
            f"done={self.done} cached={self.cached} failed={self.failed} "
            f"{rate_text} pt/s eta {eta_text} | "
            f"{self.last_label}: {self.last_status} in {self.last_wall_time:.2f}s"
        )
        if self.fleet_workers > 1 or self.worker:
            fleet = (
                f"{self.fleet_rate:.2f} pt/s fleet"
                if self.fleet_rate == self.fleet_rate else "rate ?"
            )
            line += f" | {self.fleet_workers} worker(s), {fleet}"
        return line


# An observer is any callable taking one SweepProgress.
ProgressObserver = Callable[[SweepProgress], None]


class ConsoleProgress:
    """Progress observer that prints one line per resolved point."""

    def __init__(self, stream: TextIO | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def __call__(self, progress: SweepProgress) -> None:
        print(progress.render(), file=self.stream, flush=True)


def describe_route(network: Network, trace: PacketTrace) -> str:
    """Human-readable one-liner: groups visited and hop kinds."""
    topo = network.topo
    parts = []
    for hop in trace.hops:
        g = topo.router_group(hop.router)
        tag = {
            PortKind.LOCAL.value: "l",
            PortKind.GLOBAL.value: "g",
            PortKind.NODE.value: "eject",
            PortKind.RING.value: "ring",
        }[hop.port_kind]
        mark = "" if hop.kind == "min" else f"*{hop.kind}"
        parts.append(f"g{g}:{tag}{mark}")
    return " -> ".join(parts)
