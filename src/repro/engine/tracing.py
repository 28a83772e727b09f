"""Observability: per-packet hop tracing.

One of the run layer's three observability facilities lives here; the
others are the in-run telemetry subsystem (:mod:`repro.telemetry`) and
the sweep progress hook (:mod:`repro.engine.progress`).  Each watches a
different timescale:

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
- :class:`~repro.engine.progress.SweepProgress` (per *grid point*, in
  :mod:`repro.engine.progress`) is the orchestrator's observability
  hook: a progress snapshot after every resolved grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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
