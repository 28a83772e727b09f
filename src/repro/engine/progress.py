"""Sweep progress: the orchestrator's per-grid-point observability hook.

After every resolved grid point the orchestrator (and each fabric
worker) emits a :class:`SweepProgress` snapshot — done/cached/failed
counts, rate, ETA, per-point wall time — to whatever observer the
caller installed.  :class:`ConsoleProgress` renders it as one stderr
line per point; tests install plain lists.  The other two observation
facilities watch a single run: the per-event hop
:class:`~repro.engine.tracing.Tracer` and the per-window
:class:`~repro.telemetry.sampler.TelemetrySampler`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, TextIO


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
