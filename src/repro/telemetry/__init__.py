"""In-run telemetry: windowed time-series observation of a simulation.

The third observability facility of the run layer (beside the
event-level :class:`~repro.engine.tracing.Tracer` and the sweep-level
:class:`~repro.engine.progress.SweepProgress`): a
:class:`~repro.telemetry.sampler.TelemetrySampler` attached to a
:class:`~repro.engine.simulator.Simulator` snapshots windowed link
utilization, buffer occupancy, ring pressure, misroute rates and a
latency digest every ``interval`` cycles into a bounded
:class:`~repro.telemetry.sampler.TelemetrySeries`, exported as NaN-safe
JSONL/CSV (:mod:`repro.telemetry.export`) and rendered by
:mod:`repro.analysis.heatmap`.

Zero-cost when off, perturbation-free when on — see the module
docstrings of :mod:`repro.telemetry.sampler` and
:mod:`repro.telemetry.config` for the contracts.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "config": ("TelemetryConfig",),
    "export": (
        "SERIES_FORMAT", "from_jsonl", "read_jsonl", "to_csv", "to_jsonl",
        "write_csv", "write_jsonl",
    ),
    "sampler": (
        "BufferStats", "ClassStats", "TelemetrySample", "TelemetrySampler",
        "TelemetrySeries",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
