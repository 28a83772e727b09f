"""Saturation probes are ordinary RunSpec points.

Accepted/offered ratios, saturation brackets and windowed-convergence
measurement are all ``run_spec`` of a :class:`RunSpec` — with
``max_windows`` set for the convergence protocol.  The numbers pinned
here are what the deleted probe helpers (``accepted_ratio``,
``find_saturation``, ``run_until_stable``) returned for the same
points, which they computed through the same builder.
"""

import pytest

from repro.engine.config import SimulationConfig
from repro.engine.runner import run_spec
from repro.engine.runspec import RunSpec

#: A load the network "accepts" when it delivers this share of it.
ACCEPTANCE = 0.95


def cfg(routing="min", **overrides):
    return SimulationConfig.small(h=2, routing=routing, **overrides)


def accepted(config, pattern, load, window=400) -> float:
    """Accepted/offered throughput ratio at one load (1.0 = keeping up)."""
    return run_spec(RunSpec(config, pattern, load, window, window)).throughput / load


class TestAcceptedRatio:
    def test_low_load_fully_accepted(self):
        assert accepted(cfg(), "UN", 0.1) == 1.0222222222222221

    def test_overload_rejected(self):
        # MIN under ADV collapses to ~1/(2h^2); offered 0.5 mostly queues.
        assert accepted(cfg(), "ADV+2", 0.5, window=500) == 0.2391111111111111

    def test_zero_load_invalid(self):
        with pytest.raises(ValueError, match="load"):
            RunSpec(cfg(), "UN", -0.1)


class TestFindSaturation:
    """The brackets bisection found: accepted at the reported
    saturation load, rejected above it."""

    def test_min_adversarial_saturates_low(self):
        # Bounded by 1/(2h^2) = 0.125: accepted at 0.084, not at 0.25.
        assert accepted(cfg(), "ADV+2", 0.084375) == 1.0041152263374487
        assert accepted(cfg(), "ADV+2", 0.25) == 0.48777777777777775

    def test_ofar_adversarial_saturates_high(self):
        assert accepted(cfg("ofar"), "ADV+2", 0.3) == 1.0175925925925926
        assert accepted(cfg("ofar"), "ADV+2", 0.45) == 0.9567901234567902

    def test_ordering_matches_paper(self):
        """Saturation ladder under the worst pattern: OFAR > VAL."""
        assert accepted(cfg("val"), "ADV+2", 0.3) < ACCEPTANCE
        assert accepted(cfg("ofar"), "ADV+2", 0.3) >= ACCEPTANCE

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="max_windows"):
            RunSpec(cfg(), "UN", 0.1, max_windows=0)


class TestRunUntilStable:
    def test_converges_at_low_load(self):
        point = run_spec(RunSpec(cfg(), "UN", 0.15, 400, 400, max_windows=12))
        assert (point.throughput, point.ejected_packets) == (0.15055555555555555, 542)

    def test_returns_point_even_if_noisy(self):
        point = run_spec(RunSpec(cfg("ofar"), "ADV+2", 0.5, 300, 300, max_windows=3))
        assert (point.throughput, point.ejected_packets) == (0.5003703703703704, 1351)

    def test_single_window_matches_run_spec(self):
        """One convergence window is exactly the fixed-window protocol."""
        config = cfg("ofar", seed=7)
        probe = run_spec(RunSpec(config, "UN", 0.15, 400, 400, max_windows=1))
        direct = run_spec(RunSpec(config, "UN", 0.15, warmup=400, measure=400))
        assert probe == direct
        assert (probe.throughput, probe.ejected_packets, probe.avg_latency) == (
            0.14555555555555555, 524, 44.97709923664122)

    def test_probe_records_per_source(self):
        """Windowed points carry fairness stats like every steady point."""
        point = run_spec(RunSpec(cfg(), "UN", 0.15, 400, 400, max_windows=1))
        assert (point.jain_index, point.worst_source_share) == (
            0.8830157395731166, 0.26181818181818184)
