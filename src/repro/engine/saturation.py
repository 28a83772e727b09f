"""Saturation analysis utilities.

The paper reports saturation throughputs ("OFAR saturates at 0.45, PB
around 0.38").  Reading them off a coarse load sweep is noisy, so this
module provides:

- :func:`accepted_ratio` — one steady-state probe returning
  accepted/offered;
- :func:`find_saturation` — bisection for the highest offered load the
  network still accepts (within a tolerance), the standard definition
  of the saturation point;
- :func:`run_until_stable` — a steady-state run that extends its
  measurement window until the throughput of consecutive windows agrees,
  instead of trusting a fixed warm-up.
"""

from __future__ import annotations

from repro.engine.backend import default_backend
from repro.engine.config import SimulationConfig
from repro.engine.metrics import LoadPoint
from repro.engine.execute import STABLE_REL_TOL, windows_agree
from repro.engine.runner import build_steady_sim, run_spec
from repro.engine.runspec import RunSpec


def accepted_ratio(
    config: SimulationConfig,
    pattern_spec: str,
    load: float,
    warmup: int = 1_000,
    measure: int = 1_000,
) -> float:
    """Accepted/offered throughput ratio at one load (1.0 = keeping up)."""
    if load <= 0.0:
        raise ValueError("load must be positive")
    point = run_spec(
        RunSpec(config, pattern_spec, load, warmup, measure,
                backend=default_backend())
    )
    return point.throughput / load


def find_saturation(
    config: SimulationConfig,
    pattern_spec: str,
    lo: float = 0.05,
    hi: float = 1.0,
    tolerance: float = 0.02,
    acceptance: float = 0.95,
    warmup: int = 1_000,
    measure: int = 1_000,
) -> float:
    """Bisect for the saturation load of (config, pattern).

    Returns the highest offered load (within ``tolerance``) at which the
    network still accepts at least ``acceptance`` of it.  If even ``lo``
    saturates, returns ``lo``; if ``hi`` does not, returns ``hi``.
    """
    if not 0 < lo < hi <= 1.0:
        raise ValueError("need 0 < lo < hi <= 1.0")
    if accepted_ratio(config, pattern_spec, lo, warmup, measure) < acceptance:
        return lo
    if accepted_ratio(config, pattern_spec, hi, warmup, measure) >= acceptance:
        return hi
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if accepted_ratio(config, pattern_spec, mid, warmup, measure) >= acceptance:
            lo = mid
        else:
            hi = mid
    return lo


def run_until_stable(
    config: SimulationConfig,
    pattern_spec: str,
    load: float,
    window: int = 1_000,
    rel_tol: float = STABLE_REL_TOL,
    max_windows: int = 12,
) -> LoadPoint:
    """Steady-state measurement with automatic convergence detection.

    Runs one warm-up window, then measures in ``window``-cycle chunks
    until two consecutive windows' throughputs agree within ``rel_tol``
    (or ``max_windows`` elapse); returns the final window's LoadPoint.

    The simulator comes from the run layer's shared builder
    (:func:`~repro.engine.runner.build_steady_sim`) via an ordinary
    :class:`RunSpec` with ``max_windows`` set, so a saturation probe at
    ``(config, pattern, load)`` observes the *same* trajectory as a
    sweep point there — same pattern/generator seed derivation,
    per-source recording included.  (It used to hand-build its
    simulator with private RNG salts, making probe points incomparable
    to sweep points.)  The stopping rule is the point executor's
    :func:`~repro.engine.execute.windows_agree` — the same protocol
    ``repro sweep --saturating`` and the campaign ``{saturating,
    points, max_windows}`` shorthand request — so with the default
    ``rel_tol`` this call is bit-identical to ``run_spec`` of that
    spec; with ``max_windows=1`` it is bit-identical to ``run_spec``
    at fixed ``warmup=measure=window``.  (It drives the simulator by
    hand because ``rel_tol`` is not something a RunSpec can express.)
    """
    spec = RunSpec(
        config, pattern_spec, load, warmup=window, measure=window,
        max_windows=max_windows, backend=default_backend(),
    )
    sim = build_steady_sim(spec)
    sim.warm_up(window)
    previous = None
    for _ in range(max_windows):
        sim.metrics.reset(sim.cycle)
        sim.run(window)
        point = sim.metrics.load_point(load, sim.cycle)
        if previous is not None and windows_agree(previous, point.throughput, rel_tol):
            break
        previous = point.throughput
    return point
