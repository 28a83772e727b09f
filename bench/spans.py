"""Span recording from outside the program.

A traced run wraps the public functions at each layer boundary and
records spans ``{name, start, end, parent, point}``.  Two kinds:

- *coarse* spans (:meth:`Tracer.span`) — a workload, a point, a phase
  of it, a subprocess, one probe — are kept one by one;
- *hot* spans (:meth:`Tracer.hot`) — ``OFAR.route`` runs ~3 million
  times in one past-saturation repeat — are rolled up per enclosing
  coarse span into one record carrying ``calls``, ``total_s`` and
  ``self_s`` beside the first start and last end.

Both kinds share one stack, so a span's self time is its duration
minus the interval its children cover, and the self times of a run sum
to the root span's duration.  Counts (grants per ``allocate`` call,
successful ``try_inject`` attempts) are taken in the same wrappers, so
ratios are measured where the work happens.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.point: str | None = None
        self._ids = 0
        # Frames are [span id or hot name, seconds covered by children].
        self._stack: list[list] = []
        # name -> [calls, total_s, child_s, tally, first_start, last_end, parent]
        self._hot: dict[str, list] = {}

    # -- coarse spans ---------------------------------------------------
    @contextmanager
    def span(self, name: str, point: str | None = None):
        self._ids += 1
        frame = [self._ids, 0.0]
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        outer_point = self.point
        if point is not None:
            self.point = point
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._roll_up(frame[0])
            self._stack.pop()
            if parent is not None:
                parent[1] += end - start
            self.spans.append({
                "id": frame[0], "name": name, "start": start, "end": end,
                "parent": parent[0] if parent else None, "point": self.point,
                "self_s": (end - start) - frame[1],
            })
            self.point = outer_point

    # -- hot spans ------------------------------------------------------
    def hot(self, name: str, fn, tally=None):
        """Wrap ``fn``; ``tally(result)`` adds to the span's count of
        useful outcomes (grants, accepted injections)."""
        acc = self._hot.setdefault(name, [0, 0.0, 0.0, 0, 0.0, 0.0, None])
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                above = stack[-1]
                above[1] += elapsed
                if not acc[0]:
                    acc[4] = start
                    acc[6] = above[0]
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += frame[1]
                acc[5] = end
            if tally is not None:
                acc[3] += tally(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _roll_up(self, under: int) -> None:
        """Close the hot accumulators into spans under coarse span ``under``."""
        for name, acc in self._hot.items():
            calls, total, child, tally, first, last, parent = acc
            if not calls:
                continue
            self.spans.append({
                "name": name, "start": first, "end": last,
                "parent": parent, "under": under, "point": self.point,
                "calls": calls, "total_s": total, "self_s": total - child,
                "tally": tally,
            })
            acc[:] = [0, 0.0, 0.0, 0, 0.0, 0.0, None]

    # -- reading --------------------------------------------------------
    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str, key: str = "self_s") -> float:
        return sum(s.get(key, 0) for s in self.named(name))

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_time_gap(self, root: str) -> float:
        """|sum of self times - root duration| as a share of the root."""
        span = self.named(root)[-1]
        length = span["end"] - span["start"]
        covered = sum(
            s["self_s"] for s in self.spans
            if span["start"] <= s["start"] and s["end"] <= span["end"]
        )
        return abs(covered - length) / length

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1))


def check_self_times(out, tracer: Tracer, root: str) -> None:
    """Per-layer shares are only readable if the self times add up;
    a gap over 5 % fails one point of ``out`` (a ``harness.Outcome``)."""
    gap = tracer.self_time_gap(root)
    if gap > 0.05:
        out.fail(1, f"span self times miss the root span by {gap:.1%}")


@contextmanager
def engine_wrappers(tracer: Tracer):
    """Class-level wrappers on the engine's layer boundaries, removed on
    exit so that untraced numbers never run through one."""
    from repro.core.ofar import OFARRouting  # noqa: F401 - registers the subclass
    from repro.engine.metrics import Metrics
    from repro.engine.simulator import Simulator
    from repro.network.network import Network
    from repro.network.router import Router
    from repro.routing.base import RoutingAlgorithm
    from repro.traffic.generators import BernoulliTraffic

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    targets = [
        ("engine.step", Simulator, "step", None),
        ("network.process_events", Network, "process_events", None),
        ("network.execute_grant", Network, "execute_grant", None),
        ("network.try_inject", Network, "try_inject", int),
        ("network.allocate", Router, "allocate", int),
        ("traffic.generate", BernoulliTraffic, "packets_for_cycle", None),
        ("engine.metrics.on_eject", Metrics, "on_eject", None),
    ]
    for cls in subclasses(RoutingAlgorithm):
        for method in ("route", "on_inject"):
            if method in vars(cls):
                targets.append((f"routing.{method}", cls, method, None))

    originals = [(cls, attr, vars(cls)[attr]) for _, cls, attr, _ in targets]
    try:
        for name, cls, attr, tally in targets:
            setattr(cls, attr, tracer.hot(name, vars(cls)[attr], tally))
        yield
    finally:
        for cls, attr, fn in originals:
            setattr(cls, attr, fn)
