"""The user-facing snapshot object: capture, save/load, fork.

:class:`Snapshot` wraps one encoded state dict (see
:mod:`repro.snapshot.codec`) and adds:

- **persistence** — :meth:`save` writes atomically (temp file +
  ``os.replace``), :meth:`load` reads back; the on-disk form is plain
  JSON, so snapshots are diffable and store-friendly;
- **identity** — :meth:`digest` content-hashes the behavioral state
  (telemetry, extras and the embedded spec excluded), so two snapshots
  are behaviorally interchangeable iff their digests match;
- **fork-after-warmup** — :meth:`fork` rebuilds a *fresh* simulator
  (from the embedded :class:`~repro.engine.runspec.RunSpec`, or a
  caller-supplied builder for bespoke construction paths like the
  transient runner's) and overlays the captured state, yielding an
  independent simulator that continues bit-identically to the
  original.  Call it N times to branch N measurement variants off one
  shared warm-up.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import TYPE_CHECKING, Callable, Optional

from repro.snapshot.codec import (
    SNAPSHOT_FORMAT,
    SnapshotError,
    apply_state,
    digest_of,
    encode_state,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.runspec import RunSpec
    from repro.engine.simulator import Simulator


class Snapshot:
    """One captured simulator state, ready to persist or fork."""

    __slots__ = ("state",)

    def __init__(self, state: dict):
        if state.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"unsupported snapshot format {state.get('format')!r}"
            )
        self.state = state

    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        sim: "Simulator",
        spec: "Optional[RunSpec]" = None,
        extras: Optional[dict] = None,
    ) -> "Snapshot":
        """Freeze ``sim``'s complete state at the current cycle.

        ``sim`` keeps running unaffected; the snapshot is an independent
        value.  Pass ``spec`` to make the snapshot self-describing (so
        :meth:`fork` needs no builder); ``extras`` rides along verbatim
        for caller bookkeeping (e.g. mid-measurement baselines).
        """
        return cls(encode_state(sim, extras=extras, spec=spec))

    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        return self.state["cycle"]

    @property
    def extras(self) -> Optional[dict]:
        return self.state.get("extras")

    def spec(self) -> "Optional[RunSpec]":
        """The embedded RunSpec, decoded, or None."""
        raw = self.state.get("spec")
        if raw is None:
            return None
        from repro.engine.runspec import RunSpec

        return RunSpec.from_jsonable(raw)

    def digest(self) -> str:
        """Behavioral content hash (telemetry/extras/spec excluded)."""
        return digest_of(self.state)

    # ------------------------------------------------------------------
    def restore_into(self, sim: "Simulator") -> "Simulator":
        """Overlay this snapshot onto a freshly built, structurally
        identical simulator and return it."""
        return apply_state(sim, self.state)

    def fork(
        self, build: "Optional[Callable[[], Simulator]]" = None
    ) -> "Simulator":
        """A fresh, independent simulator resumed from this snapshot.

        Each call builds a new simulator — via ``build`` when given,
        else from the embedded spec — and overlays the captured state,
        so N forks give N simulators that all start from the identical
        warmed state and then evolve independently (mutating one never
        touches another; the codec holds no live object references).
        """
        if build is not None:
            return self.restore_into(build())
        spec = self.spec()
        if spec is None:
            raise SnapshotError(
                "fork() needs an embedded RunSpec (capture with spec=...) "
                "or an explicit build callable"
            )
        from repro.engine.execute import build_sim

        return self.restore_into(build_sim(spec))

    # ------------------------------------------------------------------
    def to_jsonable(self) -> dict:
        return self.state

    @classmethod
    def from_jsonable(cls, data: dict) -> "Snapshot":
        return cls(data)

    def save(self, path: str) -> None:
        """Atomically write this snapshot to ``path`` as JSON."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self.state, fh, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> "Snapshot":
        with open(path) as fh:
            return cls(json.load(fh))
