"""The store's mid-run checkpoint slots.

With ``snapshot_every`` set, the point executor
(:func:`repro.engine.execute.execute_outcome`) periodically saves the
full simulator state here (atomic writes, result-store layout) and, on
a rerun, resumes from the last checkpoint instead of cycle 0.  Because
the snapshot codec is bit-exact, the resumed run produces the
*identical* LoadPoint (and WorkloadResult, and telemetry series) an
uninterrupted run would — crash recovery without a reproducibility tax.

Checkpoints live beside the other store objects::

    <store>/snapshots/<fp[:2]>/<fp>.json

keyed by the spec fingerprint, so each point owns exactly one
checkpoint slot (newer saves atomically replace older ones).  A
corrupt, foreign or version-mismatched checkpoint reads as a miss —
the point restarts from cycle 0, never errors.  On success the
checkpoint is deleted: the completed result supersedes it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.snapshot.codec import SnapshotError
from repro.snapshot.snapshot import Snapshot

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.runspec import RunSpec
    from repro.engine.simulator import Simulator

#: Store subdirectory holding mid-run checkpoints.
CHECKPOINT_KIND = "snapshots"


class Preempted(Exception):
    """Raised by the point executor when its ``should_stop`` callback
    fires: the in-flight point was checkpointed at the current cycle and
    can resume bit-identically — the run was preempted, not failed.
    Carries the spec fingerprint and the checkpoint cycle."""

    def __init__(self, fingerprint: str, cycle: int) -> None:
        super().__init__(f"preempted at cycle {cycle} ({fingerprint[:12]})")
        self.fingerprint = fingerprint
        self.cycle = cycle


def checkpoint_path(store_root: str | os.PathLike, fingerprint: str) -> Path:
    """``<store>/snapshots/<fp[:2]>/<fp>.json`` — the store's sharded
    layout, one slot per spec."""
    return Path(store_root) / CHECKPOINT_KIND / fingerprint[:2] / f"{fingerprint}.json"


def load_checkpoint(
    store_root: str | os.PathLike, spec: "RunSpec"
) -> Optional[Snapshot]:
    """The spec's checkpoint, or None on any kind of miss.

    Same corruption tolerance as the result store: unreadable JSON, a
    foreign format version, or a checkpoint whose embedded spec does not
    match all read as "no checkpoint".
    """
    path = checkpoint_path(store_root, spec.fingerprint())
    try:
        snap = Snapshot.load(path)
    except (OSError, ValueError, KeyError, TypeError, SnapshotError):
        return None
    if snap.state.get("spec") != spec.to_jsonable():
        return None
    return snap


def save_checkpoint(
    store_root: str | os.PathLike, spec: "RunSpec", sim: "Simulator",
    extras: Optional[dict],
) -> None:
    """Atomically replace the spec's checkpoint with ``sim``'s current
    state; ``extras`` (the executor's measurement bookkeeping) rides along."""
    path = checkpoint_path(store_root, spec.fingerprint())
    Snapshot.capture(sim, spec=spec, extras=extras).save(str(path))


def clear_checkpoint(store_root: str | os.PathLike, spec: "RunSpec") -> None:
    try:
        os.unlink(checkpoint_path(store_root, spec.fingerprint()))
    except OSError:
        pass


__all__ = [
    "CHECKPOINT_KIND",
    "Preempted",
    "checkpoint_path",
    "clear_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
]
