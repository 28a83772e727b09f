"""Content-addressed on-disk store of steady-state results.

Every completed :class:`~repro.engine.runspec.RunSpec` point can be
persisted as one JSON file keyed by the spec's
:meth:`~repro.engine.runspec.RunSpec.fingerprint`.  Because the key is
a content hash of the *complete* simulation input, the store doubles as

- a **cache** — re-running a sweep (or an overlapping one) hits
  existing entries instead of re-simulating, and the cached
  :class:`~repro.engine.metrics.LoadPoint` is bit-identical to a fresh
  run (the engine is deterministic in the spec; JSON round-trips Python
  floats exactly);
- a **checkpoint** — entries are written atomically the moment a point
  completes, so a killed sweep resumes at the first missing fingerprint
  with no separate checkpoint file to maintain.

Layout::

    <root>/objects/<fp[:2]>/<fp>.json

Each entry records the full spec (provenance + corruption guard), the
exact point, and bookkeeping metadata.  A corrupt, truncated, or
foreign entry is treated as a miss — the point re-runs and the entry is
overwritten — never as an error.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.metrics import LoadPoint
from repro.engine.runspec import RunSpec

STORE_FORMAT = 1


def write_json_atomic(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON via tmp file + rename.

    The store's one write primitive, shared by every layer that parks
    files under the store root (entries, sidecars, snapshot checkpoints
    via their own codec, fabric leases and worker stats): readers see
    the old file or the new file, never a partial one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(payload, indent=1, sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(blob)
        os.replace(tmp, path)  # atomic on POSIX: readers see old or new, never partial
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class StoreStats:
    """Read-side counters, for observability and tests."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0  # present but unreadable/foreign (counted as misses too)
    writes: int = 0


class ResultStore:
    """Fingerprint-keyed store of (RunSpec -> LoadPoint) entries."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    def path_for(self, fingerprint: str) -> Path:
        return self.root / "objects" / fingerprint[:2] / f"{fingerprint}.json"

    def __contains__(self, spec: RunSpec) -> bool:
        return self.path_for(spec.fingerprint()).exists()

    # ------------------------------------------------------------------
    # Existence probes: the store-access seam the fabric layer uses, so
    # a remote (coordinator-backed) store can answer the same questions
    # over a socket that this one answers with a stat.
    # ------------------------------------------------------------------
    def has(self, fingerprint: str) -> bool:
        """A result entry exists for ``fingerprint`` (no parse)."""
        return self.path_for(fingerprint).exists()

    def has_sidecar(self, kind: str, fingerprint: str) -> bool:
        """A ``kind`` sidecar exists for ``fingerprint`` (no parse)."""
        return self.sidecar_path(kind, fingerprint).exists()

    def resolved_many(
        self, fingerprints: list[str], failure_kind: str = "failures"
    ) -> dict[str, str | None]:
        """Batch resolution probe: fp -> ``"result"`` | ``"failure"`` | None.

        One call covers a whole grid scan; the remote store implements
        it as a single round trip where per-point :meth:`has` calls
        would each cost one.
        """
        out: dict[str, str | None] = {}
        for fp in fingerprints:
            if self.has(fp):
                out[fp] = "result"
            elif self.has_sidecar(failure_kind, fp):
                out[fp] = "failure"
            else:
                out[fp] = None
        return out

    def __len__(self) -> int:
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*.json"))

    # ------------------------------------------------------------------
    def get(self, spec: RunSpec) -> LoadPoint | None:
        """Cached point for ``spec``, or None on any kind of miss.

        Corruption tolerance is deliberate: a truncated file (killed
        writer on a non-atomic filesystem), invalid JSON, a wrong
        format version, or an entry whose recorded spec does not match
        (hash collision, stale fingerprint scheme) all read as a miss,
        so the point simply re-runs.
        """
        path = self.path_for(spec.fingerprint())
        try:
            text = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            entry = json.loads(text)
            if entry["format"] != STORE_FORMAT:
                raise ValueError(f"unknown store format {entry['format']!r}")
            if entry["spec"] != spec.to_jsonable():
                raise ValueError("stored spec does not match fingerprint")
            point = LoadPoint.from_jsonable(entry["point"])
        except (ValueError, KeyError, TypeError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return point

    def get_many(self, specs: list[RunSpec]) -> list[LoadPoint | None]:
        """:meth:`get` for each spec, in order (same misses and stats).

        The batch read seam: the remote store answers a whole grid's
        readback in one round trip where per-point gets cost one each.
        """
        return [self.get(spec) for spec in specs]

    def put(self, spec: RunSpec, point: LoadPoint, wall_time: float | None = None) -> Path:
        """Persist one completed point atomically (tmp file + rename)."""
        fingerprint = spec.fingerprint()
        path = self.path_for(fingerprint)
        entry = {
            "format": STORE_FORMAT,
            "fingerprint": fingerprint,
            "spec": spec.to_jsonable(),
            "point": point.to_jsonable(),
            "wall_time": wall_time,
            "created": time.time(),
        }
        self._write_atomic(path, entry)
        self.stats.writes += 1
        return path

    # ------------------------------------------------------------------
    # Sidecars: auxiliary results keyed by the same fingerprint
    # ------------------------------------------------------------------
    def sidecar_path(self, kind: str, fingerprint: str) -> Path:
        """``<root>/<kind>/<fp[:2]>/<fp>.json`` — the main layout with
        the object class in place of ``objects``."""
        if not kind or kind == "objects" or "/" in kind:
            raise ValueError(f"invalid sidecar kind {kind!r}")
        return self.root / kind / fingerprint[:2] / f"{fingerprint}.json"

    def get_sidecar(self, kind: str, spec: RunSpec) -> dict | None:
        """Cached sidecar payload for ``spec``, or None on any miss.

        Same corruption tolerance as :meth:`get`: unreadable, foreign,
        or spec-mismatched sidecars read as misses and get overwritten
        by the next :meth:`put_sidecar`.
        """
        path = self.sidecar_path(kind, spec.fingerprint())
        try:
            text = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            entry = json.loads(text)
            if entry["format"] != STORE_FORMAT:
                raise ValueError(f"unknown store format {entry['format']!r}")
            if entry["spec"] != spec.to_jsonable():
                raise ValueError("stored spec does not match fingerprint")
            payload = entry["payload"]
        except (ValueError, KeyError, TypeError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def put_sidecar(self, kind: str, spec: RunSpec, payload: dict) -> Path:
        """Persist one sidecar payload atomically under ``kind``."""
        fingerprint = spec.fingerprint()
        path = self.sidecar_path(kind, fingerprint)
        entry = {
            "format": STORE_FORMAT,
            "fingerprint": fingerprint,
            "spec": spec.to_jsonable(),
            "payload": payload,
            "created": time.time(),
        }
        self._write_atomic(path, entry)
        self.stats.writes += 1
        return path

    # ------------------------------------------------------------------
    @staticmethod
    def _write_atomic(path: Path, entry: dict) -> None:
        write_json_atomic(path, entry)

    # ------------------------------------------------------------------
    # Maintenance: verify / gc / stats (the ``repro store`` CLI)
    # ------------------------------------------------------------------
    #: Store subdirectories that are NOT fingerprint-keyed JSON entry
    #: kinds: leases are the fabric's live claims, workers its per-worker
    #: stats files, telemetry holds JSONL series, snapshots full
    #: simulator checkpoints (their own codec/format).
    _NON_ENTRY_KINDS = ("leases", "workers", "telemetry", "snapshots")

    def entry_kinds(self) -> list[str]:
        """Every fingerprint-keyed JSON entry kind present on disk
        (``objects`` plus sidecar kinds like ``workloads``/``failures``)."""
        if not self.root.is_dir():
            return []
        return sorted(
            child.name
            for child in self.root.iterdir()
            if child.is_dir() and child.name not in self._NON_ENTRY_KINDS
        )

    def verify(self) -> list[tuple[Path, str]]:
        """Re-hash every cached entry; the corrupt ones, with reasons.

        For each entry (``objects`` and every sidecar kind) the embedded
        spec is re-fingerprinted and compared against the filename — the
        same guard :meth:`get` applies lazily, applied eagerly to the
        whole store.  ``objects`` entries additionally prove their
        LoadPoint still parses.  A clean store returns ``[]``.
        """
        bad: list[tuple[Path, str]] = []
        for kind in self.entry_kinds():
            for path in sorted((self.root / kind).glob("*/*.json")):
                reason = self._verify_entry(kind, path)
                if reason is not None:
                    bad.append((path, reason))
        return bad

    def _verify_entry(self, kind: str, path: Path) -> str | None:
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return "unreadable or invalid JSON"
        try:
            if entry["format"] != STORE_FORMAT:
                return f"unknown store format {entry['format']!r}"
            spec = RunSpec.from_jsonable(entry["spec"])
            if spec.fingerprint() != path.stem:
                return "embedded spec does not hash to the filename"
            if kind == "objects":
                LoadPoint.from_jsonable(entry["point"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed entry: {exc}"
        return None

    def gc(self, dry_run: bool = False) -> "GCReport":
        """Delete orphaned snapshot checkpoints and telemetry sidecars.

        A *checkpoint* (``snapshots/<fp[:2]>/<fp>.json``) is mid-run
        state for a point still being executed; once its point has a
        result — or a recorded ``failures`` sidecar (retry budget
        exhausted) — the checkpoint is dead weight and is removed.
        Checkpoints for points with neither are potentially in flight
        and are kept (reported as such).

        A *telemetry series* (``telemetry/<fp[:2]>/<fp>.jsonl``) rides
        alongside its point's result; one whose result is absent is an
        orphan (the point was re-keyed, failed, or its entry was
        deleted) and is removed.
        """
        report = GCReport(dry_run=dry_run)
        fail_dir = self.root / "failures"
        for path in sorted((self.root / "snapshots").glob("*/*.json")):
            fp = path.stem
            resolved = (
                self.path_for(fp).exists()
                or (fail_dir / fp[:2] / f"{fp}.json").exists()
            )
            if resolved:
                report.remove_checkpoint(path, dry_run)
            else:
                report.kept_checkpoints += 1
        for path in sorted((self.root / "telemetry").glob("*/*.jsonl")):
            if not self.path_for(path.stem).exists():
                report.remove_telemetry(path, dry_run)
        return report

    def stats_by_kind(self) -> dict[str, tuple[int, int]]:
        """``{kind: (entry count, total bytes)}`` for every store dir."""
        stats: dict[str, tuple[int, int]] = {}
        if not self.root.is_dir():
            return stats
        for child in sorted(self.root.iterdir()):
            if not child.is_dir():
                continue
            files = [p for p in child.rglob("*") if p.is_file()]
            stats[child.name] = (len(files), sum(p.stat().st_size for p in files))
        return stats


@dataclass
class GCReport:
    """What :meth:`ResultStore.gc` removed (or would, with ``dry_run``)."""

    dry_run: bool = False
    removed_checkpoints: list[Path] = field(default_factory=list)
    removed_telemetry: list[Path] = field(default_factory=list)
    kept_checkpoints: int = 0  # potentially in-flight: result+failure absent
    bytes_reclaimed: int = 0

    def _remove(self, path: Path, dry_run: bool) -> None:
        try:
            self.bytes_reclaimed += path.stat().st_size
            if not dry_run:
                path.unlink()
        except OSError:
            pass

    def remove_checkpoint(self, path: Path, dry_run: bool) -> None:
        self.removed_checkpoints.append(path)
        self._remove(path, dry_run)

    def remove_telemetry(self, path: Path, dry_run: bool) -> None:
        self.removed_telemetry.append(path)
        self._remove(path, dry_run)
