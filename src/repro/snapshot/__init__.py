"""Deterministic checkpoint/restore for the simulation engine.

The codec (:mod:`repro.snapshot.codec`) serializes the *complete*
mutable simulator state to versioned, content-hashed JSON; restoring it
into a freshly built simulator resumes bit-identically — same grants,
same RNG draws, same LoadPoint bytes.  On top of it:

- :class:`Snapshot` — capture / save / load / :meth:`Snapshot.fork`
  (warm up once, branch N measurement variants);
- :mod:`repro.snapshot.checkpoint` — mid-run orchestrator checkpoints
  in the result store, so a killed worker resumes instead of replaying
  from cycle 0;
- :mod:`repro.snapshot.debug` — state digests and lockstep bisection of
  determinism divergences to the first differing cycle.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "codec": (
        "SNAPSHOT_FORMAT", "SnapshotError", "apply_state", "digest_of",
        "encode_state", "state_digest",
    ),
    "debug": ("diff_states", "first_divergence"),
    "snapshot": ("Snapshot",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
