"""The paper's contribution: OFAR, on-the-fly adaptive routing.

- :class:`~repro.core.ofar.OFARRouting` — in-transit adaptive
  misrouting driven by local credit/occupancy state (§IV-A/B), with the
  escape-ring fallback (§IV-C).  ``allow_local_misroute=False`` gives
  the *OFAR-L* ablation used throughout the evaluation.
- Threshold policies live in
  :class:`~repro.engine.config.ThresholdConfig` (§IV-B) and the escape
  ring topology in :class:`~repro.topology.hamiltonian.HamiltonianRing`.
"""

from repro._exports import lazy_exports

_EXPORTS = {"ofar": ("OFARRouting",)}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
