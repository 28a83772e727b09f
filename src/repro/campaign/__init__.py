"""Declarative experiment campaigns.

One YAML/JSON file names a whole study: a base config inherited via
recursive ``inherits:`` deep-merge, a cartesian ``combination:`` grid
over routing/pattern/load/config axes (plus named ``variant``
bundles of config overrides), ``seeds:``/``replications:``
N-seed replication (reported as mean ± 95% CI half-width), and
``post:`` hooks naming figure/table emitters.  The file compiles to a
deterministic :class:`~repro.engine.runspec.RunSpec` grid executed by
the existing orchestrator + result store, so caching, resume,
telemetry and checkpointing work on campaigns unchanged.  The
:class:`~repro.campaign.scale.Scale` presets a file's ``scale:`` key
names live in :mod:`repro.campaign.scale`.

See ``campaigns/`` for the checked-in paper-reproduction campaigns and
``docs/experiments-guide.md`` ("Campaigns") for the format reference.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "aggregate": ("mean_ci", "t_critical"),
    "runner": (
        "EMITTERS", "CampaignRun", "emit", "run_campaign", "run_campaign_fabric",
        "validate_post",
    ),
    "scale": ("Scale", "TINY", "SMALL", "MEDIUM", "PAPER", "get_scale"),
    "spec": (
        "CampaignError", "CampaignPoint", "CampaignSpec", "deep_merge",
        "load_campaign", "load_mapping",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
