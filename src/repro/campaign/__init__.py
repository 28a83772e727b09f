"""Declarative experiment campaigns.

One YAML/JSON file names a whole study: a base config inherited via
recursive ``inherits:`` deep-merge, a cartesian ``combination:`` grid
over routing/pattern/load/config axes (plus named ``variant``
bundles of config overrides), ``seeds:``/``replications:``
N-seed replication (reported as mean ± 95% CI half-width), and
``post:`` hooks naming figure/table emitters.  The file compiles to a
deterministic :class:`~repro.engine.runspec.RunSpec` grid executed by
the existing orchestrator + result store, so caching, resume,
telemetry and checkpointing work on campaigns unchanged.

See ``campaigns/`` for the checked-in paper-reproduction campaigns and
``docs/experiments-guide.md`` ("Campaigns") for the format reference.
"""

from repro.campaign.aggregate import mean_ci, t_critical
from repro.campaign.runner import (
    EMITTERS,
    CampaignRun,
    emit,
    run_campaign,
    run_campaign_fabric,
    validate_post,
)
from repro.campaign.spec import (
    BurstPoint,
    CampaignError,
    CampaignPoint,
    CampaignSpec,
    TransientPoint,
    deep_merge,
    load_campaign,
    load_mapping,
)

__all__ = [
    "EMITTERS",
    "BurstPoint",
    "CampaignError",
    "CampaignPoint",
    "CampaignRun",
    "CampaignSpec",
    "TransientPoint",
    "deep_merge",
    "emit",
    "load_campaign",
    "load_mapping",
    "mean_ci",
    "run_campaign",
    "run_campaign_fabric",
    "t_critical",
    "validate_post",
]
