"""Run a checked-in figure campaign from a test, with axes overridden."""

from pathlib import Path

from repro.analysis.results import Table
from repro.campaign import (
    CampaignSpec,
    deep_merge,
    emit,
    load_mapping,
    run_campaign,
)

CAMPAIGNS = Path(__file__).resolve().parent.parent / "campaigns"


def figure_campaign(name: str, scale: str = "tiny", **combination) -> CampaignSpec:
    """``campaigns/<name>.yaml`` at ``scale``, single seed, with the
    given ``combination`` axes replaced (everything else as checked in)."""
    mapping = deep_merge(
        load_mapping(CAMPAIGNS / f"{name}.yaml"), {"combination": combination}
    )
    mapping.pop("seeds", None)
    mapping["replications"] = 1
    return CampaignSpec.from_mapping(mapping, scale=scale)


def figure(name: str, scale: str = "tiny", **combination) -> dict[str, Table]:
    """Run :func:`figure_campaign` and return its emitted tables by
    emitter name."""
    return dict(emit(run_campaign(figure_campaign(name, scale, **combination))))
