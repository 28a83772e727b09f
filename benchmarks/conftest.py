"""Shared fixtures for the figure-regeneration benchmarks.

Every benchmark regenerates one figure of the paper from its campaign
file (``campaigns/<name>.yaml``) at the ``medium`` scale (h=3, 342
nodes) unless noted, prints the tables it emitted (run pytest with
``-s`` to see them; the rows are also attached to the benchmark
``extra_info``), and asserts the paper's qualitative claims — who wins,
by roughly what factor, where the crossovers fall.  Absolute numbers
differ from the paper (different substrate scale; see EXPERIMENTS.md).
"""

from pathlib import Path

import pytest

from repro.analysis.results import Table
from repro.campaign import CampaignSpec, deep_merge, emit, load_mapping, run_campaign
from repro.experiments.common import MEDIUM, SMALL, TINY

CAMPAIGNS = Path(__file__).resolve().parent.parent / "campaigns"


@pytest.fixture(scope="session")
def medium():
    return MEDIUM


@pytest.fixture(scope="session")
def small():
    return SMALL


@pytest.fixture(scope="session")
def tiny():
    return TINY


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive figure exactly once under timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def figure(name: str, scale: str, **combination_overrides) -> dict[str, Table]:
    """Run ``campaigns/<name>.yaml`` at ``scale`` and return its emitted
    tables by emitter name.

    ``combination_overrides`` replace whole axes of the file's grid (a
    benchmark's shorter load list); everything else — routings,
    variants, windows, emitters — is the checked-in figure.  The base
    seed only: the claims are asserted on the single-seed curves.
    """
    mapping = deep_merge(
        load_mapping(CAMPAIGNS / f"{name}.yaml"), {"combination": combination_overrides}
    )
    mapping.pop("seeds", None)
    mapping["replications"] = 1
    tables = dict(emit(run_campaign(CampaignSpec.from_mapping(mapping, scale=scale))))
    print()
    for table in tables.values():
        print(table.to_text())
    return tables
