"""Scale presets, the shared run-flag set, and the library studies.

Every figure, ablation and steady-state extension of the paper's
evaluation is a campaign file under ``campaigns/`` (``repro campaign run
campaigns/fig5.yaml --scale medium``); nothing here defines a grid.
What lives here is what campaigns and the CLI share —
:mod:`~repro.experiments.common`: the :class:`Scale` presets and the
run-execution flags — and the white-box studies that hand-build their
simulator or workload instead of running a RunSpec grid:
:mod:`~repro.experiments.mapping_study`, :mod:`~repro.experiments.starvation`,
:mod:`~repro.experiments.interference` and the telemetry timeline of
:mod:`~repro.experiments.congestion`, each runnable as ``python -m
repro.experiments.<study> --scale NAME``.

Scales: ``tiny`` (h=2, seconds, used by the test suite), ``small``
(h=2), ``medium`` (h=3, the default for benchmarks), ``large`` (h=4),
``paper`` (h=6 with the exact §V parameters — slow in pure Python;
provided for offline full-scale runs).
"""

from repro.experiments.common import Scale, TINY, SMALL, MEDIUM, PAPER, get_scale

__all__ = ["Scale", "TINY", "SMALL", "MEDIUM", "PAPER", "get_scale"]
