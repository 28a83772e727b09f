"""Declarative campaign specifications.

A *campaign* names a whole study — a figure grid, an ablation, a
variant sweep — in one YAML/JSON file; it is the only definition a
figure has.  The file format converges on the shape both
related simulators settled on (savannah's ``inherits:`` deep-merge,
the 6tisch simulator's ``combination``/``numRuns``/``post``):

.. code-block:: yaml

    inherits: base          # recursive deep-merge from a sibling file
    name: fig3
    scale: medium           # Scale preset: h + warm-up/measure windows
    config:                 # SimulationConfig overrides (deep-merged)
      seed: 1
    combination:            # cartesian grid, declared order preserved
      routing: [min, pb, ofar, ofar-l]
      pattern: [UN]
      load: {saturating: 0.56, points: 7}   # = Scale.loads(...)
    replications: 3         # seeds base, base+1, base+2 (or seeds: [..])
    backend: array          # engine backend (bit-identical; default object)
    max_windows: 12         # windowed convergence instead of one window
    post: [series_table, summary, aggregate]  # figure/table emitters

The load shorthand also accepts ``max_windows`` inline —
``load: {saturating: 0.56, points: 7, max_windows: 12}`` — enabling
the windowed-convergence protocol for exactly the points it generates.
``pattern: {adv_offsets: 3}`` is the h-relative offset sweep of Fig. 2
(``ADV+1 … ADV+min(3h, 2h²)``), so one file serves every scale.

Axis values are scalars.  Configurations that differ in *several*
fields at once are a ``variant`` axis of named bundles — the name is
the coordinate, the rest are SimulationConfig overrides (``routing``
and ``thresholds`` included):

.. code-block:: yaml

    combination:
      variant:
        - {name: reduced, escape: embedded, local_vcs: 2, global_vcs: 1}
        - {name: full, escape: embedded}

:func:`load_campaign` resolves inheritance (missing bases and cycles
are hard errors) and returns a frozen :class:`CampaignSpec`;
:meth:`CampaignSpec.expand` compiles it to a deterministic list of
:class:`CampaignPoint` — declared axis order outermost-first, seeds
innermost — whose steady points are ordinary
:class:`~repro.engine.runspec.RunSpec` values.  Everything downstream
(orchestrator workers, result-store caching, resume, telemetry,
``--snapshot-every``) therefore works on campaign points unchanged,
and a campaign point is *byte-identical* to the same RunSpec built by
hand: same builder, same salts, same fingerprint.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.spec import ScenarioSpec
from repro.engine.backend import default_backend
from repro.engine.config import SimulationConfig, ThresholdConfig
from repro.engine.runspec import RunSpec
from repro.experiments.common import Scale, get_scale

KINDS = ("steady", "transient", "burst", "scenario")

#: Kinds whose points are time series / completion times, not
#: LoadPoints: they run in-process and have no store representation.
IN_PROCESS_KINDS = ("transient", "burst")

#: Axes with run-level (not SimulationConfig) meaning.
RUN_AXES = ("routing", "pattern", "load", "transition", "variant")

_KNOWN_KEYS = {
    "name", "description", "kind", "scale", "config", "combination",
    "seeds", "replications", "windows", "backend", "max_windows", "post",
    "scenario",
}
_WINDOW_KEYS = {"warmup", "measure", "transient_warmup", "transient_post"}

_CONFIG_FIELDS = {f.name for f in SimulationConfig.__dataclass_fields__.values()}


class CampaignError(ValueError):
    """A campaign file is malformed, unresolvable, or inconsistent."""


# ----------------------------------------------------------------------
# Loading: YAML/JSON + recursive ``inherits:`` deep-merge
# ----------------------------------------------------------------------

def deep_merge(base: dict, override: dict) -> dict:
    """Recursive dict merge: ``override`` wins, nested dicts merge.

    Non-dict values (scalars *and* lists) replace wholesale — an
    experiment file that overrides ``combination.routing`` supplies the
    complete new list, it never splices into the base's.
    """
    out = dict(base)
    for key, value in override.items():
        if isinstance(out.get(key), dict) and isinstance(value, dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _parse_file(path: Path) -> dict:
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:  # pragma: no cover - PyYAML present in dev envs
            raise CampaignError(
                f"{path}: reading YAML campaigns requires PyYAML; "
                "install it or use the JSON form"
            ) from None
        data = yaml.safe_load(text)
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise CampaignError(f"{path}: a campaign file must be a mapping")
    return data


def _resolve_inherits(parent: Path, name: str) -> Path:
    """Resolve an ``inherits:`` value relative to the inheriting file.

    A bare name (no suffix) tries ``<name>.yaml`` / ``.yml`` / ``.json``
    in the same directory, so campaigns can say ``inherits: base``.
    """
    candidate = parent / name
    if candidate.suffix:
        return candidate
    for suffix in (".yaml", ".yml", ".json"):
        trial = candidate.with_suffix(suffix)
        if trial.exists():
            return trial
    return candidate.with_suffix(".yaml")  # for the error message


def load_mapping(path: str | Path, _visiting: tuple = ()) -> dict:
    """The fully-merged raw mapping for a campaign file.

    Follows ``inherits:`` recursively (deepest base first), deep-merging
    each level's overrides on top.  A missing base file and an
    inheritance cycle are both :class:`CampaignError`.
    """
    path = Path(path).resolve()
    if path in _visiting:
        chain = " -> ".join(p.name for p in (*_visiting, path))
        raise CampaignError(f"campaign inheritance cycle: {chain}")
    if not path.is_file():
        if _visiting:
            raise CampaignError(
                f"{_visiting[-1].name}: inherited base campaign not found: {path}"
            )
        raise CampaignError(f"campaign file not found: {path}")
    data = _parse_file(path)
    inherits = data.pop("inherits", None)
    if inherits is None:
        return data
    if not isinstance(inherits, str):
        raise CampaignError(f"{path.name}: 'inherits' must be a file name")
    base_path = _resolve_inherits(path.parent, inherits)
    base = load_mapping(base_path, (*_visiting, path))
    return deep_merge(base, data)


def load_campaign(path: str | Path, scale: str | None = None) -> "CampaignSpec":
    """Load + inherit + validate a campaign file.

    ``scale`` overrides the file's scale preset (the ``--scale`` CLI
    flag), so one checked-in campaign serves every network size.
    """
    return CampaignSpec.from_mapping(load_mapping(path), scale=scale)


# ----------------------------------------------------------------------
# The compiled grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TransientPoint:
    """One pattern-switch measurement (Fig. 6 protocol) of a campaign."""

    config: SimulationConfig
    before: str
    after: str
    load: float
    warmup: int
    post: int
    bucket: int


@dataclass(frozen=True)
class BurstPoint:
    """One burst-consumption measurement (Fig. 7 protocol) of a campaign."""

    config: SimulationConfig
    pattern: str
    packets_per_node: int


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded grid point: its coordinates and its executable form.

    ``coords`` lists the combination axes in declared order (pattern
    strings resolved, e.g. ``ADV+h`` -> ``ADV+3``; a variant by its
    name) with the replication seed appended last, so expansion order
    and point identity are both readable straight off it.
    """

    coords: tuple[tuple[str, object], ...]
    replication: int
    spec: RunSpec | None = None  # steady and scenario campaigns
    transient: TransientPoint | None = None  # transient campaigns
    burst: BurstPoint | None = None  # burst campaigns

    @property
    def config(self) -> SimulationConfig:
        return (self.spec or self.transient or self.burst).config

    def label(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.coords)


def _resolve_pattern(spec: str, h: int) -> str:
    """``ADV+h`` -> ``ADV+<h>`` (the campaign-file form of Fig. 5/6's
    worst-case offset, which depends on the point's own network size).

    A resolved ``ADV+N`` must name another group of the point's own
    network (``N`` in ``[1, 2h²]``); anything else would only fail when
    the point's traffic pattern is built, mid-run.
    """
    if not isinstance(spec, str):
        return spec
    if spec.endswith("+h"):
        return f"{spec[:-1]}{h}"
    if spec.upper().startswith("ADV+"):
        offset, groups = spec[4:], 2 * h * h + 1
        if not offset.isdigit() or not 1 <= int(offset) < groups:
            raise ValueError(
                f"{spec} is not a pattern of an h={h} network "
                f"(ADV offsets run from 1 to {groups - 1})"
            )
    return spec


def _check_variants(combination: dict) -> list[dict]:
    """Validate the ``variant`` axis: uniquely named bundles of config
    overrides, none of which the grid also varies as an axis."""
    variants = combination.get("variant", [])
    for v in variants:
        if not isinstance(v, dict) or not isinstance(v.get("name"), str):
            raise CampaignError(
                "each 'variant' must be {name: <str>, <config overrides>}, "
                f"got {v!r}"
            )
        fields = set(v) - {"name"}
        bad = (fields - _CONFIG_FIELDS) | (fields & {"seed"})
        if bad:
            raise CampaignError(
                f"variant {v['name']!r}: unknown config overrides {sorted(bad)}"
            )
        clash = fields & set(combination)
        if clash:
            raise CampaignError(
                f"variant {v['name']!r} sets {sorted(clash)}, which the grid "
                "already varies as an axis"
            )
    names = [v["name"] for v in variants]
    if len(set(names)) != len(names):
        raise CampaignError(f"duplicate variant names: {names}")
    return variants


@dataclass(frozen=True)
class CampaignSpec:
    """A validated, frozen campaign: grid axes, seeds, windows, hooks."""

    name: str
    scale: Scale
    kind: str = "steady"
    description: str = ""
    config: dict = field(default_factory=dict)
    combination: dict = field(default_factory=dict)
    seeds: tuple[int, ...] = (1,)
    warmup: int = 2_000
    measure: int = 2_000
    transient_warmup: int = 2_000
    transient_post: int = 2_500
    backend: str | None = None  # None = the process default backend
    max_windows: int | None = None  # windowed convergence (steady only)
    scenario: ScenarioSpec | None = None  # cluster scenario (scenario kind)
    post: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, data: dict, scale: str | None = None) -> "CampaignSpec":
        unknown = set(data) - _KNOWN_KEYS
        if unknown:
            raise CampaignError(f"unknown campaign keys: {sorted(unknown)}")
        name = data.get("name")
        if not name or not isinstance(name, str):
            raise CampaignError("a campaign needs a 'name'")
        kind = data.get("kind", "steady")
        if kind not in KINDS:
            raise CampaignError(f"unknown campaign kind {kind!r}; choose from {KINDS}")
        try:
            scale_obj = get_scale(scale or data.get("scale", "medium"))
        except ValueError as exc:
            raise CampaignError(str(exc)) from None

        config = data.get("config", {})
        if not isinstance(config, dict):
            raise CampaignError("'config' must be a mapping of SimulationConfig overrides")
        bad = set(config) - _CONFIG_FIELDS
        if bad:
            raise CampaignError(f"unknown config overrides: {sorted(bad)}")

        combination = data.get("combination")
        if not isinstance(combination, dict) or not combination:
            raise CampaignError("a campaign needs a non-empty 'combination' grid")
        combination = {
            key: value if isinstance(value, list) else [value]
            for key, value in combination.items()
        }
        if "seed" in combination:
            raise CampaignError(
                "'seed' cannot be a combination axis; use 'seeds:' or 'replications:'"
            )
        variants = _check_variants(combination)
        required = {
            "transient": ("routing", "transition"),
            "burst": ("routing", "pattern"),
            # A scenario campaign's traffic comes from its ScenarioSpec;
            # the grid varies routing (and config fields), never the
            # workload itself — identical churn under every routing.
            "scenario": ("routing",),
            "steady": ("routing", "pattern", "load"),
        }[kind]
        for axis in required:
            if axis == "routing" and variants and all("routing" in v for v in variants):
                continue
            if axis not in combination:
                raise CampaignError(f"{kind} campaigns need a {axis!r} axis in 'combination'")
        for axis in combination:
            if axis in RUN_AXES:
                continue
            if axis not in _CONFIG_FIELDS:
                raise CampaignError(
                    f"unknown combination axis {axis!r}: not one of {RUN_AXES} "
                    "and not a SimulationConfig field"
                )
        if kind != "transient" and "transition" in combination:
            raise CampaignError("'transition' is a transient-campaign axis")
        if kind == "burst" and "load" in combination:
            raise CampaignError(
                "'load' is not a burst-campaign axis: every node injects "
                "the scale's fixed backlog as fast as it can"
            )
        if kind == "scenario":
            for axis in ("pattern", "load"):
                if axis in combination:
                    raise CampaignError(
                        f"{axis!r} is not a scenario-campaign axis: the "
                        "traffic comes from the 'scenario' job mix"
                    )
        if kind == "transient":
            for t in combination["transition"]:
                if not isinstance(t, dict) or set(t) != {"before", "after", "load"}:
                    raise CampaignError(
                        "each 'transition' must be {before, after, load}, got "
                        f"{t!r}"
                    )
        patterns = combination.get("pattern", [])
        if len(patterns) == 1 and isinstance(patterns[0], dict):
            # The h-relative offset sweep of Fig. 2: every offset up to
            # ``adv_offsets`` multiples of h (capped at the group count).
            span = patterns[0].get("adv_offsets")
            if set(patterns[0]) != {"adv_offsets"} or not isinstance(span, int) \
                    or isinstance(span, bool) or span < 1:
                raise CampaignError(
                    "pattern grid spec must be {adv_offsets: <positive int>}, "
                    f"got {patterns[0]!r}"
                )
            h = config.get("h", scale_obj.h)
            combination["pattern"] = [
                f"ADV+{n}" for n in range(1, min(span * h, 2 * h * h) + 1)
            ]
        max_windows = data.get("max_windows")
        if kind == "steady" and "load" in combination:
            loads = combination["load"]
            # The dict form is Scale.loads(saturating, points): an even
            # sweep reaching past saturation.  An inline max_windows
            # turns on windowed convergence for the points this
            # shorthand generates.
            if len(loads) == 1 and isinstance(loads[0], dict):
                kw = dict(loads[0])
                if not set(kw) <= {"saturating", "points", "max_windows"}:
                    raise CampaignError(
                        "load grid spec must be {saturating, points"
                        f"[, max_windows]}}, got {kw!r}"
                    )
                inline = kw.pop("max_windows", None)
                if inline is not None:
                    max_windows = inline
                combination["load"] = scale_obj.loads(**kw)
        if kind == "steady":
            for load in combination["load"]:
                if not isinstance(load, (int, float)) or isinstance(load, bool):
                    raise CampaignError(f"loads must be numbers, got {load!r}")
        for axis, values in combination.items():
            if axis in ("transition", "variant"):
                continue
            for value in values:
                # A mapping/list coordinate cannot key a table row; the
                # emitters would only find out after every point has run.
                if isinstance(value, (dict, list)):
                    raise CampaignError(
                        f"axis {axis!r}: values must be scalars, got {value!r}; "
                        "bundle multi-field configurations as a 'variant' "
                        "axis of {name: ..., <overrides>} entries"
                    )

        seeds = data.get("seeds")
        replications = data.get("replications")
        if seeds is not None and replications is not None:
            raise CampaignError("'seeds' and 'replications' are mutually exclusive")
        base_seed = config.get("seed", 1)
        if seeds is None:
            n = 1 if replications is None else replications
            if not isinstance(n, int) or n < 1:
                raise CampaignError(f"'replications' must be a positive int, got {n!r}")
            seeds = [base_seed + i for i in range(n)]
        if (not isinstance(seeds, list) or not seeds
                or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)):
            raise CampaignError(f"'seeds' must be a non-empty list of ints, got {seeds!r}")
        if len(set(seeds)) != len(seeds):
            raise CampaignError(f"duplicate seeds: {seeds}")

        windows = data.get("windows", {})
        if not isinstance(windows, dict) or not set(windows) <= _WINDOW_KEYS:
            raise CampaignError(f"'windows' keys must be among {sorted(_WINDOW_KEYS)}")

        scenario_data = data.get("scenario")
        scenario = None
        if kind == "scenario":
            if not isinstance(scenario_data, dict):
                raise CampaignError(
                    "scenario campaigns need a 'scenario' mapping "
                    "(ScenarioSpec JSON form)"
                )
            if windows:
                raise CampaignError(
                    "scenario campaigns run the scenario horizon; "
                    "'windows' does not apply"
                )
            try:
                scenario = ScenarioSpec.from_jsonable(scenario_data)
            except (ValueError, TypeError, KeyError) as exc:
                raise CampaignError(f"bad 'scenario' section: {exc}") from None
        elif scenario_data is not None:
            raise CampaignError("'scenario' applies to scenario campaigns only")

        if max_windows is not None:
            if kind != "steady":
                raise CampaignError(
                    "'max_windows' (windowed convergence) applies to steady "
                    "campaigns only"
                )
            if not isinstance(max_windows, int) or isinstance(max_windows, bool) \
                    or max_windows < 1:
                raise CampaignError(
                    f"'max_windows' must be a positive int, got {max_windows!r}"
                )

        backend = data.get("backend")
        if backend is not None:
            from repro.engine.backend import get_backend

            if not isinstance(backend, str):
                raise CampaignError(f"'backend' must be a backend name, got {backend!r}")
            try:
                get_backend(backend)
            except ValueError as exc:
                raise CampaignError(str(exc)) from None

        post = data.get("post", [])
        if not isinstance(post, list) or not all(isinstance(p, str) for p in post):
            raise CampaignError("'post' must be a list of emitter names")

        return cls(
            name=name,
            scale=scale_obj,
            kind=kind,
            description=data.get("description", ""),
            config=config,
            combination=combination,
            seeds=tuple(seeds),
            warmup=windows.get("warmup", scale_obj.warmup),
            measure=windows.get("measure", scale_obj.measure),
            transient_warmup=windows.get("transient_warmup", scale_obj.transient_warmup),
            transient_post=windows.get("transient_post", scale_obj.transient_post),
            backend=backend,
            max_windows=max_windows,
            scenario=scenario,
            post=tuple(post),
        )

    # ------------------------------------------------------------------
    def _config_for(self, overrides: dict, seed: int) -> SimulationConfig:
        """The point config: campaign ``config:`` < variant bundle < axis
        values < seed."""
        overrides = {**self.config, **overrides}
        overrides.pop("seed", None)
        routing = overrides.pop("routing")
        h = overrides.pop("h", None)
        try:
            if isinstance(overrides.get("thresholds"), dict):
                overrides["thresholds"] = ThresholdConfig(**overrides["thresholds"])
            if h is not None and not self.scale.paper_params:
                return SimulationConfig.small(h=h, routing=routing, seed=seed, **overrides)
            if h is not None:
                overrides["h"] = h
            return self.scale.config(routing, seed=seed, **overrides)
        except (TypeError, ValueError) as exc:
            raise CampaignError(f"campaign {self.name!r}: bad point config: {exc}") from None

    def _executable(self, named: dict, config: SimulationConfig, backend: str):
        """``(resolved coordinates, CampaignPoint field)`` of one grid
        cell; raises ValueError for a point that cannot be built."""
        if self.kind == "transient":
            t = named["transition"]
            before = _resolve_pattern(t["before"], config.h)
            after = _resolve_pattern(t["after"], config.h)
            return {"transition": f"{before}->{after}@{t['load']:g}"}, {
                "transient": TransientPoint(
                    config=config,
                    before=before,
                    after=after,
                    load=t["load"],
                    warmup=self.transient_warmup,
                    post=self.transient_post,
                    bucket=max(10, self.transient_post // 100),
                ),
            }
        if self.kind == "scenario":
            # The ScenarioSpec is shared by every point — same arrivals,
            # same schedule, same faults — while the config (routing,
            # seed, ...) varies, so the grid compares routings under
            # *identical* churn.
            return {}, {"spec": RunSpec.for_scenario(config, self.scenario, backend=backend)}
        pattern = _resolve_pattern(named["pattern"], config.h)
        if self.kind == "burst":
            backlog = self.scale.burst_packets_per_node
            return {"pattern": pattern}, {"burst": BurstPoint(config, pattern, backlog)}
        return {"pattern": pattern}, {
            "spec": RunSpec(
                config, pattern, named["load"], self.warmup, self.measure,
                max_windows=self.max_windows, backend=backend,
            ),
        }

    def expand(self) -> list[CampaignPoint]:
        """The deterministic point grid.

        Ordering contract (pinned by tests, relied on by resume logs):
        axes iterate in their declared ``combination:`` order, first
        axis outermost, with the replication seeds innermost — so all
        replications of one grid coordinate are adjacent.  Coordinates
        that resolve to one already emitted (``ADV+2`` and ``ADV+h`` at
        h=2) are emitted once.  Every point is buildable: a pattern the
        point's own network cannot carry is a :class:`CampaignError`
        here, not a traceback after the points before it have run.
        """
        names = list(self.combination)
        points: list[CampaignPoint] = []
        seen: set[tuple] = set()
        backend = self.backend or default_backend()
        for combo in itertools.product(*self.combination.values()):
            named = dict(zip(names, combo))
            overrides = dict(named.get("variant", {}))
            if overrides:
                named["variant"] = overrides.pop("name")
            overrides.update(
                (k, v) for k, v in named.items() if k == "routing" or k not in RUN_AXES
            )
            for replication, seed in enumerate(self.seeds):
                config = self._config_for(overrides, seed)
                try:
                    resolved, executable = self._executable(named, config, backend)
                except ValueError as exc:
                    label = " ".join(f"{k}={v}" for k, v in named.items())
                    raise CampaignError(
                        f"campaign {self.name!r}, point [{label}]: {exc}"
                    ) from None
                coords = tuple({**named, **resolved}.items()) + (("seed", seed),)
                if coords not in seen:
                    seen.add(coords)
                    points.append(CampaignPoint(coords, replication, **executable))
        return points
