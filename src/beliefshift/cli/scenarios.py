"""Scenario files: JSON ingestion, validation, and round-trip serialization.

A scenario bundles everything one analysis needs: a kind tag, the input
beliefs, the studies or sweep configuration, a seed, and an optional grid
window. Validation errors always name the offending path inside the file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from ..distributions import (DEFAULT_GRID_NODES, MIN_GRID_NODES, Distribution1D, _dist_at,
                             at_path, dist_to_literal, json_int, json_list, json_number,
                             json_object)
from ..errors import ScenarioError
from ..prospective import DEFAULT_REPLICATES, MIN_REPLICATES
from ..updating import Study

__all__ = [
    "GridSpec",
    "PosteriorSpec",
    "ProspectiveConfig",
    "Scenario",
    "SCENARIO_KINDS",
    "parse_scenario",
    "serialize_scenario",
    "load_scenario",
]

SCENARIO_KINDS = ("retrospective", "prospective", "compare")


@dataclass(frozen=True)
class GridSpec:
    """Explicit discretization window for grid-based updates."""

    lo: float
    hi: float
    nodes: int = DEFAULT_GRID_NODES

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "nodes", int(self.nodes))
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError("grid: lo and hi must be finite, with lo strictly below hi")
        if self.nodes < MIN_GRID_NODES:
            raise ValueError(f"grid.nodes: must be at least {MIN_GRID_NODES}")


@dataclass(frozen=True)
class PosteriorSpec:
    """One compare-table row: a posterior given directly or via a study."""

    label: str
    dist: Optional[Distribution1D] = None
    study: Optional[Study] = None

    def __post_init__(self) -> None:
        if (self.dist is None) == (self.study is None):
            raise ValueError("a posterior needs exactly one of dist or study")


@dataclass(frozen=True)
class ProspectiveConfig:
    """Decision-maker sweep inputs for a prospective scenario; errors name the field's path."""

    consensus: Distribution1D
    pioneer: Distribution1D
    weights: tuple[float, ...]
    ns: tuple[int, ...]
    sigma: float
    replicates: int = DEFAULT_REPLICATES

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "replicates", int(self.replicates))
        for name, low, high, rule in (("weights", 0.0, 1.0, "lie in [0, 1]"),
                                      ("ns", 1, float("inf"), "be at least 1")):
            if not getattr(self, name):
                raise ValueError(f"prospective_config.{name}: must be nonempty")
            for j, value in enumerate(getattr(self, name)):
                if not low <= value <= high:
                    raise ValueError(f"prospective_config.{name}[{j}]: must {rule}")
        if not 0.0 < self.sigma < float("inf"):
            raise ValueError("prospective_config.sigma: must be positive and finite")
        if self.replicates < MIN_REPLICATES:
            raise ValueError(f"prospective_config.replicates: must be at least {MIN_REPLICATES}")


@dataclass(frozen=True)
class Scenario:
    """A validated analysis request; kind-appropriate fields are present."""

    kind: str
    seed: int = 0
    prior: Optional[Distribution1D] = None
    studies: tuple[Study, ...] = ()
    posteriors: tuple[PosteriorSpec, ...] = ()
    prospective_config: Optional[ProspectiveConfig] = None
    grid: Optional[GridSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "studies", tuple(self.studies))
        object.__setattr__(self, "posteriors", tuple(self.posteriors))
        object.__setattr__(self, "seed", int(self.seed))
        if self.kind not in SCENARIO_KINDS:
            raise ScenarioError(f"kind: must be one of {', '.join(SCENARIO_KINDS)}")
        if self.kind == "retrospective":
            if self.prior is None:
                raise ScenarioError("prior: required for a retrospective scenario")
            if not self.studies:
                raise ScenarioError("studies: a retrospective scenario needs at least one study")
        elif self.kind == "prospective":
            if self.prospective_config is None:
                raise ScenarioError("prospective_config: required for a prospective scenario")
        else:
            if self.prior is None:
                raise ScenarioError("prior: required for a compare scenario")
            if not self.posteriors:
                raise ScenarioError("posteriors: a compare scenario needs at least one entry")


def _parse_study(obj, path: str) -> Study:
    entry = json_object(obj, path, ("estimate", "std_error"), ("estimate", "std_error"))
    return at_path(path, Study, json_number(entry["estimate"], f"{path}.estimate"),
                   json_number(entry["std_error"], f"{path}.std_error"))


def _parse_posterior(obj, index: int) -> PosteriorSpec:
    path = f"posteriors[{index}]"
    entry = json_object(obj, path, ("label", "dist", "study"))
    label = entry.get("label", f"posterior_{index + 1}")
    if not isinstance(label, str):
        raise ValueError(f"{path}.label: expected a string")
    dist = _dist_at(entry["dist"], f"{path}.dist") if "dist" in entry else None
    study = _parse_study(entry["study"], f"{path}.study") if "study" in entry else None
    return at_path(path, PosteriorSpec, label, dist, study)


def _parse_prospective_config(obj, path: str) -> ProspectiveConfig:
    keys = ("consensus", "pioneer", "weights", "ns", "sigma")
    cfg = json_object(obj, path, (*keys, "replicates"), keys)
    return ProspectiveConfig(
        _dist_at(cfg["consensus"], f"{path}.consensus"),
        _dist_at(cfg["pioneer"], f"{path}.pioneer"),
        json_list(cfg["weights"], f"{path}.weights", json_number),
        json_list(cfg["ns"], f"{path}.ns", json_int),
        json_number(cfg["sigma"], f"{path}.sigma"),
        json_int(cfg.get("replicates", DEFAULT_REPLICATES), f"{path}.replicates"),
    )


def _parse_grid(obj, path: str) -> GridSpec:
    grid = json_object(obj, path, ("lo", "hi", "nodes"), ("lo", "hi"))
    return GridSpec(json_number(grid["lo"], f"{path}.lo"), json_number(grid["hi"], f"{path}.hi"),
                    json_int(grid.get("nodes", DEFAULT_GRID_NODES), f"{path}.nodes"))


def parse_scenario(obj) -> Scenario:
    """Validate a decoded JSON object into a Scenario.

    Raises ScenarioError whose message starts with the offending path.
    """
    try:
        root = json_object(obj, "scenario", ("kind", "seed", "prior", "studies", "posteriors",
                                             "prospective_config", "grid"))
        sections = {key: parse(root[key], key) for key, parse in (
            ("prior", _dist_at), ("prospective_config", _parse_prospective_config),
            ("grid", _parse_grid)) if key in root}
        posteriors = json_list(root.get("posteriors", []), "posteriors")
        return Scenario(
            kind=root.get("kind"),
            seed=json_int(root.get("seed", 0), "seed"),
            studies=json_list(root.get("studies", []), "studies", _parse_study),
            posteriors=[_parse_posterior(p, i) for i, p in enumerate(posteriors)],
            **sections,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def serialize_scenario(scenario: Scenario) -> dict:
    """JSON-ready dict; parse_scenario(serialize_scenario(s)) == s."""
    out: dict = {"kind": scenario.kind, "seed": scenario.seed}
    if scenario.prior is not None:
        out["prior"] = dist_to_literal(scenario.prior)
    if scenario.studies:
        out["studies"] = [
            {"estimate": s.estimate, "std_error": s.std_error} for s in scenario.studies
        ]
    if scenario.posteriors:
        entries = []
        for spec in scenario.posteriors:
            entry: dict = {"label": spec.label}
            if spec.dist is not None:
                entry["dist"] = dist_to_literal(spec.dist)
            else:
                entry["study"] = {"estimate": spec.study.estimate,
                                  "std_error": spec.study.std_error}
            entries.append(entry)
        out["posteriors"] = entries
    if scenario.prospective_config is not None:
        cfg = scenario.prospective_config
        out["prospective_config"] = {
            "consensus": dist_to_literal(cfg.consensus),
            "pioneer": dist_to_literal(cfg.pioneer),
            "weights": list(cfg.weights),
            "ns": list(cfg.ns),
            "sigma": cfg.sigma,
            "replicates": cfg.replicates,
        }
    if scenario.grid is not None:
        out["grid"] = {"lo": scenario.grid.lo, "hi": scenario.grid.hi,
                       "nodes": scenario.grid.nodes}
    return out


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path}: invalid JSON ({exc})") from exc
    return parse_scenario(obj)
