"""Scenario files: JSON ingestion, validation, and round-trip serialization.

A scenario bundles everything one analysis needs: a kind tag, the input
beliefs, the studies or sweep configuration, a seed, and an optional grid
window. Validation errors always name the offending path inside the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from ..distributions import (DEFAULT_GRID_NODES, MIN_GRID_NODES, Distribution1D,
                             dist_from_literal, dist_to_literal)
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
        if not self.lo < self.hi:
            raise ValueError("grid.lo: must be strictly below grid.hi")
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
    """Decision-maker sweep inputs for a prospective scenario; errors name the field."""

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
                raise ValueError(f"{name}: must be nonempty")
            for j, value in enumerate(getattr(self, name)):
                if not low <= value <= high:
                    raise ValueError(f"{name}[{j}]: must {rule}")
        if not 0.0 < self.sigma < float("inf"):
            raise ValueError("sigma: must be positive and finite")
        if self.replicates < MIN_REPLICATES:
            raise ValueError(f"replicates: must be at least {MIN_REPLICATES}")


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


def _require_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected a JSON object")
    return value


def _reject_unknown(obj: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {', '.join(unknown)}")


def _get_number(obj: dict, key: str, path: str) -> float:
    if key not in obj:
        raise ScenarioError(f"{path}.{key}: missing")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}.{key}: expected a number")
    return float(value)


def _get_int(obj: dict, key: str, path: str, default=None) -> int:
    if key not in obj:
        if default is None:
            raise ScenarioError(f"{path}.{key}: missing")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}.{key}: expected an integer")
    return value


def _parse_dist(obj, path: str) -> Distribution1D:
    try:
        return dist_from_literal(obj)
    except (ValueError, TypeError, KeyError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_study(obj, path: str) -> Study:
    entry = _require_object(obj, path)
    _reject_unknown(entry, {"estimate", "std_error"}, path)
    try:
        return Study(_get_number(entry, "estimate", path), _get_number(entry, "std_error", path))
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_posterior(obj, index: int) -> PosteriorSpec:
    path = f"posteriors[{index}]"
    entry = _require_object(obj, path)
    _reject_unknown(entry, {"label", "dist", "study"}, path)
    label = entry.get("label", f"posterior_{index + 1}")
    if not isinstance(label, str):
        raise ScenarioError(f"{path}.label: expected a string")
    dist = _parse_dist(entry["dist"], f"{path}.dist") if "dist" in entry else None
    study = _parse_study(entry["study"], f"{path}.study") if "study" in entry else None
    try:
        return PosteriorSpec(label, dist, study)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_prospective_config(obj) -> ProspectiveConfig:
    path = "prospective_config"
    cfg = _require_object(obj, path)
    _reject_unknown(cfg, {"consensus", "pioneer", "weights", "ns", "sigma", "replicates"}, path)
    for key in ("consensus", "pioneer", "weights", "ns", "sigma"):
        if key not in cfg:
            raise ScenarioError(f"{path}.{key}: missing")
    consensus = _parse_dist(cfg["consensus"], f"{path}.consensus")
    pioneer = _parse_dist(cfg["pioneer"], f"{path}.pioneer")
    # Types here; ProspectiveConfig checks the ranges.
    for key, kind, types in (("weights", "a number", (int, float)), ("ns", "an integer", int)):
        if not isinstance(cfg[key], list):
            raise ScenarioError(f"{path}.{key}: expected a list")
        for j, value in enumerate(cfg[key]):
            if isinstance(value, bool) or not isinstance(value, types):
                raise ScenarioError(f"{path}.{key}[{j}]: expected {kind}")
    sigma = _get_number(cfg, "sigma", path)
    replicates = _get_int(cfg, "replicates", path, default=DEFAULT_REPLICATES)
    try:
        return ProspectiveConfig(consensus, pioneer, tuple(cfg["weights"]), tuple(cfg["ns"]),
                                 sigma, replicates)
    except ValueError as exc:
        raise ScenarioError(f"{path}.{exc}") from exc


def _parse_grid(obj) -> GridSpec:
    path = "grid"
    grid = _require_object(obj, path)
    _reject_unknown(grid, {"lo", "hi", "nodes"}, path)
    lo = _get_number(grid, "lo", path)
    hi = _get_number(grid, "hi", path)
    nodes = _get_int(grid, "nodes", path, default=DEFAULT_GRID_NODES)
    try:
        return GridSpec(lo, hi, nodes)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def parse_scenario(obj) -> Scenario:
    """Validate a decoded JSON object into a Scenario.

    Raises ScenarioError naming the offending path on any problem.
    """
    root = _require_object(obj, "scenario")
    _reject_unknown(
        root,
        {"kind", "seed", "prior", "studies", "posteriors", "prospective_config", "grid"},
        "scenario",
    )
    kind = root.get("kind")
    if not isinstance(kind, str):
        raise ScenarioError("kind: missing or not a string")
    seed = _get_int(root, "seed", "scenario", default=0)

    prior = _parse_dist(root["prior"], "prior") if "prior" in root else None

    studies: list[Study] = []
    if "studies" in root:
        if not isinstance(root["studies"], list):
            raise ScenarioError("studies: expected a list")
        studies = [_parse_study(s, f"studies[{i}]") for i, s in enumerate(root["studies"])]

    posteriors: list[PosteriorSpec] = []
    if "posteriors" in root:
        if not isinstance(root["posteriors"], list):
            raise ScenarioError("posteriors: expected a list")
        posteriors = [_parse_posterior(p, i) for i, p in enumerate(root["posteriors"])]

    config = _parse_prospective_config(root["prospective_config"]) \
        if "prospective_config" in root else None
    grid = _parse_grid(root["grid"]) if "grid" in root else None

    return Scenario(
        kind=kind,
        seed=seed,
        prior=prior,
        studies=tuple(studies),
        posteriors=tuple(posteriors),
        prospective_config=config,
        grid=grid,
    )


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
