"""Scenario-file literals written from objects, for round-trip tests and for
the fuzz strategies that build scenario files; the package only reads them."""

import math

from beliefshift import GridDensity, MixtureDist, NormalDist, TruncatedNormalDist


def dist_to_literal(d) -> dict:
    """A distribution's tagged scenario-file literal."""
    if isinstance(d, NormalDist):
        return {"type": "normal", "mu": d.mu, "sigma": d.sigma}
    if isinstance(d, TruncatedNormalDist):
        out = {"type": "trunc_normal", "mu": d.mu, "sigma": d.sigma}
        if not math.isinf(d.lower):
            out["lower"] = d.lower
        if not math.isinf(d.upper):
            out["upper"] = d.upper
        return out
    if isinstance(d, MixtureDist):
        return {
            "type": "mixture",
            "components": [
                {"weight": w, "dist": dist_to_literal(comp)} for w, comp in d.components
            ],
        }
    if isinstance(d, GridDensity):
        return {"type": "grid", "xs": d.xs.tolist(), "ws": d.ws.tolist()}
    raise ValueError(f"cannot serialize {type(d).__name__}")


def serialize_scenario(scenario) -> dict:
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
    if scenario.grid.lo is not None:
        out["grid"] = {"lo": scenario.grid.lo, "hi": scenario.grid.hi,
                       "nodes": scenario.grid.nodes}
    return out
