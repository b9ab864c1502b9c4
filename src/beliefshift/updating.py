"""Bayesian updating of belief distributions by study evidence.

A study reports an estimate with a standard error and always induces a
normal likelihood for the effect parameter. Normal priors update in
closed form (precision addition); mixtures of normal or truncated normal
components update componentwise with marginal-likelihood reweighting;
everything else goes through deterministic grid quadrature, which is
reproducible bit for bit and carries no Monte Carlo error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._normal import logsumexp
from .distributions import (
    DEFAULT_GRID_NODES,
    Distribution1D,
    GridDensity,
    MixtureDist,
    NormalDist,
    TruncatedNormalDist,
    _log_gauss_mass,
    norm_logpdf,
    to_grid,
)
from .errors import DegenerateError, TailMassError, UnsupportedPriorError

__all__ = [
    "Study",
    "SamplingModel",
    "PosteriorChain",
    "update_conjugate",
    "update_mixture",
    "update_grid",
    "update",
    "sequential_update",
    "log_predictive_density",
]

# How many prior sds / study std errors the default grid window spans.
DEFAULT_GRID_SPAN = 8.0


@dataclass(frozen=True)
class Study:
    """A reported effect estimate with its standard error."""

    estimate: float
    std_error: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimate", float(self.estimate))
        object.__setattr__(self, "std_error", float(self.std_error))
        if not (math.isfinite(self.estimate) and math.isfinite(self.std_error)):
            raise ValueError("study estimate and std_error must be finite")
        if self.std_error <= 0.0:
            raise ValueError("std_error must be positive")


@dataclass(frozen=True)
class SamplingModel:
    """Per-observation noise sd and sample size of a prospective design."""

    sigma: float
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "n", int(self.n))
        if not math.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ValueError("sigma must be positive and finite")
        if self.n < 1:
            raise ValueError("sample size n must be at least 1")

    def std_error(self) -> float:
        """Standard error of the sample mean, sigma / sqrt(n)."""
        return self.sigma / math.sqrt(self.n)


@dataclass(frozen=True)
class PosteriorChain:
    """A prior and the sequence of (study, posterior) steps built from it."""

    prior: Distribution1D
    steps: tuple[tuple[Study, Distribution1D], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(tuple(step) for step in self.steps))
        if not self.steps:
            raise ValueError("a posterior chain needs at least one step")

    def final(self) -> Distribution1D:
        return self.steps[-1][1]

    def posteriors(self) -> list[Distribution1D]:
        return [post for _, post in self.steps]


def _conjugate_moments(mu, sd, estimate, se):
    """Posterior (mean, sd) of Normal(mu, sd) after a Normal(estimate, se)
    likelihood; array arguments broadcast.

    Precision addition written without squaring raw scales, so sds near
    1e-300 or 1e300 neither underflow nor overflow: the posterior sd is
    min(sd, se) * max(sd, se) / hypot(sd, se) and the data weight is
    (sd / hypot(sd, se))**2.
    """
    h = np.hypot(sd, se)
    post_sd = np.minimum(sd, se) * (np.maximum(sd, se) / h)
    return mu + (sd / h) ** 2 * (estimate - mu), post_sd


def update_conjugate(prior: NormalDist, study: Study) -> NormalDist:
    """Normal-normal conjugate update: precisions add, means precision-average."""
    if not isinstance(prior, NormalDist):
        raise UnsupportedPriorError("conjugate updating requires a NormalDist prior")
    post_mean, post_sd = _conjugate_moments(prior.mu, prior.sigma,
                                            study.estimate, study.std_error)
    return NormalDist(float(post_mean), float(post_sd))


def _update_truncated_core(comp: TruncatedNormalDist, study: Study) -> TruncatedNormalDist:
    core = update_conjugate(NormalDist(comp.mu, comp.sigma), study)
    return TruncatedNormalDist(core.mu, core.sigma, comp.lower, comp.upper)


def _log_marginal(comp, study: Study) -> float:
    """Log marginal likelihood of the study under one mixture component."""
    se = study.std_error
    if isinstance(comp, NormalDist):
        return float(norm_logpdf(study.estimate, comp.mu, math.hypot(comp.sigma, se)))
    if isinstance(comp, TruncatedNormalDist):
        # Normal marginal of the latent core, corrected by the ratio of
        # truncation constants before and after the update.
        post = _update_truncated_core(comp, study)
        return float(norm_logpdf(study.estimate, comp.mu, math.hypot(comp.sigma, se))
                     + post._log_mass - comp._log_mass)
    if isinstance(comp, GridDensity):
        with np.errstate(divide="ignore"):
            logw = np.where(comp.ws > 0.0, np.log(comp.ws), -np.inf)
        return float(logsumexp(logw + norm_logpdf(study.estimate, comp.xs, se)))
    raise UnsupportedPriorError(
        f"no closed-form marginal for {type(comp).__name__} mixture components"
    )


def update_mixture(prior: MixtureDist, study: Study) -> MixtureDist:
    """Componentwise update of a mixture prior.

    Normal and truncated components update conjugately (the truncation
    bounds are preserved) and grid components reweight on their nodes;
    weights are reweighted by the component marginal likelihoods.
    """
    if not isinstance(prior, MixtureDist):
        raise UnsupportedPriorError("update_mixture requires a MixtureDist prior")
    posts = []
    logw = []
    for weight, comp in prior.components:
        if isinstance(comp, TruncatedNormalDist):
            posts.append(_update_truncated_core(comp, study))
        else:
            posts.append(update(comp, study))
        logw.append(math.log(weight) + _log_marginal(comp, study))
    logw = np.array(logw)
    if not np.any(np.isfinite(logw)):
        raise DegenerateError("every mixture component's marginal likelihood underflowed")
    w = np.exp(logw - logsumexp(logw))
    keep = w > 0.0
    w = w[keep] / w[keep].sum()
    kept_posts = [p for p, k in zip(posts, keep) if k]
    return MixtureDist(tuple(zip(w.tolist(), kept_posts)))


def default_grid_window(prior: Distribution1D, study: Study) -> tuple[float, float]:
    """Window spanning prior mean +/- 8 sd unioned with estimate +/- 8 se,
    clipped to the prior's support."""
    mean, sd = prior.moments()
    lo = min(mean - DEFAULT_GRID_SPAN * sd, study.estimate - DEFAULT_GRID_SPAN * study.std_error)
    hi = max(mean + DEFAULT_GRID_SPAN * sd, study.estimate + DEFAULT_GRID_SPAN * study.std_error)
    supp_lo, supp_hi = prior.support()
    return max(lo, supp_lo), min(hi, supp_hi)


def _likelihood_coverage_check(prior: Distribution1D, study: Study,
                               lo: float, hi: float) -> None:
    # Likelihood mass is judged inside the prior's support: mass the prior
    # can never reach must not count against the window.
    supp_lo, supp_hi = prior.support()
    eff_lo, eff_hi = max(lo, supp_lo), min(hi, supp_hi)
    se = study.std_error

    def log_lik_mass(a: float, b: float) -> float:
        za = -math.inf if math.isinf(a) else (a - study.estimate) / se
        zb = math.inf if math.isinf(b) else (b - study.estimate) / se
        return float(_log_gauss_mass(za, zb))

    # In logs, so an estimate far outside a truncated support keeps its
    # (tiny) mass there instead of reading as 0 of 0.
    log_total = log_lik_mass(supp_lo, supp_hi)
    log_inside = log_lik_mass(eff_lo, eff_hi) if eff_lo < eff_hi else -math.inf
    clipped = -math.expm1(log_inside - log_total) if math.isfinite(log_total) else 1.0
    if clipped > 1e-6:
        raise TailMassError(
            f"window [{lo:g}, {hi:g}] clips likelihood mass around the estimate "
            f"{study.estimate:g} (clipped {clipped:.6g} of the mass within the support)"
        )


def update_grid(prior: Distribution1D, study: Study,
                lo: Optional[float] = None, hi: Optional[float] = None,
                nodes: int = DEFAULT_GRID_NODES) -> GridDensity:
    """Grid-quadrature posterior: node masses are prior mass times likelihood.

    With no explicit window a GridDensity prior is reweighted on its own
    nodes; other priors discretize onto the default window first. Raises
    TailMassError when the window clips prior or likelihood mass, and
    DegenerateError when every node's posterior mass underflows.
    """
    if isinstance(prior, GridDensity) and lo is None and hi is None:
        grid = prior
    else:
        if lo is None or hi is None:
            auto_lo, auto_hi = default_grid_window(prior, study)
            lo = auto_lo if lo is None else float(lo)
            hi = auto_hi if hi is None else float(hi)
        _likelihood_coverage_check(prior, study, lo, hi)
        grid = to_grid(prior, lo, hi, nodes)
    with np.errstate(divide="ignore"):
        log_post = np.where(grid.ws > 0.0, np.log(grid.ws), -np.inf)
    log_post = log_post + norm_logpdf(study.estimate, grid.xs, study.std_error)
    peak = log_post.max()
    if not np.isfinite(peak):
        raise DegenerateError("posterior mass underflowed at every grid node")
    w = np.exp(log_post - peak)
    return GridDensity(grid.xs, w / w.sum())


def update(prior: Distribution1D, study: Study,
           lo: Optional[float] = None, hi: Optional[float] = None,
           nodes: int = DEFAULT_GRID_NODES) -> Distribution1D:
    """One Bayes step: conjugate for a normal prior, componentwise for a
    mixture, and ``update_grid`` for any other prior or whenever a grid
    window edge is given."""
    if lo is None and hi is None:
        if isinstance(prior, NormalDist):
            return update_conjugate(prior, study)
        if isinstance(prior, MixtureDist):
            return update_mixture(prior, study)
    return update_grid(prior, study, lo, hi, nodes)


def sequential_update(prior: Distribution1D, studies: Sequence[Study],
                      lo: Optional[float] = None, hi: Optional[float] = None,
                      nodes: int = DEFAULT_GRID_NODES) -> PosteriorChain:
    """Fold studies into the prior one at a time, recording each posterior.

    Normal priors stay in the conjugate family (so the final posterior is
    order-invariant); mixtures use the closed-form mixture update; other
    priors move to a grid at the first step and stay there.
    """
    studies = list(studies)
    if not studies:
        raise ValueError("sequential_update needs at least one study")
    current: Distribution1D = prior
    steps = []
    for study in studies:
        current = update(current, study, lo, hi, nodes)
        steps.append((study, current))
    return PosteriorChain(prior, tuple(steps))


def log_predictive_density(prior: Distribution1D, model: SamplingModel,
                           ybar: float) -> float:
    """Log marginal density of the sample mean at ``ybar``.

    Evaluated fully in log space so tail values do not underflow.
    """
    pseudo = Study(float(ybar), model.std_error())
    if isinstance(prior, MixtureDist):
        terms = [math.log(w) + _log_marginal(comp, pseudo) for w, comp in prior.components]
        return float(logsumexp(np.array(terms)))
    if isinstance(prior, (NormalDist, TruncatedNormalDist, GridDensity)):
        return _log_marginal(prior, pseudo)
    raise UnsupportedPriorError(f"unknown prior kind {type(prior).__name__}")
