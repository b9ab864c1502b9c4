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

from .distributions import (
    DEFAULT_GRID_NODES,
    GRID_TAIL_TOL,
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
        try:
            positive = self.std_error() > 0.0
        except OverflowError:  # n past the largest double
            positive = False
        if not positive:
            raise ValueError("sigma / sqrt(n) must be a positive finite double")

    def std_error(self) -> float:
        """Standard error of the sample mean, sigma / sqrt(n)."""
        return self.sigma / math.sqrt(self.n)


def _conjugate_moments(mu, sd, estimate, se):
    """Posterior (mean, sd) of Normal(mu, sd) after a Normal(estimate, se)
    likelihood, and the log density of estimate under the marginal
    Normal(mu, hypot(sd, se)); array arguments broadcast.

    Precision addition written without squaring raw scales, so sds near
    1e-300 or 1e300 neither underflow nor overflow: the posterior sd is
    min(sd, se) * max(sd, se) / hypot(sd, se) and the data weight is
    (sd / hypot(sd, se))**2.
    """
    with np.errstate(over="ignore"):
        h = np.hypot(sd, se)
    scale = 1.0
    if not np.isfinite(h).all():  # both past about 1.27e308: work those at 1/max(sd, se)
        scale = np.where(np.isfinite(h), 1.0, np.maximum(sd, se))  # 1.0 keeps the rest's bits
        sd, se = sd / scale, se / scale
        h = np.hypot(sd, se)
    post_sd = np.minimum(sd, se) * (np.maximum(sd, se) / h)
    with np.errstate(over="ignore"):  # a z that squares past the doubles has log density -inf
        log_marginal = norm_logpdf(estimate / scale, mu / scale, h) - np.log(scale)
    return mu + (sd / h) ** 2 * (estimate - mu), post_sd * scale, log_marginal


def _reweight(log_w):
    """Weights exp(log_w - max) / sum, and the log of sum(exp(log_w)), along
    the last axis (kept). The log-sum takes the largest terms apart and the
    rest through log1p (Blanchard, Higham and Higham, IMA J. Numer. Anal. 41,
    2021); where the largest term is not finite it is that term, and w is nan."""
    top = log_w.max(axis=-1, keepdims=True)
    ties = log_w == top
    with np.errstate(invalid="ignore", divide="ignore"):  # a top that is not finite
        w = np.exp(log_w - top)
        m = np.count_nonzero(ties, axis=-1, keepdims=True)
        rest = np.where(ties, 0.0, w).sum(axis=-1, keepdims=True)
        log_sum = np.where(np.isfinite(top), np.log1p(rest / m) + np.log(m) + top, top)
        w /= w.sum(axis=-1, keepdims=True)
    return w, log_sum


def _bayes(prior: Distribution1D, study: Study) -> tuple[Optional[Distribution1D], float]:
    """One Bayes step: the posterior and the log marginal likelihood of the study.

    Normal and truncated priors update the latent normal in closed form and
    keep their bounds; the marginal is the latent one's times the ratio of
    kept masses after and before. A grid reweights its nodes; a mixture steps
    each component and reweights them by their marginals. The posterior is
    None when every node of a grid, or every component of a mixture,
    underflowed; a mixture drops a grid component that did.
    """
    se = study.std_error
    if isinstance(prior, (NormalDist, TruncatedNormalDist)):
        mu, sd, log_latent = _conjugate_moments(prior.mu, prior.sigma, study.estimate, se)
        post = (NormalDist(float(mu), float(sd)) if isinstance(prior, NormalDist)
                else TruncatedNormalDist(float(mu), float(sd), prior.lower, prior.upper))
        return post, float(log_latent + post._log_mass - prior._log_mass)
    if isinstance(prior, GridDensity):
        with np.errstate(divide="ignore", over="ignore"):  # a likelihood that underflows
            log_post = np.where(prior.ws > 0.0, np.log(prior.ws), -np.inf)
            log_post = log_post + norm_logpdf(study.estimate, prior.xs, se)
        w, log_marginal = _reweight(log_post)
        log_marginal = float(log_marginal[0])
        return (GridDensity(prior.xs, w) if math.isfinite(log_marginal) else None), log_marginal
    if isinstance(prior, MixtureDist):
        posts, marginals = zip(*(_bayes(comp, study) for _, comp in prior.components))
        w, log_marginal = _reweight(np.log(prior.weights()) + marginals)
        log_marginal = float(log_marginal[0])
        if not math.isfinite(log_marginal):
            return None, log_marginal
        # A component whose posterior underflowed has marginal -inf, so weight 0.
        keep = w > 0.0
        posts = [post for post, k in zip(posts, keep) if k]
        return MixtureDist(tuple(zip(w[keep].tolist(), posts))), log_marginal
    raise UnsupportedPriorError(f"unknown prior kind {type(prior).__name__}")


def update_conjugate(prior: NormalDist, study: Study) -> NormalDist:
    """Normal-normal conjugate update: precisions add, means precision-average."""
    if not isinstance(prior, NormalDist):
        raise UnsupportedPriorError("conjugate updating requires a NormalDist prior")
    return _bayes(prior, study)[0]


def update_mixture(prior: MixtureDist, study: Study) -> MixtureDist:
    """Componentwise update of a mixture prior: normal and truncated components
    update conjugately and keep their bounds, grid components reweight on
    their nodes, and each weight scales by its component's marginal likelihood."""
    if not isinstance(prior, MixtureDist):
        raise UnsupportedPriorError("update_mixture requires a MixtureDist prior")
    post, _ = _bayes(prior, study)
    if post is None:
        raise DegenerateError("posterior mass underflowed in every component")
    return post


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
    if clipped > GRID_TAIL_TOL:
        raise TailMassError(
            f"window [{lo:g}, {hi:g}] clips likelihood mass around the estimate "
            f"{study.estimate:g} (clipped {clipped:.6g} of the mass within the support)"
        )


def update_grid(prior: Distribution1D, study: Study,
                lo: Optional[float] = None, hi: Optional[float] = None,
                nodes: int = DEFAULT_GRID_NODES) -> GridDensity:
    """Grid-quadrature posterior: node masses are prior mass times likelihood.

    A window is both edges or neither. With no window a GridDensity prior
    is reweighted on its own nodes; other priors discretize onto the default
    window first. Raises ValueError for one edge or an edge that is not
    finite and below the other, TailMassError when the window clips prior
    or likelihood mass, and DegenerateError when every node's posterior
    mass underflows.
    """
    if (lo is None) != (hi is None):
        raise ValueError("grid window needs both lo and hi")
    if isinstance(prior, GridDensity) and lo is None:
        grid = prior
    else:
        if lo is None:
            lo, hi = default_grid_window(prior, study)
        grid = to_grid(prior, lo, hi, nodes)
        _likelihood_coverage_check(prior, study, lo, hi)
    post, _ = _bayes(grid, study)
    if post is None:
        raise DegenerateError("posterior mass underflowed at every grid node")
    return post


def update(prior: Distribution1D, study: Study,
           lo: Optional[float] = None, hi: Optional[float] = None,
           nodes: int = DEFAULT_GRID_NODES) -> Distribution1D:
    """One Bayes step: conjugate for a normal prior, componentwise for a
    mixture, and ``update_grid`` for any other prior or whenever a grid
    window is given."""
    if lo is None and hi is None:
        if isinstance(prior, NormalDist):
            return update_conjugate(prior, study)
        if isinstance(prior, MixtureDist):
            return update_mixture(prior, study)
    return update_grid(prior, study, lo, hi, nodes)


def sequential_update(prior: Distribution1D, studies: Sequence[Study],
                      lo: Optional[float] = None, hi: Optional[float] = None,
                      nodes: int = DEFAULT_GRID_NODES) -> list[Distribution1D]:
    """Fold studies into the prior one at a time: the posterior after each.

    Normal priors stay in the conjugate family (so the final posterior is
    order-invariant); mixtures use the closed-form mixture update; other
    priors move to a grid at the first step and stay there.
    """
    studies = list(studies)
    if not studies:
        raise ValueError("sequential_update needs at least one study")
    posteriors = [prior]
    for study in studies:
        posteriors.append(update(posteriors[-1], study, lo, hi, nodes))
    return posteriors[1:]


def log_predictive_density(prior: Distribution1D, model: SamplingModel,
                           ybar: float) -> float:
    """Log marginal density of the sample mean at ``ybar``.

    Evaluated fully in log space so tail values do not underflow.
    """
    return _bayes(prior, Study(float(ybar), model.std_error()))[1]
