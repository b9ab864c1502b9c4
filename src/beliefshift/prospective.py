"""Expected learning from a study that has not happened yet.

A decision maker blends a consensus prior with a pioneer prior, imagines
the data a proposed design would produce, and asks how far beliefs are
expected to move. The Monte Carlo engine draws each replicate from its
own counter-based RNG stream keyed by (seed, replicate index), so runs
are deterministic. A normal or normal-mixture update prior against a
normal, truncated-normal or mixture reference without grid components
gets W2 from the 1-D optimal map, E_P[(X - G^-1(F_P(X)))^2], with the
posterior cdf only evaluated forward, in fixed-size blocks of replicates
on one thread; a normal pair is closed form, and everything else takes
exact per-replicate updates and quantile quadrature. The all-normal
identity case has an exact closed form to check the machinery against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._normal import lower_tail, ndtri, ndtri_lower
from .distributions import (
    Distribution1D,
    GridDensity,
    MixtureDist,
    NormalDist,
    norm_logpdf,
)
from .metrics import w2_normal, wp_quantile
from .updating import SamplingModel, Study, _conjugate_moments, update

__all__ = [
    "PioneerSetup",
    "ExpectedLearning",
    "CurvePoint",
    "decision_maker_prior",
    "expected_learning_mc",
    "expected_learning_bound_sq",
    "weight_sweep",
    "curve_points_to_csv",
]

DEFAULT_REPLICATES = 10_000
MIN_REPLICATES = 100  # also the floor of scenario files and --replicates
DEFAULT_W2_NODES = 512

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)

# Transport-map quadrature: panel breaks at each posterior component's mean
# +/- these sds (a mixture reference's own breaks are 1 sd apart), 8-point
# Gauss-Legendre in each panel. Rows go in blocks of a fixed size, one
# thread, so the results do not depend on the machine.
_BREAK_SDS = np.arange(-8.0, 9.0, 2.0)
_REF_BREAK_SDS = np.arange(-8.0, 9.0)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_BLOCK_ROWS = 64
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_TINY = np.finfo(float).tiny  # levels are floored here: the map's far tail has no mass
_TOP = 1.0 - 2.0**-53  # the largest double below 1
_NEWTON_STEPS = 3  # carrying a mixture reference's breaks to x


@dataclass(frozen=True)
class PioneerSetup:
    """Consensus prior, pioneer prior, pioneer weight, and the design."""

    consensus: Distribution1D
    pioneer: Distribution1D
    weight: float
    model: SamplingModel

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", float(self.weight))
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("pioneer weight must lie in [0, 1]")


@dataclass(frozen=True)
class ExpectedLearning:
    """Monte Carlo estimate of expected W2 with its sampling uncertainty."""

    estimate: float
    mc_std_error: float
    second_moment: float
    second_moment_std_error: float
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("estimate", "mc_std_error", "second_moment",
                     "second_moment_std_error"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        # Jensen: E[W2] cannot exceed sqrt(E[W2^2]) beyond MC noise.
        ceiling = math.sqrt(self.second_moment) + 3.0 * self.mc_std_error + 1e-12
        if self.estimate > ceiling:
            raise ValueError("estimate exceeds sqrt(second_moment) beyond MC noise")


@dataclass(frozen=True)
class CurvePoint:
    """One (weight, sample size) cell of an expected-learning sweep."""

    w: float
    n: int
    expected_learning: float
    mc_std_error: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("weight must lie in [0, 1]")
        if not (math.isfinite(self.expected_learning) and math.isfinite(self.mc_std_error)):
            raise ValueError("curve point values must be finite")


def decision_maker_prior(setup: PioneerSetup) -> Distribution1D:
    """w * pioneer + (1 - w) * consensus; degenerate weights collapse."""
    if setup.weight == 0.0:
        return setup.consensus
    if setup.weight == 1.0:
        return setup.pioneer
    return MixtureDist((
        (setup.weight, setup.pioneer),
        (1.0 - setup.weight, setup.consensus),
    ))


def expected_learning_bound_sq(sigma_prior: float, sigma: float, n: int) -> float:
    """Closed-form E[W2^2] when predictive, update, and reference priors all
    equal Normal(mu, sigma_prior) and the design observes n draws of noise
    sd sigma. n = 0 means no data and returns 0; the n -> inf limit is
    2 * sigma_prior^2."""
    sigma_prior = float(sigma_prior)
    sigma = float(sigma)
    if sigma_prior <= 0.0 or sigma <= 0.0:
        raise ValueError("scale parameters must be positive")
    n = int(n)
    if n < 0:
        raise ValueError("sample size cannot be negative")
    if n == 0:
        return 0.0
    shrink = sigma**2 / (n * sigma_prior**2)
    mean_term = sigma_prior**2 / (shrink + 1.0)
    scale_term = sigma_prior**2 * (1.0 - 1.0 / math.sqrt(1.0 + sigma_prior**2 * n / sigma**2)) ** 2
    return mean_term + scale_term


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of m * x, through 32-bit halves."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> np.uint64(32), x & _LOW32
    low_low = m_lo * x_lo
    hi_low = m_hi * x_lo
    # At most 2 * (2^32 - 1) + (2^32 - 1)^2 = 2^64 - 1: no wrap.
    cross = (low_low >> np.uint64(32)) + (hi_low & _LOW32) + m_lo * x_hi
    hi = m_hi * x_hi + (hi_low >> np.uint64(32)) + (cross >> np.uint64(32))
    return hi, np.uint64(m) * x


def _replicate_uniforms(seed: int, replicates: int, cols: int) -> np.ndarray:
    """One Philox stream per replicate, keyed (seed, index); fixed column layout.

    Row i equals ``Generator(Philox(key=[seed mod 2^64, i])).random(cols)``
    for cols <= 4: numpy increments the counter before its first block,
    so that block is Philox4x64-10 at counter (1, 0, 0, 0), and doubles
    are (word >> 11) * 2^-53. All rows come from one array pass.
    """
    k0 = np.full(replicates, int(seed) % (1 << 64), dtype=np.uint64)
    k1 = np.arange(replicates, dtype=np.uint64)
    c0 = np.ones(replicates, dtype=np.uint64)
    c1 = np.zeros(replicates, dtype=np.uint64)
    c2 = np.zeros(replicates, dtype=np.uint64)
    c3 = np.zeros(replicates, dtype=np.uint64)
    for r in range(10):
        if r:
            k0 += np.uint64(_PHILOX_W[0])
            k1 += np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3)[:cols], axis=1)
    out = (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    # Quantile transforms need the open interval.
    np.clip(out, 1e-16, 1.0 - 1e-16, out=out)
    return out


def _theta_from_uniforms(predictive_prior: Distribution1D, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-cdf draws of theta. Mixtures burn uniform 0 on the component
    pick and uniform 1 on the component quantile; other priors use uniform 0."""
    if isinstance(predictive_prior, MixtureDist):
        cum_w = np.cumsum(predictive_prior.weights())
        picks = np.searchsorted(cum_w, uniforms[:, 0], side="right")
        picks = np.minimum(picks, len(predictive_prior.components) - 1)
        theta = np.empty(uniforms.shape[0])
        for k, (_, comp) in enumerate(predictive_prior.components):
            mask = picks == k
            if mask.any():
                theta[mask] = comp.quantile(uniforms[mask, 1])
        return theta
    return np.asarray(predictive_prior.quantile(uniforms[:, 0]), dtype=float)


def _components(d: Distribution1D):
    return d.components if isinstance(d, MixtureDist) else ((1.0, d),)


def _w2_normal_update(update_prior: NormalDist, reference: NormalDist,
                      ybar: np.ndarray, se: float) -> np.ndarray:
    post_mu, post_sd = _conjugate_moments(update_prior.mu, update_prior.sigma, ybar, se)
    return np.hypot(post_mu - reference.mu, post_sd - reference.sigma)


def _sides(x, w, mu, sd):
    """P(X <= x), P(X > x) and the pdf at x of each row's normal mixture
    (weights w and means mu per row, sds sd shared)."""
    lower, upper, dens = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    for k in range(sd.size):
        z = (x - mu[:, k:k + 1]) / sd[k]
        wk = w[:, k:k + 1]
        a = np.abs(z)
        e = np.exp(-0.5 * a * a)
        # One tail per component, from the density's own exponential: the
        # smaller tail keeps every digit, and the larger side, w minus that
        # tail, is near w and needs none.
        tail = wk * lower_tail(a, e)
        rest = wk - 2.0 * tail
        above = z > 0.0
        lower += tail + above * rest
        upper += tail + ~above * rest
        dens += wk / sd[k] * e
    return lower, upper, dens * _INV_SQRT_2PI


def _carry_levels(levels, breaks, w, mu, sd):
    """x with F_P(x) = level, per row and level: linear interpolation of F_P
    between the row's sorted breaks, then Newton on the smaller tail, kept
    between the two breaks that bracket the level."""
    lower = _sides(breaks, w, mu, sd)[0]
    j = np.clip((lower[:, :, None] < levels).sum(axis=1), 1, breaks.shape[1] - 1)
    x_lo, f_lo = (np.take_along_axis(a, j - 1, axis=1) for a in (breaks, lower))
    x_hi, f_hi = (np.take_along_axis(a, j, axis=1) for a in (breaks, lower))
    rise = f_hi - f_lo
    frac = np.divide(levels - f_lo, rise, out=np.zeros_like(rise), where=rise > 0.0)
    x = x_lo + np.clip(frac, 0.0, 1.0) * (x_hi - x_lo)
    below = levels < 0.5
    for _ in range(_NEWTON_STEPS):
        lower, upper, dens = _sides(x, w, mu, sd)
        resid = np.where(below, lower - levels, (1.0 - levels) - upper)
        x = np.clip(x - np.divide(resid, dens, out=np.zeros_like(dens), where=dens > 0.0),
                    x_lo, x_hi)
    return x


def _transport_w2(w, mu, sd, inverse, ref_levels) -> np.ndarray:
    """W2 from the reference to each row's posterior mixture, E_P[(X - T(X))^2]
    with T = G^-1(F_P), by Gauss-Legendre on the panels between breaks."""
    rows = mu.shape[0]
    breaks = (mu[:, :, None] + sd[:, None] * _BREAK_SDS).reshape(rows, -1)
    breaks.sort(axis=1)
    if ref_levels is not None:
        breaks = np.concatenate([breaks, _carry_levels(ref_levels, breaks, w, mu, sd)], axis=1)
        breaks.sort(axis=1)
    half = 0.5 * (breaks[:, 1:] - breaks[:, :-1])
    x = ((breaks[:, :-1] + half)[:, :, None] + half[:, :, None] * _GL_NODES).reshape(rows, -1)
    quad = (half[:, :, None] * _GL_WEIGHTS).reshape(rows, -1)
    lower, upper, dens = _sides(x, w, mu, sd)
    below = lower <= upper
    level = np.maximum(np.where(below, lower, upper), _TINY)
    return np.sqrt(np.sum(quad * dens * (x - inverse(level, below)) ** 2, axis=1))


def _w2_mixture_update(update_prior: Distribution1D, reference: Distribution1D,
                       ybar: np.ndarray, se: float) -> np.ndarray:
    """Batched W2 for a normal or normal-mixture update prior, by the 1-D
    optimal map: W2^2(P, G) = E_P[(X - G^-1(F_P(X)))^2].

    The monotone rearrangement is the optimal map in 1-D (Villani 2003,
    Topics in Optimal Transportation, ch. 2). Per replicate the posterior P
    is again a normal mixture whose component sds are replicate-independent;
    a normal update prior is the one-component case. F_P is only evaluated
    forward, and G^-1 is taken from the smaller tail: mu + sigma * ndtri for
    a normal reference, ``quantile`` otherwise. The integral runs over panels
    between each posterior component's mean +/- 0, 2, ..., 8 sds, 8-point
    Gauss-Legendre in each; a mixture reference adds its components' mean
    +/- 0, 1, ..., 8 sds, carried to x through F_P, where G^-1 bends. Rows
    go in fixed-size blocks on one thread.
    """
    weights, mus, sds = (np.array(v) for v in zip(*(
        (w, c.mu, c.sigma) for w, c in _components(update_prior))))
    post_mu, post_sd = _conjugate_moments(mus, sds, ybar[:, None], se)
    log_w = np.log(weights) + norm_logpdf(ybar[:, None], mus, np.hypot(sds, se))
    log_w -= log_w.max(axis=1, keepdims=True)
    post_w = np.exp(log_w)
    post_w /= post_w.sum(axis=1, keepdims=True)

    if isinstance(reference, NormalDist):
        def inverse(level, below):  # level <= 1/2: the lower side of Phi^-1 alone
            sign = np.where(below, 1.0, -1.0)
            return reference.mu + reference.sigma * sign * ndtri_lower(level)
    else:
        def inverse(level, below):
            return reference.quantile(np.where(below, level, np.minimum(1.0 - level, _TOP)))
    ref_levels = None
    if isinstance(reference, MixtureDist):
        breaks = [np.clip(c.mu + c.sigma * _REF_BREAK_SDS, *c.support())
                  for _, c in reference.components]
        ref_levels = reference.cdf(np.concatenate(breaks))
    w2 = np.empty(ybar.size)
    for start in range(0, ybar.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        w2[rows] = _transport_w2(post_w[rows], post_mu[rows], post_sd, inverse, ref_levels)
    return w2


def _batched_w2(update_prior: Distribution1D, reference: Distribution1D,
                ybar: np.ndarray, se: float, nodes: int) -> np.ndarray:
    if isinstance(update_prior, NormalDist) and isinstance(reference, NormalDist):
        return _w2_normal_update(update_prior, reference, ybar, se)
    if all(isinstance(c, NormalDist) for _, c in _components(update_prior)) and not any(
            isinstance(c, GridDensity) for _, c in _components(reference)):
        return _w2_mixture_update(update_prior, reference, ybar, se)
    # General fallback: exact per-replicate updates, no silent skipping.
    out = np.empty(ybar.size)
    for i, y in enumerate(ybar):
        post = update(update_prior, Study(float(y), se))
        if isinstance(reference, NormalDist) and isinstance(post, NormalDist):
            out[i] = w2_normal(reference, post)
        else:
            out[i] = wp_quantile(reference, post, p=2.0, nodes=nodes)
    return out


def expected_learning_mc(predictive_prior: Distribution1D,
                         update_prior: Distribution1D,
                         reference_prior: Distribution1D,
                         model: SamplingModel,
                         replicates: int = DEFAULT_REPLICATES,
                         seed: int = 0,
                         w2_nodes: int = DEFAULT_W2_NODES) -> ExpectedLearning:
    """Monte Carlo E[W2(reference, posterior)] over imagined study outcomes.

    Each replicate draws theta from ``predictive_prior``, simulates the
    sample mean ybar ~ Normal(theta, sigma/sqrt(n)), updates
    ``update_prior`` by Study(ybar, sigma/sqrt(n)), and measures W2 from
    ``reference_prior`` to that posterior. Deterministic given the seed;
    a replicate failure aborts the run.

    ``w2_nodes`` is the node count of the quantile quadrature on the
    per-replicate route, which serves update priors with truncated or grid
    components and references with grid components. The other runs ignore
    it: their W2 is closed form or the transport-map kernel.
    """
    replicates = int(replicates)
    if replicates < MIN_REPLICATES:
        raise ValueError(f"expected_learning_mc needs at least {MIN_REPLICATES} replicates")
    se = model.std_error()
    cols = 3 if isinstance(predictive_prior, MixtureDist) else 2
    uniforms = _replicate_uniforms(seed, replicates, cols)
    theta = _theta_from_uniforms(predictive_prior, uniforms)
    ybar = theta + se * ndtri(uniforms[:, -1])
    w2 = _batched_w2(update_prior, reference_prior, ybar, se, w2_nodes)
    root_n = math.sqrt(replicates)
    w2_sq = w2**2
    return ExpectedLearning(
        estimate=float(w2.mean()),
        mc_std_error=float(w2.std(ddof=1)) / root_n,
        second_moment=float(w2_sq.mean()),
        second_moment_std_error=float(w2_sq.std(ddof=1)) / root_n,
        replicates=replicates,
        seed=int(seed),
    )


def weight_sweep(setup: PioneerSetup,
                 weights: Sequence[float],
                 ns: Sequence[int],
                 replicates: int = DEFAULT_REPLICATES,
                 seed: int = 0,
                 w2_nodes: int = DEFAULT_W2_NODES) -> list[CurvePoint]:
    """Expected-learning curve over pioneer weights and sample sizes.

    For each (w, n) the decision-maker prior (weight w) is both the
    predictive and the update prior while the consensus prior is the
    reference. Point seeds are seed + row-major index, so a singleton
    sweep reproduces a direct expected_learning_mc call exactly.
    ``w2_nodes`` only sets the per-replicate route's quadrature, as in
    expected_learning_mc: cells whose blended prior has only normal
    components, against a consensus with no grid component, ignore it.
    """
    weights = list(weights)
    ns = list(ns)
    if not weights or not ns:
        raise ValueError("weight_sweep needs nonempty weight and n lists")
    points = []
    index = 0
    for w in weights:
        for n in ns:
            model = SamplingModel(setup.model.sigma, int(n))
            blended = decision_maker_prior(
                PioneerSetup(setup.consensus, setup.pioneer, float(w), model)
            )
            result = expected_learning_mc(
                blended, blended, setup.consensus, model,
                replicates=replicates, seed=seed + index, w2_nodes=w2_nodes,
            )
            points.append(CurvePoint(float(w), int(n), result.estimate, result.mc_std_error))
            index += 1
    return points


def curve_points_to_csv(points: Sequence[CurvePoint]) -> str:
    """CSV with the declared header, one row per curve point."""
    lines = ["w,n,expected_learning,mc_std_error"]
    for pt in points:
        lines.append(f"{pt.w!r},{pt.n},{pt.expected_learning!r},{pt.mc_std_error!r}")
    return "\n".join(lines) + "\n"
